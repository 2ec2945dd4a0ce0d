"""Certified distances between closed sets.

Every quantity here is a certificate: an interval [lo, hi] of floats
(possibly degenerate, possibly with hi = math.inf) that provably
contains the true value, plus the method that produced it and a
witness point where the bound is attained or approached.

The bounded-localization distance aw_distance is the supremum over
integer window radii j >= 1 of

    min( 1/j ,  sup { |d(x, A) - d(x, B)| : d(base, x) < j } )

which lands in [0, 1] and is insensitive to far-away discrepancies.
On the line, on interval subspaces and on finite metric spaces the
window suprema have exact closed forms (the gap function is piecewise
linear, so a finite candidate scan is enough).  In higher dimension the
suprema are certified by branch-and-bound over cubes: each cube is
evaluated at one point and bounded by the pair bound of _GapBound,
which reads the Hausdorff distances, distances and gradients of the
sets' convex pieces.  The result is an honest interval, widened by an a
priori rounding allowance; node_cap caps the evaluations.
"""

from __future__ import annotations

import copy
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from . import geom
from .errors import Indeterminate, UnsupportedPair
from .geom import _guarded
from .sets import (
    BallUnion,
    ClosedSet,
    FinitePoints,
    Ray,
    SampledCloud,
    _chunks,
    _coord,
    _dists,
    _dists_each,
    _excess_at_vertices,
    _kernel,
    _Pieces,
    _point_array,
    _same_direction,
    _Stack,
    _vertices,
    dist_to_set,
    is_bounded,
)
from .spaces import FINITE, OPEN_INTERVAL

DEFAULT_TOL = 1e-3
NODE_CAP = 1_500_000


# ---------------------------------------------------------------------------
# certificates


class ExtReal(float):
    """A certificate's upper end: a float, math.inf allowed, whose
    arithmetic, order and repr are the float's.  It adds only is_inf and
    as_float(), which readers outside the library still call."""

    __slots__ = ()

    @property
    def is_inf(self) -> bool:
        return self == math.inf

    def as_float(self) -> float:
        return float(self)


INF = ExtReal(math.inf)


def ext(x) -> ExtReal:
    if isinstance(x, ExtReal):
        return x
    x = float(x)
    return INF if math.isinf(x) else ExtReal(x)


@dataclass(frozen=True)
class CertifiedValue:
    """Interval certificate lo <= value <= hi.

    lo is a plain float; it equals math.inf only when the value is
    proven infinite.  Exact methods produce lo == hi.
    """

    lo: float
    hi: ExtReal
    method: str
    witness: Any = None

    def __post_init__(self):
        hi = ext(self.hi)
        object.__setattr__(self, "hi", hi)
        if self.lo < 0:
            raise ValueError("certificates are nonnegative")
        if math.isinf(self.lo) and hi < math.inf:
            raise ValueError("lo may be infinite only for a proven-infinite value")
        if not self.lo <= hi:
            raise ValueError(f"empty certificate [{self.lo}, {hi}]")

    @staticmethod
    def point(v: float, method: str, witness=None) -> "CertifiedValue":
        return CertifiedValue(v, v, method, witness)

    @staticmethod
    def interval(lo: float, hi, method: str, witness=None) -> "CertifiedValue":
        return CertifiedValue(lo, hi, method, witness)

    @staticmethod
    def infinite(method: str, witness=None) -> "CertifiedValue":
        return CertifiedValue(math.inf, INF, method, witness)

    @property
    def is_exact(self) -> bool:
        return self.is_infinite or self.hi == self.lo

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.lo)

    @property
    def width(self) -> float:
        if self.is_infinite:
            return 0.0
        return self.hi - self.lo

    def to_plain(self) -> dict:
        """{lo, hi, method} for strict JSON output: an infinite end is "inf"."""
        return {"lo": "inf" if self.lo == math.inf else self.lo,
                "hi": "inf" if self.hi == math.inf else float(self.hi), "method": self.method}

    def __repr__(self):
        if self.is_infinite:
            body = "inf"
        elif self.is_exact:
            body = repr(self.lo)
        else:
            body = f"[{self.lo!r}, {self.hi!r}]"
        return f"<{body} by {self.method}>"


def _widen(cv: CertifiedValue, slack: float) -> CertifiedValue:
    """Account for sampled-cloud resolution: the true value sits within
    slack of the sample-level answer."""
    if slack <= 0.0:
        return cv
    return CertifiedValue(max(0.0, cv.lo - slack), cv.hi + slack,
                          cv.method + "+cloud", cv.witness)


def _first_max(cands, d, method, default_wit) -> CertifiedValue:
    """The first candidate of largest positive value, as a Python float
    (an int for an index); (0, default_wit) when none is positive.  This
    is the one tie rule of the exact scans: of tied maximisers, the first
    in the candidate array is the witness."""
    if len(cands):
        i = int(np.argmax(d))
        if d[i] > 0.0:
            return CertifiedValue.point(float(d[i]), method, np.asarray(cands)[i].item())
    return CertifiedValue.point(0.0, method, default_wit)


def _gaps_1d(na, nb, xs) -> np.ndarray:
    """|d(x, A) - d(x, B)| over a batch of coordinates, from the normal
    forms na and nb.  inf - inf reads NaN where both distances overflow:
    at a point past both sets on one side, more than the float range
    away, or at a window edge that overflowed to +-inf.  Past both sets
    the gap is the distance between their outer ends on that side, 0
    where both run on to infinity."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.abs(na.dists(xs) - nb.dists(xs))
    nan = np.isnan(d)
    if nan.any():
        left, right = (0.0 if a == b else abs(a - b)
                       for a, b in ((na.lo[0], nb.lo[0]), (na.hi[-1], nb.hi[-1])))
        d[nan] = np.where(np.asarray(xs)[nan] < na.hi[-1], left, right)
    return d


# ---------------------------------------------------------------------------
# excess (one-sided Hausdorff)


def excess(A: ClosedSet, B: ClosedSet) -> CertifiedValue:
    """sup over a in A of d(a, B), certified.

    Exact for point sets, for all 1-D representations, for rays, and
    for unions of balls/boxes/segments measured against a single convex
    target.  Pairs with no closed form raise UnsupportedPair rather
    than silently approximating.
    """
    A.space.require_same(B.space)
    slack = A.slack + B.slack
    space = A.space

    if isinstance(A.rep, (FinitePoints, SampledCloud)):
        cv = _excess_point_source(A, B)
    elif space.is_one_dimensional:
        cv = _excess_1d(A, B)
    elif isinstance(A.rep, Ray):
        cv = _excess_ray(A, B)
    else:
        cv = _excess_convex(A, B)
    return _widen(cv, slack)


def _excess_point_source(A, B) -> CertifiedValue:
    """The excess of a point set or cloud A over B: the largest of one
    batched _dists from A's points (A.coords; the indices on a finite
    space) to B.  argmax keeps the first farthest point as witness."""
    d = _dists(A.coords, B)
    i = int(np.argmax(d))
    return CertifiedValue.point(float(d[i]), "finite-max", A.rep.points[i])


def _excess_1d(A, B) -> CertifiedValue:
    na, nb = A.normal_form, B.normal_form
    if na.hi[-1] == math.inf and nb.hi[-1] != math.inf:
        return CertifiedValue.infinite("exact-1d", ("escape", +1.0))
    if na.lo[0] == -math.inf and nb.lo[0] != -math.inf:
        return CertifiedValue.infinite("exact-1d", ("escape", -1.0))
    # A's finite ends, then B's gap midpoints inside A
    lo, hi = na._arrays
    mids = nb.midpoints
    # the last interval of A to start at or before each midpoint
    k = np.searchsorted(lo, mids, side="right") - 1
    cands = np.concatenate((na.finite_ends, mids[(k >= 0) & (mids <= hi[k])]))
    return _first_max(cands, nb.dists(cands), "exact-1d", None)


def _excess_ray(A, B) -> CertifiedValue:
    """A ray's excess over a bounded set or a ray.  Over a ray of exactly
    its direction (sets._same_direction, on the axes: the directions as
    given) it is the anchor's distance; over any other ray it is
    infinite, since the two drift apart linearly however small the
    angle."""
    a, u = A.rep.anchor, A.rep.direction
    if is_bounded(B):
        return CertifiedValue.infinite("ray-closed-form", ("escape", u))
    if isinstance(B.rep, Ray):
        if _same_direction(A.rep.axis, B.rep.axis):
            # distance to the target ray is convex and bounded along A,
            # hence nonincreasing: the anchor is the worst point
            return CertifiedValue.point(dist_to_set(a, B), "ray-closed-form", a)
        return CertifiedValue.infinite("ray-closed-form", ("escape", u))
    raise UnsupportedPair("ray excess is only closed-form against rays or bounded sets")


def _excess_convex(A, B) -> CertifiedValue:
    """The farthest vertex of A from the single piece of B (see _vertices),
    in one batched query; a ball adds its radius, by closed form against a
    ball target.  argmax keeps the first farthest vertex as witness."""
    bc = B.components()
    if len(bc) > 1:
        raise UnsupportedPair(
            "excess onto a multi-component set has no closed form for these representations"
        )
    balls = isinstance(A.rep, BallUnion)
    if balls and bc[0][0] == "ball":
        c2, r2 = bc[0][1]
        X = [c for c, _ in A.rep.balls]
        d = [max(math.dist(c, c2) + r - r2, 0.0) for c, r in A.rep.balls]
    else:
        X = _vertices(A.components())[0].tolist()
        d = _dists(X, B)
        if balls:
            if (d <= 0.0).any():
                raise UnsupportedPair(
                    "no closed form for the excess of a ball overlapping its target"
                )
            d = d + np.array([r for _, r in A.rep.balls])
    i = int(np.argmax(d))
    return CertifiedValue.point(float(d[i]), "ball-closed-form" if balls else "finite-max",
                                tuple(X[i]))


def _combine_max(e1: CertifiedValue, e2: CertifiedValue, tag1, tag2) -> CertifiedValue:
    lo = max(e1.lo, e2.lo)
    hi = e1.hi if e2.hi < e1.hi else e2.hi
    src = e1 if (e1.lo, e1.hi) >= (e2.lo, e2.hi) else e2
    tag = tag1 if src is e1 else tag2
    method = src.method if e1.method == e2.method else f"{e1.method}|{e2.method}"
    return CertifiedValue(lo, hi, method, (tag, src.witness))


def hausdorff(A: ClosedSet, B: ClosedSet) -> CertifiedValue:
    """Hausdorff distance: the larger of the two excesses."""
    return _combine_max(excess(A, B), excess(B, A), "left", "right")


def hausdorff_lower(A: ClosedSet, B: ClosedSet) -> CertifiedValue:
    """One-sided lower-Hausdorff gauge: how far A sticks out of B."""
    return excess(A, B)


def hausdorff_upper(A: ClosedSet, B: ClosedSet) -> CertifiedValue:
    """One-sided upper-Hausdorff gauge: how far B sticks out of A."""
    return excess(B, A)


def set_gap(A: ClosedSet, B: ClosedSet) -> float:
    """inf over a in A, b in B of d(a, b).  Exact for every supported
    representation pair (for clouds, exact at sample level): the one-set
    case of _gaps_each."""
    A.space.require_same(B.space)
    return float(_gaps_each(_Stack([A]), B)[0])


def _gaps_each(stack: _Stack, K: ClosedSet) -> np.ndarray:
    """set_gap(A, K) for each set A of a stack (sets._Stack) in one pass:
    each the float of A alone.

    On a 1-D ambient two disjoint pieces are nearest at an end of one of
    them, and two that meet have an end of one inside the other: the
    finite ends of every set are measured against K's normal form, and
    K's finite ends against every set (_dists_each).  A K with no finite
    end is the whole line.

    In R^n and on a finite space a K of points or balls is one query from
    its centres (_dists_each), less its radii.  Against any other K the
    points and ball centres of the sets are measured with _dists, less
    their radii, and each set of boxes, segments or rays goes to geom.gap,
    which scales each pair of sets by its own power of two (a power shared
    by a whole stack could underflow a small set)."""
    if stack.lo is not None:
        k_ends = K.normal_form.finite_ends
        if not len(k_ends):
            return np.zeros(len(stack.starts))
        ends = np.array([stack.lo, stack.hi])
        finite = np.isfinite(ends)  # an infinite end would read inf - inf
        d = np.full(ends.shape, np.inf)
        d[finite] = K.normal_form.dists(ends[finite])
        return np.minimum(np.minimum.reduceat(d.min(axis=0), stack.starts),
                          _dists_each(k_ends, stack).min(axis=1))
    centred = (FinitePoints, SampledCloud, BallUnion)
    if isinstance(K.rep, centred):
        c, r = zip(*K.rep.balls) if isinstance(K.rep, BallUnion) else (K.coords, 0.0)
        return np.maximum(_dists_each(_point_array(K.space, c), stack) - r, 0.0).min(axis=1)
    d = np.full(stack.pieces.m, np.inf)
    for kind, rows, arrs in stack.pieces.blocks:
        if kind in ("point", "ball"):
            r = arrs[1][:, 0] if kind == "ball" else 0.0
            d[rows] = np.maximum(_dists(arrs[0][:, :, 0].T, K) - r, 0.0)
    gaps = np.minimum.reduceat(d, stack.starts)
    for j, A in enumerate(stack.sets):
        if not isinstance(A.rep, centred):
            gaps[j] = geom.gap(A.array_form, K.array_form)
    return gaps


# ---------------------------------------------------------------------------
# window suprema of the distance-gap function


def require_positive(name: str, v) -> None:
    """Refuse a threshold or radius that is not finite and > 0."""
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")


def _check_budget(tol, node_cap, radius=1.0):
    """radius and tol finite and > 0; node_cap an int >= 1, not a bool."""
    require_positive("radius", radius)
    require_positive("tol", tol)
    if isinstance(node_cap, bool) or not isinstance(node_cap, int) or node_cap < 1:
        raise ValueError(f"node_cap must be an int >= 1, got {node_cap!r}")


def sup_gap_on_ball(A: ClosedSet, B: ClosedSet, radius: float, *,
                    tol: float = DEFAULT_TOL, node_cap: int = NODE_CAP) -> CertifiedValue:
    """sup of |d(x, A) - d(x, B)| over the open ball of the given
    radius around the base point.

    Exact (finite candidate scan) on 1-D and finite ambients.  In R^n a
    branch-and-bound over cubes certifies it with target interval width
    tol, evaluating at most node_cap points (a cap below 3^n raises
    Indeterminate); a search the cap stops returns its wider interval.
    """
    return _sup_gap(A, B, radius, tol, node_cap)


def _sup_gap(A, B, radius, tol, node_cap, eps=None) -> CertifiedValue:
    """sup_gap_on_ball; with eps, the n-D search stops once its
    certificate, widened by the clouds' slack, settles whether the gap is
    below eps (see _sup_gap_bnb's cut and stop)."""
    A.space.require_same(B.space)
    radius = float(radius)
    _check_budget(tol, node_cap, radius)
    slack = A.slack + B.slack
    space = A.space
    if space.kind == FINITE:  # the first largest gap in the open window
        d = np.where(space.dist_matrix[space.base_point] < radius, _finite_gaps(space, A, B), 0.0)
        cv = _first_max(np.arange(space.size), d, "finite-max", space.base_point)
    elif space.is_one_dimensional:
        cv = _sup_gap_1d(space, A, B, radius)
    else:
        cut, stop = (-math.inf, math.inf) if eps is None else (eps - slack, eps + slack)
        cv = _sup_gap_bnb(space, A, B, radius, tol, node_cap, cut=cut, stop=stop)[0]
    return _widen(cv, slack)


def _finite_gaps(space, A, B) -> np.ndarray:
    """|d(x, A) - d(x, B)| at every point x of a finite space, in index
    order: the one gap vector of its window suprema."""
    every = np.arange(space.size)
    return np.abs(_dists(every, A) - _dists(every, B))


def _window_1d(space, x0: float, radius: float):
    lo, hi = x0 - radius, x0 + radius
    if space.kind == OPEN_INTERVAL:
        a, b = space.bounds
        lo, hi = max(lo, a), min(hi, b)
    return lo, hi


def _sup_gap_1d(space, A, B, radius) -> CertifiedValue:
    # |d(.,A) - d(.,B)| is piecewise linear; its maximum over a closed
    # window sits at an endpoint, a gap midpoint, or a window edge (the
    # kinks introduced by |.| are zeros, hence never maxima), and the
    # sup over the open window equals the max over its closure.
    na, nb = A.normal_form, B.normal_form
    x0 = _coord(space.canon_point(space.base_point))
    lo_w, hi_w = _window_1d(space, x0, radius)
    # the window edges go last, so that a set's own point wins a tie
    cands = np.concatenate((na.candidates, nb.candidates, [lo_w, hi_w]))
    cands = cands[(lo_w <= cands) & (cands <= hi_w)]
    return _first_max(cands, _gaps_1d(na, nb, cands), "exact-1d", lo_w)


# The n-D window supremum is certified by branch-and-bound over cubes
# (Piyavskii 1972, Shubert 1972; the cube splitting of DIRECT, Jones et
# al. 1993).  The pieces of both sets are their array forms joined, and
# the kernel of the sets module gives the distance to, and the unit
# gradient of, every piece at a batch of points.

_U = 2.0 ** -53          # unit roundoff of binary64
_NEAREST = 6             # pieces per set, nearest the point, in a pair bound
_SLAB_BYTES = 1 << 16    # a slab of _support's input, and each temporary of it


def _allowance(n: int, scale: float) -> float:
    """A priori bound on the rounding error of one kernel distance (and
    of its offset vector) in R^n when every coordinate, radius and query
    coordinate is at most scale in absolute value.

    The summed squares of an offset carry a relative error of at most
    gamma_{n+2} (Higham 2002, ch. 3, gamma_k = k u / (1 - k u)), the
    square root and a ball's radius one more rounding each, and the
    projection onto a segment or ray moves the foot point by a relative
    gamma_{n+2} of the offset.  Offsets are at most 2 sqrt(n) scale long;
    the bound takes these terms with a factor of four to spare.
    """
    return 32.0 * (n + 4) * math.sqrt(n) * _U * scale


def _far(X, s, x0, radius, pieces: _Pieces):
    """Upper bounds F (m, N) on the distance to each piece over the cube
    of half-side s around each row of X within the window: exact over the
    cube for points, balls and boxes (the sup sits at a corner), and for
    points and balls capped by its exact sup over the window; inf for
    segments and rays."""
    Xt = np.ascontiguousarray(X.T)[:, None, :]
    F = np.full((pieces.m, len(X)), np.inf)
    for kind, rows, arrs in pieces.blocks:
        if kind == "box":
            W = np.maximum(np.maximum(arrs[0] - Xt, Xt - arrs[1]) + s, 0.0)
            F[rows] = np.sqrt((W * W).sum(axis=0))
        elif kind in ("point", "ball"):
            W, r = np.abs(Xt - arrs[0]) + s, (arrs[1] if kind == "ball" else 0.0)
            c = arrs[0][:, :, 0] - x0[:, None]
            window = np.sqrt((c * c).sum(axis=0))[:, None] + radius - r
            F[rows] = np.maximum(np.minimum(np.sqrt((W * W).sum(axis=0)) - r, window), 0.0)
    return F


def _nearest(D, G, F):
    """Per point: the indices (k, N) of the _NEAREST pieces closest to it
    (all of them, as (k, 1), when there are few), their rows of D, G and
    F, and the smallest distance left out (None when none is)."""
    k = len(D)
    if k <= _NEAREST:
        return np.arange(k)[:, None], D, G, F, None
    part = np.argpartition(D, _NEAREST, axis=0)
    idx = part[:_NEAREST]
    return (idx, np.take_along_axis(D, idx, axis=0), np.take_along_axis(G, idx[None], axis=1),
            np.take_along_axis(F, idx, axis=0),
            np.take_along_axis(D, part[_NEAREST:_NEAREST + 1], axis=0)[0])


class _GapBound:
    """The gap |d(x, A) - d(x, B)| and an upper bound on it over a cube
    within the window, for two sets of convex pieces in R^n.

    The cube is evaluated at one point c: its centre, or for a centre
    outside the window its radial projection into it.  Let r be the
    farthest the cube reaches from c and S(v) the largest v . (x - c) over
    the cube within the window.  As d_A - d_B = max_k min_i (d_{a_i} -
    d_{b_k}),

        sup (d_A - d_B) <= max_k min_i U(a_i, b_k),   and with A, B swapped,

        U(a, b) = min( H(a, b),
                       d_a(c) - d_b(c) + S(u_a - u_b) + r^2 / (2 (d_a(c) - r)),
                       min(d_a(c) + r, F_a) - d_b(c) + S(-u_b) ).

    H is the Hausdorff distance of the two pieces (left out when the
    mA x mB pairs do not fit the budget), u a unit gradient and
    F_a the closed-form sup of d_a over the cube within the window (see
    _far), which closes at once a cube that lies inside both sets.
    The middle term needs d_a(c) > r: the Hessian of the distance to a
    convex piece is at most 1/(d_a(c) - r) over the cube, and convexity
    puts d_b above its tangent plane, which also gives the last term.
    For a cube of half-side s evaluated at its centre S(v) <= s |v|_1; for
    a cube cut by the window S also reads the ball, so a gap that grows
    towards the window's edge is bounded by its value there.
    The min over i runs over the _NEAREST pieces of A at c (any subset
    gives an upper bound); the pieces of B left out are bounded together
    by min_i min(d_{a_i}(c) + r, F_{a_i}) - d_b(c) + r at the nearest of them.
    Both sides are bounded in one pass over one pair table shaped (side,
    i, k, point), side 1 holding U(b_k, a_i), so that both read H[i, k]:
    side 0 reduces by min over i, then max over k; side 1 by min over k,
    then max over i.
    """

    def __init__(self, A: ClosedSet, B: ClosedSet, reach: float, max_rows=math.inf):
        """reach bounds every coordinate of an evaluated point; H may use
        at most max_rows kernel rows and max_rows entries, and is None
        (the pair bound omits it) past that.  Neither the pieces nor H
        depend on the window, so one bound serves every window of a pair
        (see scaled)."""
        comps_a, comps_b = A.components(), B.components()
        self.mA = len(comps_a)
        self.pieces = A.array_form.join(B.array_form)
        self._scaled = {}
        self.n = A.space.dim
        self.at_reach(reach)
        self.H, self.rows = self._pair_hausdorff(comps_a, comps_b, A.array_form,
                                                 B.array_form, max_rows)

    def at_reach(self, reach: float) -> "_GapBound":
        """Set the rounding allowance alpha for evaluated points whose
        coordinates are at most reach."""
        self.alpha = _allowance(self.n, max(reach, self.pieces.scale))
        return self

    def scaled(self, k: int, reach: float) -> "_GapBound":
        """This bound on coordinates multiplied by 2^k (see _Pieces.scaled),
        at the scaled reach.  The scaled copy is made once per k and kept
        with this bound; each call sets its alpha anew, so the windows of
        one search, which read it one at a time, share it."""
        gap = self._scaled.get(k)
        if gap is None:
            gap = self._scaled[k] = copy.copy(self)
            gap.pieces = self.pieces.scaled(k)
            gap.H = None if self.H is None else np.ldexp(self.H, k)
        return gap.at_reach(math.ldexp(reach, k))

    def hausdorff(self) -> float:
        """H(A, B) <= max(max_k min_i H[i, k], max_i min_k H[i, k]) + 3 alpha; inf without H."""
        if self.H is None:
            return math.inf
        return float(max(self.H.min(0).max(), self.H.min(1).max())) + 3.0 * self.alpha

    def row_bytes(self) -> int:
        """Bytes of kernel and pair-bound temporaries (both sides) per evaluated point."""
        kA, kB = min(_NEAREST, self.mA), min(_NEAREST, self.pieces.m - self.mA)
        return 8 * (self.pieces.m * (self.n + 2) + 3 * (2 * kA * kB + kA + kB) * (self.n + 1))

    def _pair_hausdorff(self, comps_a, comps_b, pieces_a, pieces_b, max_rows):
        """H[i, k] >= the Hausdorff distance of piece i of A and piece k
        of B: each excess read at the vertices of its piece against the
        other set's pieces only (a ball's is at most d(centre) + radius),
        |c - c'| + |r - r'| for two balls, inf with a ray.  H is None when
        its entries or the vertices exceed max_rows.  Also returns the
        number of kernel rows used."""
        mA, mB = len(comps_a), len(comps_b)
        verts = [_vertices(comps) for comps in (comps_a, comps_b)]
        rows = sum(len(X) for X, _ in verts)
        if mA * mB > max_rows or rows > max_rows:
            return None, 0
        E_a, E_b = (_excess_at_vertices(comps, X, owner, other, self.n)
                    for comps, (X, owner), other in ((comps_a, verts[0], pieces_b),
                                                     (comps_b, verts[1], pieces_a)))
        H = np.maximum(E_a, E_b.T, out=E_a)
        ia = [i for i, (kind, _) in enumerate(comps_a) if kind == "ball"]
        ib = [k for k, (kind, _) in enumerate(comps_b) if kind == "ball"]
        if ia and ib:
            ca, cb = (np.array([comps[i][1][0] for i in idx])
                      for comps, idx in ((comps_a, ia), (comps_b, ib)))
            ra, rb = (np.array([comps[i][1][1] for i in idx])
                      for comps, idx in ((comps_a, ia), (comps_b, ib)))
            offsets = ca.T[:, :, None] - cb.T[:, None, :]
            H[np.ix_(ia, ib)] = (_guarded(lambda norm_of: norm_of(offsets))
                                 + np.abs(ra[:, None] - rb[None, :]))
        return H, rows

    def probe(self, C, x0, radius):
        """The evaluation points of the cubes centred at the rows of C,
        the kernel there, the gap, and which points lie in the window."""
        off = C - x0
        rad = np.sqrt(np.einsum("ij,ij->i", off, off))
        r_in = radius - 4.0 * self.alpha
        out = rad > r_in
        P = C
        if r_in > 0.0 and out.any():
            P = np.where(out[:, None], x0 + off * (r_in / np.where(out, rad, 1.0))[:, None], C)
            off = P - x0
            rad = np.sqrt(np.einsum("ij,ij->i", off, off))
        D, G = _kernel(P, self.pieces)
        f = np.abs(D[:self.mA].min(axis=0) - D[self.mA:].min(axis=0))
        inside = rad + self.alpha < radius
        return P, D, G, f, inside

    def bound(self, C, P, D, G, f, s, x0, radius, floor=-math.inf):
        """Upper bound on the gap over each cube (centre C, half-side s)
        within the window, before the rounding allowance: the smaller of
        f + 2 r and the pair bound, which is computed only where f + 2 r
        exceeds floor."""
        e = np.ascontiguousarray((C - P).T)  # C order keeps sums over axis 0 fast
        r = (s * math.sqrt(self.n) + np.sqrt((e * e).sum(axis=0))) * (1.0 + 4.0 * _U)
        b = f + 2.0 * r
        hard = b > floor
        if not hard.any():
            return b
        # compress keeps C order, which boolean indexing of a last axis does not
        D, G, r = D.compress(hard, axis=1), G.compress(hard, axis=2), r[hard]
        F = _far(C[hard], s, x0, radius, self.pieces)
        win = (e.compress(hard, axis=1), np.ascontiguousarray((x0 - P[hard]).T), s, radius)
        a, mA = self.alpha, self.mA
        ia, dA, gA, fA, nextA = _nearest(D[:mA], G[:, :mA], F[:mA])
        ib, dB, gB, fB, nextB = _nearest(D[mA:], G[:, mA:], F[mA:])
        kA, kB = len(dA), len(dB)
        if nextA is not None or nextB is not None:  # rows: A's nearest, then B's
            D, F = np.concatenate((dA, dB)), np.concatenate((fA, fB))
            G = np.concatenate((gA, gB), axis=1)
        up = np.minimum(D + r, F)  # sup of d_p over the cube within the window
        # a computed gradient is within 4 a / (d - a) of the exact one, and
        # within 2 of it where d <= 5 a; below d_q there, 0 is a tangent
        # plane of d_q up to 6 a, because d_q >= 0
        pen_p = r * np.where(D > 5.0 * a, 4.0 * a / (D - a), 2.0)
        flat = D <= 5.0 * a
        gq = np.where(flat, 0.0, G)
        pen_q = np.where(flat, 6.0 * a, r * 4.0 * a / np.where(flat, 1.0, D - a))
        near = D - a - r
        curv = np.divide(r * r * (1.0 + 32.0 * _U), 2.0 * near,
                         out=np.full_like(near, np.inf), where=near > 0.0)
        p, q, pairs = _pair_rows(kA, kB)
        v = np.empty((self.n, pairs + kA + kB, len(r)))  # the pairs' u_p - u_q, then -u_q
        pair_v = v[:, :pairs].reshape(self.n, 2, kA, kB, -1)
        np.subtract(G[:, :kA, None], gq[:, None, kA:], out=pair_v[:, 0])
        np.subtract(G[:, None, kA:], gq[:, :kA, None], out=pair_v[:, 1])
        np.negative(gq, out=v[:, pairs:])
        sup = _support(v, win)
        del v, pair_v  # freed before the pair table U is built on top of them
        lin = sup[:pairs].reshape(p.shape + r.shape) + pen_p[p] + pen_q[q]
        U = np.minimum((D + curv)[p] - D[q] + lin, up[p] - (D - sup[pairs:] - pen_q)[q])
        if self.H is not None:
            U = np.minimum(U, self.H[ia[:, None, :], ib[None, :, :]])
        sides = U[0].min(axis=0).max(axis=0), U[1].min(axis=1).max(axis=0)
        for side, up_p, next_q in ((sides[0], up[:kA], nextB), (sides[1], up[kA:], nextA)):
            if next_q is not None:
                np.maximum(side, up_p.min(axis=0) - next_q + r, out=side)
        b[hard] = np.minimum(b[hard], np.maximum(*sides))
        return b


@lru_cache(maxsize=None)
def _pair_rows(kA, kB):
    """Rows of p and of q, each (2, kA, kB) and shared by every caller,
    into A's kA rows joined with B's kB (see _GapBound); the pair count."""
    i, k = np.indices((kA, kB))
    return np.stack((i, k + kA)), np.stack((k + kA, i)), 2 * kA * kB


def _support(v, win):
    """An upper bound on max v . (x - c) over x in the cube within the
    window, for vectors v shaped (n, rows, ..., point): the smaller of the
    cube's s |v|_1 + v . e (e its centre less c) and the ball's
    v . t + R |v| (t its centre less c).  It is computed over slabs of
    rows into one output, so that no temporary has the size of v; each
    float is the one the whole array would give."""
    e, t, s, radius = win
    shape = e.shape[:1] + (1,) * (v.ndim - 2) + e.shape[1:]
    e, t = e.reshape(shape), t.reshape(shape)
    out = np.empty(v.shape[1:])
    step = max(1, _SLAB_BYTES // (8 * v[:, :1].size))  # rows of out per slab of v
    for i in range(0, len(out), step):
        u = v[:, i:i + step]
        np.minimum(s * np.abs(u).sum(axis=0) + (u * e).sum(axis=0),
                   (u * t).sum(axis=0) + radius * np.sqrt((u * u).sum(axis=0)), out=out[i:i + step])
    return out


def _pair_bound(A, B, reach, node_cap) -> _GapBound:
    """The pair's _GapBound, its H within node_cap less 1 + 2^n rows,
    which leaves room for the search's first level of 2^n cubes and keeps
    H for the same caps as a search that evaluated the root cube before
    them; Indeterminate when node_cap is below 3^n."""
    n = A.space.dim
    if 3 ** n > node_cap:
        raise Indeterminate(
            f"node_cap={node_cap} is below the floor of 3^{n} evaluations in R^{n}")
    return _GapBound(A, B, reach, max_rows=node_cap - 1 - (1 << n))


def _sup_gap_bnb(space, A, B, radius, tol, node_cap, gap=None, seed=None,
                 cut=-math.inf, stop=math.inf):
    """Branch-and-bound over cubes for sup |d_A - d_B| on the window.

    Cubes are evaluated level by level (see _GapBound.probe), starting
    from the 2^n cubes of half-side radius / 2 that split the cube of
    half-side radius around the base point: that root cube on its own
    would cost a whole level, and split into them unless it closed.  A
    cube that misses the window is dropped; one whose bound is <= best +
    tol, or whose bound plus 3 alpha lies below cut, is closed; every
    other splits into 2^n children.  The search stops once best - 3 alpha
    >= stop.  At most node_cap kernel rows are evaluated; a level that
    does not fit splits only the cubes of largest bound.  hi is the
    largest bound of a closed, remaining or abandoned cube, so a caller
    that asks only which side of cut or stop the gap lies on gets an
    honest certificate that settles it with less work.  A gap and a bound
    are each within 3 alpha of their exact values, by which both ends are
    widened.

    The search runs on coordinates multiplied by 2^k, which puts the
    pieces and the window below 1 in absolute value: no square under- or
    overflows there, and in range the floats are those of the unscaled
    search times 2^k.  gap is the pair's _pair_bound when a caller reuses
    one across windows, seed a gap value and a point of the window from an
    earlier search (a smaller window inside this one).  Returns the
    certificate and the search's (best, witness), a seed for a larger
    window.
    """
    n = space.dim
    x0 = np.asarray(space.canon_point(space.base_point), dtype=float)
    reach = float(np.abs(x0).max()) + radius  # bounds every centre coordinate
    gap = _pair_bound(A, B, reach, node_cap) if gap is None else gap
    k = -math.frexp(max(reach, gap.pieces.scale))[1]
    gap = gap.scaled(k, reach)
    x0 = np.ldexp(x0, k)
    radius, tol, cut, stop, reach = (math.ldexp(v, k) for v in (radius, tol, cut, stop, reach))
    alpha = gap.alpha
    allowance = 3.0 * alpha
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    best, wit = (-math.inf, x0) if seed is None else (math.ldexp(seed[0], k), np.ldexp(seed[1], k))
    closed = -math.inf

    def opens(b):
        """Which bounds keep their cubes open."""
        return (b > best + tol) & (b + allowance >= cut)

    def evaluate(chunks, s, drift):
        """Bound the cubes of half-side s centred at the rows of each chunk;
        returns those still open and their bounds."""
        nonlocal best, wit, closed
        s_e = s + drift  # a computed centre is within drift of the exact one
        open_c, open_b = [], []
        for C in chunks:
            off = np.maximum(np.abs(C - x0) - s_e, 0.0)
            C = C[np.sqrt(np.einsum("ij,ij->i", off, off)) <= radius + alpha]
            if not len(C):
                continue
            P, D, G, f, inside = gap.probe(C, x0, radius)
            f_in = np.where(inside, f, -math.inf)
            i = int(np.argmax(f_in))
            if f_in[i] > best:
                best, wit = float(f_in[i]), P[i]
            b = gap.bound(C, P, D, G, f, s_e, x0, radius, floor=max(best + tol, cut - allowance))
            keep = opens(b)
            # a NaN bound fails every test, so its cube closes; it leaves
            # the gap unbounded, where max would keep closed
            shut = float(b[~keep].max(initial=-math.inf))
            closed = math.inf if math.isnan(shut) else max(closed, shut)
            open_c.append(C[keep])
            open_b.append(b[keep])
        if not open_c:
            return np.empty((0, n)), np.empty(0)
        return np.concatenate(open_c), np.concatenate(open_b)

    evals = gap.rows + (1 << n)
    s, level = radius / 2.0, 1
    cubes, bounds = evaluate([x0 + s * signs], s, 2.0 * _U * reach)
    while len(cubes):
        if best - allowance >= stop:  # settled: the open cubes count in hi
            closed = max(closed, float(bounds.max()))
            break
        keep = opens(bounds)  # best may have risen since they were bounded
        closed = max(closed, float(bounds[~keep].max(initial=-math.inf)))
        cubes, bounds = cubes[keep], bounds[keep]
        level += 1
        drift = 2.0 * level * _U * reach
        room = max(0, node_cap - evals) >> n
        if not len(cubes):
            break
        if room == 0 or drift >= s / 8.0:  # out of budget, or at float resolution
            closed = max(closed, float(bounds.max()))
            break
        if room < len(cubes):
            order = np.argsort(-bounds, kind="stable")
            closed = max(closed, float(bounds[order[room:]].max()))
            cubes, bounds = cubes[order[:room]], bounds[order[:room]]
        evals += len(cubes) << n
        s /= 2.0
        steps, parents = s * signs, cubes
        cubes, bounds = evaluate(((parents[sl, None, :] + steps).reshape(-1, n)
                                  for sl in _chunks(len(parents), gap.row_bytes() << n)),
                                 s, drift)
    lo = max(0.0, best - allowance)
    hi = max(closed, best, 0.0) + allowance
    best, wit = math.ldexp(best, -k), np.ldexp(wit, -k)
    return (CertifiedValue.interval(math.ldexp(lo, -k), math.ldexp(hi, -k), "bnb",
                                    tuple(float(v) for v in wit)), (best, wit))


# ---------------------------------------------------------------------------
# bounded-localization distance


def aw_distance(A: ClosedSet, B: ClosedSet, *,
                tol: float = DEFAULT_TOL, node_cap: int = NODE_CAP) -> CertifiedValue:
    """The windowed distance sup_j min(1/j, window-j gap), in [0, 1].

    Exact on 1-D and finite ambients; an interval of target width tol
    elsewhere.
    """
    A.space.require_same(B.space)
    _check_budget(tol, node_cap)
    space = A.space
    try:
        dh = float(hausdorff(A, B).hi)
    except UnsupportedPair:
        dh = math.inf
    if space.kind == FINITE or space.is_one_dimensional:
        cv = _aw_exact(space, A, B)
    else:
        cv = _aw_certified(space, A, B, dh, tol, node_cap)
    cv = _widen(cv, A.slack + B.slack)
    # the windowed distance is at most 1 and at most a finite hausdorff hi (which
    # kills the odd last-ulp overshoot from sup evaluation at interior candidates)
    top = min(1.0, dh)
    if top < cv.hi:
        cv = CertifiedValue(min(cv.lo, top), top, cv.method, cv.witness)
    return cv


def _aw_exact(space, A, B) -> CertifiedValue:
    """sup_j min(1/j, g(j)) over the exact window-gap family g.  g is
    nondecreasing and 1/j decreasing, so the terms equal g(j) up to the
    first window J with g(J) >= 1/J and are below 1/J after it: the
    supremum is max(g(J-1), 1/J).  J <= j_sat: window j_sat lies at least
    1 past every candidate, so a side that escapes gives g(j_sat) >= 1 in
    exact arithmetic.  Where g is flat, rounding at the window edges can
    make the float g(j) dip by a few ulps of the radius, so g(J-1) can sit
    that far below an earlier g(j)."""
    g, j_sat, g_inf = _window_gap_family(space, A, B)
    g_sat = g(j_sat)
    if g_sat < 1.0 / j_sat and g_inf is not None:
        # no crossing before saturation: the last window and the limit decide
        return CertifiedValue.point(max(g_sat, min(1.0 / (j_sat + 1), g_inf)), "exact-1d")
    lo_j, hi_j = 1, j_sat
    while lo_j < hi_j:
        mid = (lo_j + hi_j) // 2
        if g(mid) >= 1.0 / mid:
            hi_j = mid
        else:
            lo_j = mid + 1
    v = 1.0 if lo_j == 1 else max(g(lo_j - 1), 1.0 / lo_j)
    return CertifiedValue.point(v, "exact-1d")


def _window_gap_family(space, A, B):
    """Returns (g, j_sat, g_inf): the exact window-gap function over
    integer radii, the radius past which nothing new enters the window,
    and the limiting gap (None when it grows without bound)."""
    finite = space.kind == FINITE
    if finite:  # the gaps at every point, by distance from the base point
        r, d = space.dist_matrix[space.base_point], _finite_gaps(space, A, B)
    else:
        na, nb = A.normal_form, B.normal_form
        x0 = _coord(space.canon_point(space.base_point))
        cands = np.concatenate((na.candidates, nb.candidates))  # duplicates are harmless
        r = np.abs(cands - x0)
        d = np.abs(na.dists(cands) - nb.dists(cands))
    order = np.argsort(r, kind="stable")  # within a tie in r only the group's max is read
    radii = r[order].tolist()
    prefix = np.maximum.accumulate(d[order]).tolist() or [0.0]
    if finite:  # the open window j holds the base point and all before bisect_left
        return (lambda j: prefix[bisect_left(radii, float(j)) - 1],
                int(math.floor(radii[-1])) + 1, prefix[-1])

    def delta(x):
        return abs(na.dist(x) - nb.dist(x))

    interior_max = prefix[-1]

    if space.kind == OPEN_INTERVAL:
        a_amb, b_amb = space.bounds
        max_rad = max(x0 - a_amb, b_amb - x0)
        g_inf = max(interior_max, delta(a_amb), delta(b_amb))
    else:
        max_rad = radii[-1] if radii else 0.0
        up_a, up_b = na.hi[-1] == math.inf, nb.hi[-1] == math.inf
        dn_a, dn_b = na.lo[0] == -math.inf, nb.lo[0] == -math.inf
        if up_a != up_b or dn_a != dn_b:
            g_inf = None  # one side escapes: the gap grows like the window
        else:
            right = 0.0 if up_a else abs(na.hi[-1] - nb.hi[-1])
            left = 0.0 if dn_a else abs(na.lo[0] - nb.lo[0])
            g_inf = max(interior_max, left, right)

    def g(j):
        lo_w, hi_w = _window_1d(space, x0, float(j))
        i = bisect_right(radii, float(j))
        out = prefix[i - 1] if i else 0.0
        return max(out, delta(lo_w), delta(hi_w))

    j_sat = int(math.ceil(max_rad)) + 1
    return g, j_sat, g_inf


def _aw_certified(space, A, B, hb: float, tol, node_cap) -> CertifiedValue:
    """Windows j = 1, 2, ... until the terms min(1/j, g(j)) of the window
    gaps g are pinned to tol; hb bounds H(A, B), as does the pair table.

    Window j contains the earlier ones, and g(j) <= H(A, B) (Beer 1993,
    ch. 3): the terms up to j are at most cap, the smaller of their running
    max and min(1, hb, hi of window j), and the later ones at most tail =
    min(1/(j+1), hb).  Window j closes at once a cube whose bound is below
    tail - tol: no gap there can stop the loop at j or lift max(cap, tail).
    It starts from window j - 1's best gap and witness, and stops once its
    gap is certified at or above 1/j, where its term is exactly 1/j and no
    later window can exceed it."""
    if hb > tol:
        gap = _pair_bound(A, B, 0.0, node_cap)  # alpha is set per window
        hb = min(hb, gap.hausdorff())
    if hb <= tol:
        return CertifiedValue.interval(0.0, min(1.0, hb), "h-bound")
    lo, cap, wit, seed = 0.0, 0.0, None, None
    j_cap = min(math.ceil(1.0 / tol) + 1, 512)  # windows; then the width achieved
    for j in itertools.count(1):
        tail = min(1.0 / (j + 1), hb)
        G, seed = _sup_gap_bnb(space, A, B, float(j), tol / 2.0, node_cap, gap, seed,
                               cut=tail - tol, stop=1.0 / j)
        if min(1.0 / j, G.lo) > lo:
            lo, wit = min(1.0 / j, G.lo), G.witness
        if G.lo >= 1.0 / j:  # the later terms are at most 1/(j+1) < lo
            return CertifiedValue.interval(lo, max(lo, cap), "bnb", wit)
        top = min(1.0, hb, G.hi)
        cap = min(max(cap, min(1.0 / j, top)), top)
        if tail <= lo or max(cap, tail) - lo <= tol or j >= j_cap:
            return CertifiedValue.interval(lo, max(cap, tail), "bnb", wit)


def aw_less_than(A: ClosedSet, B: ClosedSet, eps: float, *,
                 tol: float = DEFAULT_TOL, node_cap: int = NODE_CAP) -> bool:
    """Decide aw_distance(A, B) < eps without scanning all windows.

    The decision reduces to a single window: with j chosen so that
    1/(j+1) < eps <= 1/j, the distance is below eps exactly when the
    window-j gap is.  Defined for eps in (0, 1) only (aw_distance is
    capped at 1, so compare against it directly for larger thresholds).
    In R^n the window gap is certified by branch-and-bound within
    node_cap evaluations, which stops as soon as its certificate clears
    eps either way: cubes whose bounds lie below eps close, and a gap
    found at or above eps ends the search.  Raises Indeterminate if the
    certificate straddles the threshold: a cube closed at tol, or left
    open by the budget, reaches eps while no gap found does.
    """
    eps = float(eps)
    _check_budget(tol, node_cap)
    if not 0.0 < eps < 1.0:
        raise ValueError("the single-window comparison needs eps in (0, 1)")
    j = max(1, int(math.floor(1.0 / eps)))
    while 1.0 / (j + 1) >= eps:
        j += 1
    while j > 1 and 1.0 / j < eps:
        j -= 1
    G = _sup_gap(A, B, float(j), min(tol, eps / 4.0), node_cap, eps)
    if G.hi < eps:
        return True
    if G.lo >= eps:
        return False
    raise Indeterminate(
        f"window-{j} gap certificate [{G.lo}, {G.hi}] straddles eps={eps}"
    )
