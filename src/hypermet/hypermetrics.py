"""Certified distances between closed sets.

Every quantity here is an ExtReal certificate: an interval [lo, hi]
(possibly degenerate, possibly with hi = infinity) that provably
contains the true value, plus the method that produced it and a
witness point where the bound is attained or approached.

The bounded-localization distance aw_distance is the supremum over
integer window radii j >= 1 of

    min( 1/j ,  sup { |d(x, A) - d(x, B)| : d(base, x) < j } )

which lands in [0, 1] and is insensitive to far-away discrepancies.
On the line, on interval subspaces and on finite metric spaces the
window suprema have exact closed forms (the gap function is piecewise
linear, so a finite candidate scan is enough); in higher dimension the
suprema are certified by Lipschitz grids and the result is an honest
interval.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Optional

import numpy as np

from . import geom
from .errors import Indeterminate, UnsupportedPair
from .sets import (
    ClosedSet,
    FinitePoints,
    Ray,
    SampledCloud,
    _box_corners,
    _coord,
    dist_to_set,
    is_bounded,
)
from .spaces import FINITE, OPEN_INTERVAL

DEFAULT_TOL = 1e-3
NODE_CAP = 1_500_000

_PARALLEL_TOL = 1e-12


# ---------------------------------------------------------------------------
# extended reals and certificates


@total_ordering
class ExtReal:
    """A nonnegative real or +infinity.  Keeps float('inf') from
    leaking into arithmetic by accident."""

    __slots__ = ("_v",)

    def __init__(self, v: Optional[float]):
        object.__setattr__(self, "_v", None if v is None else float(v))

    @property
    def is_inf(self) -> bool:
        return self._v is None

    def as_float(self) -> float:
        return math.inf if self._v is None else self._v

    def __eq__(self, other):
        return self.as_float() == _as_float(other)

    def __lt__(self, other):
        return self.as_float() < _as_float(other)

    def __hash__(self):
        return hash(self.as_float())

    def __add__(self, other):
        if self.is_inf:
            return INF
        return ExtReal(self._v + _as_float(other))

    def __repr__(self):
        return "inf" if self.is_inf else repr(self._v)


def _as_float(x) -> float:
    return x.as_float() if isinstance(x, ExtReal) else float(x)


INF = ExtReal(None)


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
        if self.lo < 0:
            raise ValueError("certificates are nonnegative")
        if math.isinf(self.lo) and not self.hi.is_inf:
            raise ValueError("lo may be infinite only for a proven-infinite value")
        if self.hi < self.lo:
            raise ValueError(f"empty certificate [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v: float, method: str, witness=None) -> "CertifiedValue":
        return CertifiedValue(v, ext(v), method, witness)

    @staticmethod
    def interval(lo: float, hi, method: str, witness=None) -> "CertifiedValue":
        return CertifiedValue(lo, ext(hi), method, witness)

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
        return self.hi.as_float() - self.lo

    def to_plain(self) -> dict:
        """{lo, hi, method} for JSON output; an infinite hi is "inf"."""
        return {"lo": self.lo, "hi": "inf" if self.hi.is_inf else self.hi.as_float(),
                "method": self.method}

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
    if cv.is_infinite:
        return CertifiedValue.infinite(cv.method + "+cloud", cv.witness)
    return CertifiedValue(max(0.0, cv.lo - slack), cv.hi + slack,
                          cv.method + "+cloud", cv.witness)


def _first_max(cands, d, method, default_wit) -> CertifiedValue:
    """The first candidate of largest positive value, as the candidate
    scan has always broken ties; (0, default_wit) when none is positive."""
    if len(cands):
        i = int(np.argmax(d))
        if d[i] > 0.0:
            return CertifiedValue.point(float(d[i]), method, cands[i])
    return CertifiedValue.point(0.0, method, default_wit)


def _breakpoints(cands: set, *forms) -> set:
    """Add the finite endpoints and gap midpoints of each normal form to
    cands.  The insertion order fixes the set's iteration order, and so
    which of two tied candidates a scan reports."""
    for nf in forms:
        for lo, hi in nf.intervals:
            if math.isfinite(lo):
                cands.add(lo)
            if math.isfinite(hi):
                cands.add(hi)
        cands.update(nf.midpoints)
    return cands


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
    pts = A.rep.points
    if A.space.is_one_dimensional:
        d = B.normal_form.dists(np.asarray(pts, dtype=float).ravel())
        i = int(np.argmax(d))
        return CertifiedValue.point(float(d[i]), "finite-max", pts[i])
    best, wit = -1.0, None
    for p in A.rep.points:
        d = dist_to_set(p, B)
        if d > best:
            best, wit = d, p
    return CertifiedValue.point(best, "finite-max", wit)


def _excess_1d(A, B) -> CertifiedValue:
    na, nb = A.normal_form, B.normal_form
    if na.hi[-1] == math.inf and nb.hi[-1] != math.inf:
        return CertifiedValue.infinite("exact-1d", ("escape", +1.0))
    if na.lo[0] == -math.inf and nb.lo[0] != -math.inf:
        return CertifiedValue.infinite("exact-1d", ("escape", -1.0))
    mids = nb.midpoints
    cands = []
    for lo, hi in na.intervals:
        if math.isfinite(lo):
            cands.append(lo)
        if math.isfinite(hi):
            cands.append(hi)
        cands.extend(mids[bisect_left(mids, lo):bisect_right(mids, hi)])
    return _first_max(cands, nb.dists(cands), "exact-1d", None)


def _excess_ray(A, B) -> CertifiedValue:
    a, u = A.rep.anchor, A.rep.direction
    if is_bounded(B):
        return CertifiedValue.infinite("ray-closed-form", ("escape", u))
    if isinstance(B.rep, Ray):
        b, v = B.rep.anchor, B.rep.direction
        if geom.dot(u, v) >= 1.0 - _PARALLEL_TOL:
            # distance to the target ray is convex and bounded along A,
            # hence nonincreasing: the anchor is the worst point
            return CertifiedValue.point(geom.dist_point_ray(a, b, v),
                                        "ray-closed-form", a)
        return CertifiedValue.infinite("ray-closed-form", ("escape", u))
    raise UnsupportedPair("ray excess is only closed-form against rays or bounded sets")


def _excess_convex(A, B) -> CertifiedValue:
    bc = B.components()
    if len(bc) > 1:
        raise UnsupportedPair(
            "excess onto a multi-component set has no closed form for these representations"
        )
    target = bc[0]
    tkind, tdata = target
    best, wit, method = -1.0, None, "finite-max"
    for kind, data in A.components():
        if kind == "segment":
            p, q = data
            v, c = max((geom.gap(("point", e), target), e) for e in (p, q))
        elif kind == "box":
            lo, hi = data
            v, c = max((geom.gap(("point", e), target), e) for e in _box_corners(lo, hi))
        elif kind == "ball":
            cen, r = data
            if tkind == "ball":
                c2, r2 = tdata
                v, c = max(math.dist(cen, c2) + r - r2, 0.0), cen
            else:
                d0 = geom.gap(("point", cen), target)
                if d0 <= 0.0:
                    raise UnsupportedPair(
                        "no closed form for the excess of a ball overlapping its target"
                    )
                v, c = d0 + r, cen
            method = "ball-closed-form"
        else:
            raise UnsupportedPair(f"no excess closed form for component kind {kind!r}")
        if v > best:
            best, wit = v, c
    return CertifiedValue.point(best, method, wit)


def _combine_max(e1: CertifiedValue, e2: CertifiedValue, tag1, tag2) -> CertifiedValue:
    lo = max(e1.lo, e2.lo)
    hi = e1.hi if e2.hi < e1.hi else e2.hi
    src = e1 if (e1.lo, e1.hi.as_float()) >= (e2.lo, e2.hi.as_float()) else e2
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
    representation pair (for clouds, exact at sample level)."""
    A.space.require_same(B.space)
    space = A.space
    if space.kind == FINITE:
        return min(space.matrix[a][b] for a in A.rep.points for b in B.rep.points)
    if space.is_one_dimensional:
        # two disjoint pieces are nearest at an end of one of them, and two
        # that meet have an end of one inside the other; a set with no
        # finite end is the whole line
        na, nb = A.normal_form, B.normal_form
        gaps = [float(nf.dists(ends).min())
                for nf, ends in ((nb, na.finite_ends), (na, nb.finite_ends)) if len(ends)]
        return min(gaps, default=0.0)
    best = math.inf
    for ca in A.components():
        for cb in B.components():
            best = min(best, geom.gap(ca, cb))
            if best == 0.0:
                return 0.0
    return best


# ---------------------------------------------------------------------------
# window suprema of the distance-gap function


def _check_budget(tol, node_cap, radius=1.0):
    """radius and tol finite and > 0; node_cap an int >= 1, not a bool."""
    for name, v in (("radius", radius), ("tol", tol)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    if isinstance(node_cap, bool) or not isinstance(node_cap, int) or node_cap < 1:
        raise ValueError(f"node_cap must be an int >= 1, got {node_cap!r}")


def sup_gap_on_ball(A: ClosedSet, B: ClosedSet, radius: float, *,
                    tol: float = DEFAULT_TOL, node_cap: int = NODE_CAP) -> CertifiedValue:
    """sup of |d(x, A) - d(x, B)| over the open ball of the given
    radius around the base point.

    Exact (finite candidate scan) on 1-D and finite ambients; grid
    certified in R^n, where the gap function is 2-Lipschitz, with
    target interval width tol subject to the node cap.
    """
    A.space.require_same(B.space)
    radius = float(radius)
    _check_budget(tol, node_cap, radius)
    slack = A.slack + B.slack
    space = A.space
    if space.kind == FINITE:
        cv = _sup_gap_finite(space, A, B, radius)
    elif space.is_one_dimensional:
        cv = _sup_gap_1d(space, A, B, radius)
    else:
        cv = _sup_gap_grid(space, A, B, radius, tol, node_cap)
    return _widen(cv, slack)


def _sup_gap_finite(space, A, B, radius) -> CertifiedValue:
    apts, bpts = A.rep.points, B.rep.points
    row0 = space.matrix[space.base_point]
    best, wit = 0.0, space.base_point
    for x in range(space.size):
        if row0[x] < radius:  # open window
            d = abs(min(space.matrix[x][a] for a in apts)
                    - min(space.matrix[x][b] for b in bpts))
            if d > best:
                best, wit = d, x
    return CertifiedValue.point(best, "finite-max", wit)


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
    cands = [c for c in _breakpoints({lo_w, hi_w}, na, nb) if lo_w <= c <= hi_w]
    return _first_max(cands, np.abs(na.dists(cands) - nb.dists(cands)), "exact-1d", lo_w)


def _batch_dist(X: np.ndarray, S: ClosedSet) -> np.ndarray:
    best = np.full(len(X), np.inf)
    for kind, data in S.components():
        if kind == "point":
            d = np.linalg.norm(X - np.asarray(data), axis=1)
        elif kind == "ball":
            c, r = data
            d = np.maximum(np.linalg.norm(X - np.asarray(c), axis=1) - r, 0.0)
        elif kind == "box":
            lo, hi = np.asarray(data[0]), np.asarray(data[1])
            out = np.maximum(lo - X, 0.0) + np.maximum(X - hi, 0.0)
            d = np.linalg.norm(out, axis=1)
        elif kind == "segment":
            p, q = np.asarray(data[0]), np.asarray(data[1])
            v = q - p
            L2 = float(v @ v)
            t = np.clip(((X - p) @ v) / L2, 0.0, 1.0) if L2 > 0 else np.zeros(len(X))
            d = np.linalg.norm(X - (p + t[:, None] * v), axis=1)
        elif kind == "ray":
            a, u = np.asarray(data[0]), np.asarray(data[1])
            t = np.maximum((X - a) @ u, 0.0)
            d = np.linalg.norm(X - (a + t[:, None] * u), axis=1)
        else:
            raise UnsupportedPair(f"cannot batch-evaluate distance to {kind!r}")
        best = np.minimum(best, d)
    return best


def _grid_k(n: int, node_cap: int) -> int:
    """The largest even k whose grid of (k+1)^n nodes fits in node_cap
    (even keeps the center on the grid)."""
    if 3 ** n > node_cap:
        raise Indeterminate(
            f"node_cap={node_cap} is below the 3^{n} nodes of the coarsest grid in R^{n}")
    k = 2 * max(1, int((node_cap ** (1.0 / n) - 1.0) / 2.0))
    while (k + 3) ** n <= node_cap:
        k += 2
    while (k + 1) ** n > node_cap:
        k -= 2
    return k


def _sup_gap_grid(space, A, B, radius, tol, node_cap) -> CertifiedValue:
    n = space.dim
    center = np.asarray(space.canon_point(space.base_point))
    # covering radius h = spacing * sqrt(n)/2 inflates the upper bound
    # by 2h; aim for 2h <= tol/2 within the node budget
    want = max(tol / 4.0, 1e-9) / math.sqrt(n)
    k = max(2, math.ceil(2.0 * radius / want))
    k = min(k + k % 2, _grid_k(n, node_cap))
    axes = [np.linspace(c - radius, c + radius, k + 1) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    spacing = 2.0 * radius / k
    h = spacing * math.sqrt(n) / 2.0
    rad = np.linalg.norm(X - center, axis=1)
    near = rad <= radius + h
    X, rad = X[near], rad[near]
    delta = np.abs(_batch_dist(X, A) - _batch_dist(X, B))
    inside = rad <= radius
    di = delta[inside]
    i_best = int(np.argmax(di))
    lo = float(di[i_best])
    hi = float(delta.max()) + 2.0 * h
    wit = tuple(float(v) for v in X[inside][i_best])
    return CertifiedValue.interval(lo, max(lo, hi), f"grid(h={h:.3g})", wit)


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
    slack = A.slack + B.slack
    space = A.space
    try:
        dh = hausdorff(A, B).hi
    except UnsupportedPair:
        dh = INF
    if space.kind == FINITE or space.is_one_dimensional:
        cv = _aw_exact(space, A, B)
    else:
        cv = _aw_certified(space, A, B, dh, tol, node_cap)
    cv = _widen(cv, slack)
    if not cv.is_infinite and cv.hi > 1.0:
        cv = CertifiedValue(min(cv.lo, 1.0), ext(1.0), cv.method, cv.witness)
    # the windowed distance never exceeds the full two-sided distance, so a
    # finite hausdorff certificate tightens the upper end (kills the odd
    # last-ulp overshoot from sup evaluation at interior candidates)
    if not dh.is_inf and dh < cv.hi:
        cv = CertifiedValue(min(cv.lo, dh.as_float()), dh, cv.method, cv.witness)
    return cv


def _aw_exact(space, A, B) -> CertifiedValue:
    g, j_sat, g_inf = _window_gap_family(space, A, B)
    g_sat = g(j_sat)
    if g_sat == 0.0:
        # windows saturated while still agreeing everywhere
        v = 0.0 if g_inf == 0.0 else min(g_inf, 1.0 / (j_sat + 1))
        return CertifiedValue.point(v, "exact-1d")
    # g is nondecreasing and 1/j decreasing, so the terms min(1/j, g(j))
    # equal g(j) up to the first window J with g(J) >= 1/J and are below
    # 1/J after it: the supremum is max(g(J-1), 1/J).  Where g is flat,
    # rounding at the window edges can make the float g(j) dip by a few
    # ulps of the radius, so g(J-1) can sit that far below an earlier g(j).
    hi_j = j_sat
    if g_sat < 1.0 / j_sat:
        if g_inf is not None:
            # no crossing before saturation: the last window and the limit decide
            return CertifiedValue.point(max(g_sat, min(1.0 / (j_sat + 1), g_inf)),
                                        "exact-1d")
        while g(hi_j) < 1.0 / hi_j:
            hi_j *= 2  # one side escapes: the gap grows like the window
    lo_j = 1
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
    if space.kind == FINITE:
        row0 = space.matrix[space.base_point]
        apts, bpts = A.rep.points, B.rep.points
        pairs = sorted(
            (row0[x], abs(min(space.matrix[x][a] for a in apts)
                          - min(space.matrix[x][b] for b in bpts)))
            for x in range(space.size)
        )
        radii = [r for r, _ in pairs]
        prefix = list(itertools.accumulate((v for _, v in pairs), max))

        def g(j):
            i = bisect_left(radii, float(j))  # open window: strict
            return prefix[i - 1] if i else 0.0

        j_sat = int(math.floor(radii[-1])) + 1
        return g, j_sat, prefix[-1]

    na, nb = A.normal_form, B.normal_form
    x0 = _coord(space.canon_point(space.base_point))
    cands = np.array(list(_breakpoints(set(), na, nb)))

    def delta(x):
        return abs(na.dist(x) - nb.dist(x))

    r = np.abs(cands - x0)
    d = np.abs(na.dists(cands) - nb.dists(cands))
    order = np.argsort(r)  # within a tie in r only the group's max is read
    radii = r[order].tolist()
    prefix = np.maximum.accumulate(d[order]).tolist() or [0.0]
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


def _aw_certified(space, A, B, hb: ExtReal, tol, node_cap) -> CertifiedValue:
    """hb: an upper bound on the Hausdorff distance (INF when unknown)."""
    if hb <= tol:
        return CertifiedValue.interval(0.0, min(1.0, hb.as_float()), "h-bound")
    hbf = hb.as_float()
    best_lo = best_hi = 0.0
    worst_h = 0.0
    wit = None
    # window-count budget: past it the certificate is returned at its
    # achieved (recorded) width rather than the requested tol
    j_cap = min(math.ceil(1.0 / tol) + 1, 512)
    j = 1
    while True:
        G = _sup_gap_grid(space, A, B, float(j), tol / 2.0, node_cap)
        worst_h = max(worst_h, G.width / 2.0)
        if min(1.0 / j, G.lo) > best_lo:
            best_lo, wit = min(1.0 / j, G.lo), G.witness
        best_hi = max(best_hi, min(1.0 / j, G.hi.as_float()))
        if G.lo >= 1.0 / j:
            # later windows contribute at most 1/(j+1) < current floor
            return CertifiedValue.interval(best_lo, max(best_hi, best_lo),
                                           f"grid(h={worst_h:.3g})", wit)
        tail = min(1.0 / (j + 1), hbf)
        if tail <= best_lo:
            return CertifiedValue.interval(best_lo, best_hi, f"grid(h={worst_h:.3g})", wit)
        hi_now = max(best_hi, tail)
        if hi_now - best_lo <= tol or j >= j_cap:
            return CertifiedValue.interval(best_lo, hi_now, f"grid(h={worst_h:.3g})", wit)
        j += 1


def aw_less_than(A: ClosedSet, B: ClosedSet, eps: float, *,
                 tol: float = DEFAULT_TOL, node_cap: int = NODE_CAP) -> bool:
    """Decide aw_distance(A, B) < eps without scanning all windows.

    The decision reduces to a single window: with j chosen so that
    1/(j+1) < eps <= 1/j, the distance is below eps exactly when the
    window-j gap is.  Defined for eps in (0, 1) only (aw_distance is
    capped at 1, so compare against it directly for larger thresholds).
    Raises Indeterminate if a grid certificate straddles the threshold.
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
    G = sup_gap_on_ball(A, B, float(j), tol=min(tol, eps / 4.0), node_cap=node_cap)
    if G.hi < eps:
        return True
    if G.lo >= eps:
        return False
    raise Indeterminate(
        f"window-{j} gap certificate [{G.lo}, {G.hi}] straddles eps={eps}"
    )
