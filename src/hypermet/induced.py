"""Maps between ambient spaces and the functions they induce on
closed sets.

A catalog map is one class: its spaces, apply, image,
lipschitz_constant, describe, its preimage analysis and its verdicts on
the two continuity conditions, with the shared fallbacks of _CatalogMap.
Adding a map means that class plus one branch in literals.parse_map.

Its image pushes each exact representation forward to an exact
representation of the closed image (closure taken where the raw image is
not closed, e.g. the far end of a ray under a bounded map).
Representations with no exact finite image raise UnsupportedPair rather
than silently approximating; sampled clouds go through only when the
map has a Lipschitz constant to rescale their resolution.  Affine maps
and the group elements of the actions module share one push-forward,
affine_image.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .errors import UnsupportedPair
from .hypermetrics import (CertifiedValue, aw_distance, hausdorff,
                           hausdorff_lower, hausdorff_upper, require_positive)
from .sets import (BallUnion, BoxUnion, ClosedSet, FinitePoints, IntervalUnion,
                   Ray, SampledCloud, SegmentUnion, _coord, _piece_dists, _piece_fars,
                   _sup_dist, dist_to_set, is_bounded, representative_points)
from .spaces import FINITE, LINE, OPEN_INTERVAL, AmbientSpace, _at_origin

_HALF_PI = math.pi / 2.0
_LINE = AmbientSpace.line()


# ---------------------------------------------------------------------------
# distance ranges (shared by image rules and preimage analysis)


def dist_range(anchor, A: ClosedSet) -> tuple[float, float]:
    """(inf, sup) of d(anchor, y) over A; sup may be math.inf."""
    anchor = A.space.canon_point(anchor)
    return dist_to_set(anchor, A), _sup_dist(anchor, A)


# ---------------------------------------------------------------------------
# the map catalog


class _CatalogMap:
    """What a map answers without a closed form of its own: no preimage
    analysis, no condition verdicts, a Lipschitz or finite-set modulus."""

    def _preimage(self, B: ClosedSet, base, radii) -> PreimageReport:
        return PreimageReport("not-applicable",
                              note=f"no preimage analysis for {self.describe()}")

    def _conditions(self) -> ConditionsReport:
        return ConditionsReport(None, None, None,
                                f"no catalog analysis for {self.describe()}", "")

    def _modulus(self, A: ClosedSet, eps: float) -> ModulusReport:
        L = self.lipschitz_constant()
        if L is not None:
            return ModulusReport("certified", delta=eps if L == 0.0 else eps / L,
                                 note=f"Lipschitz constant {L}")
        if isinstance(A.rep, (FinitePoints, SampledCloud)):
            return _finite_modulus(self, A.rep.points, eps)
        return ModulusReport("inconclusive", note=f"no modulus rule for {self.describe()}")


@dataclass(frozen=True)
class Identity(_CatalogMap):
    space: AmbientSpace

    @property
    def domain(self):
        return self.space

    codomain = domain

    def apply(self, x):
        return self.space.canon_point(x)

    def image(self, A: ClosedSet) -> ClosedSet:
        self.space.require_same(A.space)
        return A

    def lipschitz_constant(self):
        return 1.0

    def describe(self):
        return "identity"

    def _preimage(self, B, base, radii):
        _, dmax = dist_range(base, B)
        return PreimageReport("bounded-within", radius=dmax, note="identity")

    def _conditions(self):
        return ConditionsReport(True, True, True, "isometry", "preimage is the set itself")


@dataclass(frozen=True)
class Affine(_CatalogMap):
    """x -> a*x + b on the line."""

    a: float
    b: float

    domain = codomain = _LINE

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("affine coefficients must be finite")

    def apply(self, x):
        return self.a * self.domain.canon_point(x) + self.b

    def image(self, A: ClosedSet) -> ClosedSet:
        self.domain.require_same(A.space)
        if self.a == 0.0:
            return ClosedSet.points(self.codomain, [self.b])
        return affine_image(_np(((self.a,),)), _np((self.b,)), A, self.codomain)

    def lipschitz_constant(self):
        return abs(self.a)

    def describe(self):
        return f"affine(a={self.a}, b={self.b})"

    def _preimage(self, B, base, radii):
        if self.a == 0.0:
            if dist_to_set(self.b, B) > 0.0:
                return PreimageReport("bounded-within", radius=0.0,
                                      note="constant value outside the target: empty preimage")
            return PreimageReport("not-applicable",
                                  note="constant map: the target meets the image in one point")
        lo, hi = B.normal_form.lo[0], B.normal_form.hi[-1]
        r = max(abs((lo - self.b) / self.a - base), abs((hi - self.b) / self.a - base))
        return PreimageReport("bounded-within", radius=r)

    def _conditions(self):
        if self.a == 0.0:
            return ConditionsReport(True, True, True, "constant",
                                    "single-point image: vacuous")
        return ConditionsReport(True, True, True, f"Lipschitz {abs(self.a)}",
                                "affine rescale of the target")


def _np(mat):
    return np.array(mat, dtype=float)


def _matrix(mat, square=False):
    """A matrix of finite entries as its rows of floats and as a float
    array that cannot be written to; ValueError for anything else (with
    square, for a matrix that is not square)."""
    m = _np(mat)
    if square:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("group elements need a square matrix")
    elif m.ndim != 2 or m.size == 0:
        raise ValueError("need a 2-D matrix")
    rows = m.tolist()
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("matrix entries must be finite")
    m.flags.writeable = False
    return tuple(map(tuple, rows)), m


def _real_space(n: int) -> AmbientSpace:
    """R^n, or the line when n = 1; one shared space per n, AmbientSpace.euclidean(n)'s."""
    return _LINE if n == 1 else _at_origin(n)


def _sigma_max(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _scaled_orthogonal(m) -> Optional[float]:
    """mu when M^T M = mu^2 I (within 1e-12 relative), else None."""
    with np.errstate(over="ignore"):
        g = m.T @ m
    n = g.shape[0]
    mu2 = float(g.trace()) / n  # the mean of the diagonal
    if not sys.float_info.min <= mu2 < math.inf and m.any():
        # the squares under- or overflow: rescale by a power of two, exactly
        e = math.frexp(float(np.abs(m).max()))[1]
        mu = _scaled_orthogonal(np.ldexp(m, -e))
        return None if mu is None else math.ldexp(mu, e)
    # np.allclose of g and mu2 I with rtol=0, read in Python (a small g
    # costs less as a list than through numpy's calls); NaN compares False
    tol = 1e-12 * max(1.0, mu2)
    if all(abs(v - mu2 if i == j else v) <= tol
           for i, row in enumerate(g.tolist()) for j, v in enumerate(row)):
        return math.sqrt(mu2)
    return None


@np.errstate(over="ignore", invalid="ignore")
def _pushed(m, t, pts) -> np.ndarray:
    """The points pts (tuples, floats or rows of an array) under
    x -> m x (+ t), one row each: m is a p x n array and t a length-p
    array, or None for a linear map.  One stacked product,
    (m @ X.reshape(N, n, 1))[:, :, 0]; the maps' apply reads it too, so
    a pushed point is the map's own apply by construction.  An overflow
    comes out inf or nan, quietly: the caller's finiteness check refuses it."""
    y = (m @ np.asarray(pts, dtype=float).reshape(len(pts), m.shape[1], 1))[:, :, 0]
    return y if t is None else y + t


def affine_image(m, t, A: ClosedSet, codomain: AmbientSpace) -> ClosedSet:
    """The closed image of A under x -> m x (+ t), exact per representation.

    All points of a set go through _pushed at once.  A point set, a cloud
    or a ball union pushes its kept array of points or centres
    (ClosedSet.coords); the image of points is ClosedSet.points (or .cloud)
    of the pushed array, which checks it in one vectorised step (a
    non-finite image raises canon_point's ValueError).
    Balls need a scaled-orthogonal m, boxes a signed-permutation-diagonal
    one; on a line codomain (p = 1) segments and boxes become the interval
    between their pushed ends.
    """
    rep = A.rep
    if isinstance(rep, FinitePoints):
        return ClosedSet.points(codomain, _pushed(m, t, A.coords))
    if isinstance(rep, SampledCloud):
        mu = _scaled_orthogonal(m)
        return ClosedSet.cloud(codomain, _pushed(m, t, A.coords),
                               (_sigma_max(m) if mu is None else mu) * rep.resolution)
    on_line = codomain.is_one_dimensional

    def push(pts):
        y = _pushed(m, t, pts).tolist()
        return [v for v, in y] if on_line else [tuple(v) for v in y]

    if isinstance(rep, Ray):
        (a,) = push([rep.anchor])
        # the axis, so that the identity keeps the direction exactly
        u = m @ np.atleast_1d(_np(rep.axis))
        if not u.any():
            return ClosedSet.points(codomain, [a])
        return ClosedSet.ray(codomain, a, tuple(u.tolist()))
    if isinstance(rep, BallUnion):
        mu = _scaled_orthogonal(m)
        if mu is None:
            raise UnsupportedPair("balls stay balls only under scaled-orthogonal maps")
        centres = _pushed(m, t, A.coords).tolist()  # rows, as balls reads them
        return ClosedSet.balls(codomain, [(c, mu * r) for c, (_, r) in zip(centres, rep.balls)])

    # the rest push the two ends of each piece
    if isinstance(rep, IntervalUnion):
        ends = [x for iv in rep.intervals for x in iv]
        if not (on_line or all(map(math.isfinite, ends))):
            raise UnsupportedPair("no exact image for an unbounded interval")
        # an infinite end goes to the infinity the slope sends it to; a
        # zero slope sends the whole line to one point
        slope = float(m[0, 0])
        ys = push([x if math.isfinite(x) else 0.0 for x in ends])
        ys = [y if math.isfinite(x) or slope == 0.0 else math.copysign(math.inf, slope * x)
              for x, y in zip(ends, ys)]
    elif isinstance(rep, SegmentUnion):
        ys = push([p for seg in rep.segments for p in seg])
    else:  # BoxUnion
        if not ((np.count_nonzero(m, axis=0) <= 1).all()
                and (np.count_nonzero(m, axis=1) <= 1).all()):
            raise UnsupportedPair(
                "boxes stay boxes only under signed-permutation-diagonal maps")
        ys = push([p for box in rep.boxes for p in box])
    pairs = list(zip(ys[::2], ys[1::2]))
    if on_line:
        return ClosedSet.intervals(codomain, [tuple(sorted(pq)) for pq in pairs])
    if isinstance(rep, BoxUnion):
        return ClosedSet.boxes(codomain, [(tuple(map(min, p, q)), tuple(map(max, p, q)))
                                          for p, q in pairs])
    return ClosedSet.segments(codomain, pairs)


@dataclass(frozen=True)
class LinearMatrix(_CatalogMap):
    """x -> M x between Euclidean spaces (matrix stored row-major)."""

    matrix: tuple

    def __post_init__(self):
        rows, m = _matrix(self.matrix)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "_m", m)  # the rows as an array, not a field
        object.__setattr__(self, "domain", _real_space(len(rows[0])))  # nor these
        object.__setattr__(self, "codomain", _real_space(len(rows)))

    def apply(self, x):
        y = _pushed(self._m, None, [self.domain.canon_point(x)])[0].tolist()
        return y[0] if len(self.matrix) == 1 else tuple(y)

    def image(self, A: ClosedSet) -> ClosedSet:
        self.domain.require_same(A.space)
        return affine_image(self._m, None, A, self.codomain)

    def sigma_max(self) -> float:
        return _sigma_max(self._m)

    def sigma_min(self) -> float:
        s = np.linalg.svd(self._m, compute_uv=False)
        # a wide matrix has a kernel regardless of its listed singular values
        if self._m.shape[1] > self._m.shape[0]:
            return 0.0
        return float(s[-1])

    def is_injective(self) -> bool:
        smax = self.sigma_max()
        return self.sigma_min() > 1e-12 * max(1.0, smax)

    def kernel_vector(self):
        _, _, vt = np.linalg.svd(self._m)
        v = vt[-1]
        return tuple(float(x) for x in v)

    def lipschitz_constant(self):
        return self.sigma_max()

    def describe(self):
        return f"linear({self.matrix})"

    def _preimage(self, B, base, radii):
        if self.is_injective():
            _, dmax = dist_range(self.codomain.base_point, B)
            return PreimageReport("bounded-within", radius=dmax / self.sigma_min(),
                                  note=f"injective, sigma_min={self.sigma_min():.6g}")
        v = self.kernel_vector()
        m = self._m
        anchor = None
        for y in representative_points(B, 16):
            yv = np.atleast_1d(_np(y))
            x_hat, _, _, _ = np.linalg.lstsq(m, yv, rcond=None)
            if float(np.linalg.norm(m @ x_hat - yv)) <= 1e-9 * (1.0 + float(np.linalg.norm(yv))):
                anchor = x_hat
                break
        if anchor is None:
            return PreimageReport("not-applicable",
                                  note="sampled search found no point of the target in the image")
        wit = tuple(tuple(float(c) for c in anchor + r * _np(v)) for r in radii)
        return PreimageReport("escape-evidence", witnesses=wit,
                              note="kernel direction keeps the image fixed")

    def _conditions(self):
        inj = self.is_injective()
        note2 = (f"injective, sigma_min={self.sigma_min():.6g}" if inj
                 else "kernel direction escapes")
        return ConditionsReport(True, inj, inj, f"Lipschitz {self.sigma_max():.6g}", note2,
                                cond2_witness=None if inj else self.kernel_vector())


@dataclass(frozen=True)
class SinReciprocal(_CatalogMap):
    """x -> sin(1/x) on the open interval (0, 1)."""

    domain = AmbientSpace.open_interval(0.0, 1.0)
    codomain = _LINE

    def apply(self, x):
        return math.sin(1.0 / self.domain.canon_point(x))

    @staticmethod
    def _interval_image(a: float, b: float):
        # image of sin over the reciprocal range [1/b, 1/a]; extrema are
        # exactly +-1 whenever a crest/trough argument falls inside
        u1, u2 = 1.0 / b, 1.0 / a
        if u2 - u1 >= 2.0 * math.pi:
            return (-1.0, 1.0)
        vals = [math.sin(u1), math.sin(u2)]
        crest = _HALF_PI + 2.0 * math.pi * math.ceil((u1 - _HALF_PI) / (2.0 * math.pi))
        trough = 3.0 * _HALF_PI + 2.0 * math.pi * math.ceil(
            (u1 - 3.0 * _HALF_PI) / (2.0 * math.pi))
        hi = 1.0 if u1 <= crest <= u2 else max(vals)
        lo = -1.0 if u1 <= trough <= u2 else min(vals)
        return (lo, hi)

    def image(self, A: ClosedSet) -> ClosedSet:
        self.domain.require_same(A.space)
        space, rep = self.codomain, A.rep
        if isinstance(rep, FinitePoints):
            return ClosedSet.points(space, [self.apply(p) for p in rep.points])
        if isinstance(rep, IntervalUnion):
            return ClosedSet.intervals(
                space, [self._interval_image(lo, hi) for lo, hi in rep.intervals])
        raise UnsupportedPair(
            f"sin-reciprocal image of {type(rep).__name__} (no uniform modulus to widen by)")

    def lipschitz_constant(self):
        return None  # derivative blows up at 0

    def oscillation_pair(self, k: int):
        """Points of (0,1) a crest and a trough apart, distance O(1/k^2)."""
        return (1.0 / (_HALF_PI + 2.0 * math.pi * k),
                1.0 / (3.0 * _HALF_PI + 2.0 * math.pi * k))

    def _oscillation_pair_in(self, intervals):
        best = None
        for lo, hi in intervals:
            # deepest crest/trough pair inside [lo, hi]: largest k keeps both in
            k_hi = math.floor((1.0 / lo - 3.0 * _HALF_PI) / (2.0 * math.pi))
            k_lo = math.ceil((1.0 / hi - _HALF_PI) / (2.0 * math.pi))
            if k_hi < max(k_lo, 0):
                continue
            pair = self.oscillation_pair(k_hi)
            if best is None or abs(pair[0] - pair[1]) < abs(best[0] - best[1]):
                best = pair
        return best

    def describe(self):
        return "sin-reciprocal"

    def _preimage(self, B, base, radii):
        a, b = self.domain.bounds
        r = max(base - a, b - base)
        return PreimageReport("bounded-within", radius=r, note="bounded domain")

    def _modulus(self, A, eps):
        rep = A.rep
        if isinstance(rep, IntervalUnion):
            a = min(lo for lo, _ in rep.intervals)
            pair = self._oscillation_pair_in(rep.intervals)
            if pair is not None and eps <= 2.0:
                return ModulusReport("counterexample", pair=pair,
                                     gap=abs(self.apply(pair[0]) - self.apply(pair[1])),
                                     note="full oscillations persist at every scale near 0")
            # away from 0 the derivative is bounded by 1/a^2
            return ModulusReport("certified", delta=eps * a * a,
                                 note=f"derivative bound 1/a^2 with a={a}")
        if isinstance(rep, FinitePoints):
            return _finite_modulus(self, rep.points, eps)
        raise UnsupportedPair(f"no modulus analysis for {type(rep).__name__}")

    def _conditions(self):
        pair = self.oscillation_pair(100)
        return ConditionsReport(False, True, False,
                                "oscillation near 0 defeats every modulus",
                                "the whole domain is bounded",
                                cond1_witness=pair)


@dataclass(frozen=True)
class ArctanOfDistance(_CatalogMap):
    """x -> arctan(d(anchor, x)); 1-Lipschitz into the line."""

    space: AmbientSpace
    anchor: object = None

    def __post_init__(self):
        a = self.space.base_point if self.anchor is None else self.space.canon_point(self.anchor)
        object.__setattr__(self, "anchor", a)

    @property
    def domain(self):
        return self.space

    codomain = _LINE

    def apply(self, x):
        # the distance reads x through self.space.canon_point
        return math.atan(self.space.distance(self.anchor, x))

    def image(self, A: ClosedSet) -> ClosedSet:
        self.space.require_same(A.space)
        out_space, rep = self.codomain, A.rep
        if isinstance(rep, (FinitePoints, SampledCloud)):  # every set of a finite space
            pts = [self.apply(p) for p in rep.points]
            if isinstance(rep, SampledCloud):
                return ClosedSet.cloud(out_space, pts, rep.resolution)
            return ClosedSet.points(out_space, pts)
        if self.space.is_one_dimensional:
            x = _coord(self.anchor)
            ranges = [(max(lo - x, x - hi, 0.0), max(x - lo, hi - x))
                      for lo, hi in A.normal_form.intervals]
        else:
            ranges = zip(_piece_dists(self.anchor, A), _piece_fars(self.anchor, A))
        # the closed image: arctan never attains pi/2, the closure does
        return ClosedSet.intervals(out_space, [
            (math.atan(dmin), _HALF_PI if math.isinf(dmax) else math.atan(dmax))
            for dmin, dmax in ranges])

    def lipschitz_constant(self):
        return 1.0

    def describe(self):
        return f"arctan-distance(anchor={self.anchor})"

    def _preimage(self, B, base, radii):
        space = self.space
        if space.kind == FINITE:
            row = space.matrix[space.base_point]
            return PreimageReport("bounded-within", radius=max(row), note="finite domain")
        if space.kind == OPEN_INTERVAL:
            a, b = space.bounds
            return PreimageReport("bounded-within", radius=max(base - a, b - base),
                                  note="bounded domain")
        escape_lo = None
        reach_hi = 0.0
        for lo, hi in B.normal_form.intervals:
            if lo >= _HALF_PI:
                continue  # arctan of a distance never gets this high
            if hi >= _HALF_PI:
                escape_lo = lo if escape_lo is None else min(escape_lo, lo)
            else:
                reach_hi = max(reach_hi, math.tan(max(hi, 0.0)))
        if escape_lo is not None:
            wit = []
            shift = math.tan((max(escape_lo, 0.0) + _HALF_PI) / 2.0)
            for r in radii:
                d = r if math.atan(r) > escape_lo else shift + r
                if space.kind == LINE:
                    wit.append(self.anchor + d)
                else:
                    wit.append(tuple(c + (d if i == 0 else 0.0)
                                     for i, c in enumerate(self.anchor)))
            return PreimageReport("escape-evidence", witnesses=tuple(wit),
                                  note="the target reaches the arctan ceiling from below")
        r = reach_hi + space.distance(base, self.anchor)
        return PreimageReport("bounded-within", radius=r)

    def _conditions(self):
        if self.space.kind in (OPEN_INTERVAL, FINITE):
            return ConditionsReport(True, True, True, "1-Lipschitz", "bounded domain")
        wit = ClosedSet.intervals(self.codomain, [(0.0, 1.6)])
        return ConditionsReport(True, False, False, "1-Lipschitz",
                                "targets reaching the arctan ceiling pull back unbounded",
                                cond2_witness=wit)


@dataclass(frozen=True)
class PiecewiseMonotone1D(_CatalogMap):
    """Piecewise-linear map on the line: values at knots, linear between,
    straight tails with the given slopes beyond the first and last knot."""

    knots: tuple
    values: tuple
    left_slope: float = 0.0
    right_slope: float = 0.0

    domain = codomain = _LINE

    def __post_init__(self):
        ks = tuple(float(k) for k in self.knots)
        vs = tuple(float(v) for v in self.values)
        if len(ks) != len(vs) or not ks:
            raise ValueError("need equally many knots and values, at least one")
        slopes = (float(self.left_slope), float(self.right_slope))
        if not all(map(math.isfinite, ks + vs + slopes)):
            raise ValueError("knots, values and slopes must be finite")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "values", vs)
        object.__setattr__(self, "left_slope", slopes[0])
        object.__setattr__(self, "right_slope", slopes[1])

    def apply(self, x):
        x = self.domain.canon_point(x)
        ks, vs = self.knots, self.values
        if x <= ks[0]:
            return vs[0] + self.left_slope * (x - ks[0])
        if x >= ks[-1]:
            return vs[-1] + self.right_slope * (x - ks[-1])
        i = bisect_right(ks, x) - 1
        t = (x - ks[i]) / (ks[i + 1] - ks[i])
        return vs[i] + t * (vs[i + 1] - vs[i])

    def _interval_image(self, lo: float, hi: float):
        vals = []
        if math.isinf(lo):
            if self.left_slope == 0.0:
                vals.append(self.values[0])
            else:
                vals.append(math.inf if self.left_slope < 0 else -math.inf)
            lo = self.knots[0]
        if math.isinf(hi):
            if self.right_slope == 0.0:
                vals.append(self.values[-1])
            else:
                vals.append(math.inf if self.right_slope > 0 else -math.inf)
            hi = self.knots[-1]
        if lo <= hi:
            vals.extend((self.apply(lo), self.apply(hi)))
            vals.extend(v for k, v in zip(self.knots, self.values) if lo < k < hi)
        else:  # one tail holds the interval: its finite end is past the cut knot
            vals.append(self.apply(hi if hi < self.knots[0] else lo))
        return (min(vals), max(vals))

    def image(self, A: ClosedSet) -> ClosedSet:
        self.domain.require_same(A.space)
        space, rep = self.codomain, A.rep
        if isinstance(rep, (FinitePoints, SampledCloud)):
            pts = [self.apply(p) for p in rep.points]
            if isinstance(rep, SampledCloud):
                return ClosedSet.cloud(space, pts,
                                       self.lipschitz_constant() * rep.resolution)
            return ClosedSet.points(space, pts)
        return ClosedSet.intervals(
            space, [self._interval_image(lo, hi) for lo, hi in A.normal_form.intervals])

    def lipschitz_constant(self):
        slopes = [abs(self.left_slope), abs(self.right_slope)]
        slopes.extend(abs((v2 - v1) / (k2 - k1)) for (k1, v1), (k2, v2)
                      in zip(zip(self.knots, self.values),
                             zip(self.knots[1:], self.values[1:])))
        return max(slopes)

    def describe(self):
        return f"piecewise(knots={self.knots})"

    def _preimage(self, B, base, radii):
        wit_right = self.right_slope == 0.0 and dist_to_set(self.values[-1], B) == 0.0
        wit_left = self.left_slope == 0.0 and dist_to_set(self.values[0], B) == 0.0
        if wit_right or wit_left:
            k = self.knots[-1] if wit_right else self.knots[0]
            sgn = 1.0 if wit_right else -1.0
            return PreimageReport(
                "escape-evidence",
                witnesses=tuple(k + sgn * r for r in radii),
                note="a flat tail sits at a value inside the target")
        lo, hi = B.normal_form.lo[0], B.normal_form.hi[-1]
        cands = [abs(self.knots[0] - base), abs(self.knots[-1] - base)]
        if self.right_slope != 0.0:
            k, v = self.knots[-1], self.values[-1]
            cands.append(max(k, k + max((lo - v) / self.right_slope,
                                        (hi - v) / self.right_slope)) - base)
        if self.left_slope != 0.0:
            k, v = self.knots[0], self.values[0]
            cands.append(base - min(k, k + min((lo - v) / self.left_slope,
                                               (hi - v) / self.left_slope)))
        return PreimageReport("bounded-within", radius=max(cands))

    def _conditions(self):
        ok = self.left_slope != 0.0 and self.right_slope != 0.0
        note2 = ("both tails escape to infinity" if ok
                 else "a flat tail keeps an unbounded preimage available")
        wit = None if ok else (self.values[0] if self.left_slope == 0.0 else self.values[-1])
        return ConditionsReport(True, ok, ok, f"Lipschitz {self.lipschitz_constant():.6g}",
                                note2, cond2_witness=wit)


@dataclass(frozen=True)
class Composed(_CatalogMap):
    outer: object
    inner: object

    def __post_init__(self):
        self.outer.domain.require_same(self.inner.codomain, "composition")
        object.__setattr__(self, "domain", self.inner.domain)  # not fields
        object.__setattr__(self, "codomain", self.outer.codomain)

    def apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def image(self, A: ClosedSet) -> ClosedSet:
        return self.outer.image(self.inner.image(A))

    def lipschitz_constant(self):
        a = self.outer.lipschitz_constant()
        b = self.inner.lipschitz_constant()
        return None if a is None or b is None else a * b

    def describe(self):
        return f"{self.outer.describe()} . {self.inner.describe()}"


# ---------------------------------------------------------------------------
# the induced function on closed sets


def induced_image(f, A: ClosedSet) -> ClosedSet:
    """The closed image of A under f (closure of the pointwise image)."""
    f.domain.require_same(A.space, "map domain")
    return f.image(A)


# ---------------------------------------------------------------------------
# preimage boundedness


@dataclass(frozen=True)
class PreimageReport:
    verdict: str                       # bounded-within | escape-evidence | not-applicable
    radius: Optional[float] = None     # verdict bounded-within: d(base, x) <= radius
    witnesses: tuple = ()              # verdict escape-evidence: points at the radii
    note: str = ""


def check_preimage_boundedness(f, B: ClosedSet, radii=(10.0, 100.0, 1000.0)) -> PreimageReport:
    """Is the preimage of the bounded target B a bounded set?

    Each catalog map answers with its own closed form.  Escape evidence
    is a list of preimage points at the scheduled distances from the base
    point; a bounded verdict carries a certified radius.  Targets meeting
    the image in at most one point get the not-applicable verdict: a
    single fiber says nothing about the boundedness condition the
    induced-map analysis needs.
    """
    f.codomain.require_same(B.space, "preimage target")
    if not is_bounded(B):
        raise ValueError("the target of the boundedness check must be bounded")
    return f._preimage(B, f.domain.base_point, radii)


# ---------------------------------------------------------------------------
# uniform continuity


@dataclass(frozen=True)
class ModulusReport:
    verdict: str                       # certified | counterexample | inconclusive
    delta: Optional[float] = None
    pair: Optional[tuple] = None       # counterexample points
    gap: Optional[float] = None        # |f(x) - f(y)| at the pair
    note: str = ""


def estimate_uniform_modulus(f, A: ClosedSet, eps: float) -> ModulusReport:
    """A certified delta for eps on A, or a concrete counterexample pair."""
    f.domain.require_same(A.space, "modulus domain")
    eps = float(eps)
    require_positive("eps", eps)
    return f._modulus(A, eps)


def _finite_modulus(f, pts, eps: float) -> ModulusReport:
    """On a finite set a modulus always exists: half the closest pair of
    pts whose images lie eps or more apart.  f is applied once per point;
    the pair distances are one array, |p - q| on the line and an open
    interval, the matrix on a finite space, elsewhere space.distance."""
    space = f.domain
    y = np.array([f.apply(p) for p in pts], dtype=float)
    i, j = np.tril_indices(len(pts), -1)
    if space.kind == FINITE:
        k = np.asarray(pts, dtype=np.intp)
        d = space.dist_matrix[k[i], k[j]]
    elif space.kind in (LINE, OPEN_INTERVAL):
        x = np.asarray(pts, dtype=float)
        d = np.abs(x[i] - x[j])
    else:
        d = np.array([space.distance(pts[a], pts[b]) for a, b in zip(i.tolist(), j.tolist())])
    worst = float(d[np.abs(y[i] - y[j]) >= eps].min(initial=math.inf))
    if math.isinf(worst):
        return ModulusReport("certified", delta=max(float(d.max(initial=0.0)), 1.0),
                             note="no pair separates by eps")
    return ModulusReport("certified", delta=worst / 2.0,
                         note="half the closest eps-separated pair distance")


# ---------------------------------------------------------------------------
# the moving-point witness family


@dataclass(frozen=True)
class WitnessRecord:
    m: int
    pair_distance: float
    set_distance: CertifiedValue       # between the base family and its m-th variant
    image_distance: CertifiedValue     # between the induced images
    bound_ok: bool                     # set_distance.hi <= pair_distance
    separated: bool                    # image_distance.lo > set_distance.hi


def uniform_continuity_witness(f, pairs, m: int) -> WitnessRecord:
    """Swap the m-th member of a point family for its close partner and
    measure both hyperspace distances.

    pairs: [(a_1, x_1), ..., (a_M, x_M)] with d(a_n, x_n) < 1/n.  The
    base set B collects the x_n; the variant C_m replaces x_m by a_m.
    For a map that is not uniformly continuous the set distance shrinks
    like the pair distance while the image distance stays separated.
    """
    pairs = [(f.domain.canon_point(a), f.domain.canon_point(x)) for a, x in pairs]
    if not 1 <= m <= len(pairs):
        raise ValueError("m out of range")
    for n, (a, x) in enumerate(pairs, start=1):
        d = f.domain.distance(a, x)
        if not d < 1.0 / n:
            raise ValueError(f"pair {n} is {d} apart, needs < 1/{n}")
    a_m, x_m = pairs[m - 1]
    B = ClosedSet.points(f.domain, [x for _, x in pairs])
    C = ClosedSet.points(f.domain, [a_m if x == x_m else x for _, x in pairs])
    d_pair = f.domain.distance(a_m, x_m)
    d_sets = aw_distance(B, C)
    d_images = aw_distance(induced_image(f, B), induced_image(f, C))
    return WitnessRecord(
        m=m,
        pair_distance=d_pair,
        set_distance=d_sets,
        image_distance=d_images,
        bound_ok=d_sets.hi <= d_pair,
        separated=d_images.lo > (0.0 if d_sets.hi == math.inf else d_sets.hi),
    )


# ---------------------------------------------------------------------------
# the two continuity conditions


@dataclass(frozen=True)
class ConditionsReport:
    cond1: Optional[bool]              # uniformly continuous on bounded sets
    cond2: Optional[bool]              # bounded targets pull back to bounded sets
    overall: Optional[bool]
    cond1_note: str = ""
    cond2_note: str = ""
    cond1_witness: Optional[tuple] = None
    cond2_witness: Optional[object] = None


def aw_continuity_conditions(f) -> ConditionsReport:
    """Catalog verdicts for the two conditions that together make the
    induced function continuous for the bounded-window metric."""
    return f._conditions()


# ---------------------------------------------------------------------------
# empirical continuity probes


_METRICS = {
    "H": hausdorff,
    "H-": hausdorff_lower,
    "H+": hausdorff_upper,
    "AW": aw_distance,
}


def metric_by_name(name: str):
    try:
        return _METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; pick one of {sorted(_METRICS)}")


@dataclass(frozen=True)
class ProbeRow:
    label: str
    d_in: CertifiedValue
    d_out: CertifiedValue


@dataclass(frozen=True)
class ProbeReport:
    map_name: str
    metric: str
    eps: float
    delta_schedule: tuple
    rows: tuple
    violation: bool                    # an eps-jump under every delta

    def __bool__(self):
        return not self.violation


def _check_thresholds(eps, delta_schedule):
    """A NaN threshold would make every comparison False, and so no
    violation; refuse it, and any infinite or nonpositive one."""
    require_positive("eps", eps)
    if not len(delta_schedule):
        raise ValueError("the delta schedule is empty")
    for delta in delta_schedule:
        require_positive("delta", delta)


def probe_induced_continuity(f, A: ClosedSet, metric: str, perturbations,
                             delta_schedule=(1.0, 0.1, 0.01), eps: float = 0.1,
                             **metric_kwargs) -> ProbeReport:
    """Measure in/out hyperspace distances from A to each perturbation.

    A violation needs, under every delta of the schedule, a perturbation
    within delta whose image sits more than eps away — certified on both
    sides (d_in.hi below the delta, d_out.lo above eps), so a reported
    violation is a proof, not noise.  eps and every delta must be finite
    and > 0.
    """
    _check_thresholds(eps, delta_schedule)
    dist = metric_by_name(metric)
    fA = induced_image(f, A)
    rows = []
    for i, B in enumerate(perturbations):
        d_in = dist(A, B, **metric_kwargs)
        d_out = dist(fA, induced_image(f, B), **metric_kwargs)
        rows.append(ProbeRow(f"perturbation-{i + 1}", d_in, d_out))
    violation = all(
        any(r.d_in.hi < delta and r.d_out.lo > eps for r in rows)
        for delta in delta_schedule
    )
    return ProbeReport(f.describe(), metric, float(eps), tuple(delta_schedule),
                       tuple(rows), violation)
