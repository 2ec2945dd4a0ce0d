"""One rule per convex-piece question, against the per-kind code it replaced.

affine_sup_norm reads the pushed vertex table, truncate keeps, drops or
cuts each piece by the shared distance tables, the n-D
distances read the kernel's least row, farthest distances read the
kernel's norm over the vertex table, a 1-D cover reads the components of
the open union, the maps' apply reads the push-forward's stacked
product, and a 1-D set's normal form is the IntervalUnion that
ClosedSet.normal_form builds.  The references below are the per-kind
walks, the scalar farthest point, the greedy cover sweep, the
hand-specialised distance pass and the separate normal-form class read
from 1-D components (RefNormalForm1D, ref_components) those replaced.
Every answer must match them bit for bit (compared by repr, so the sign
of a zero counts), refusals and ties included.
"""

import math
from bisect import bisect_right
from functools import cached_property

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypermet.actions import GroupElement, affine_sup_norm
from hypermet.errors import UnsupportedPair
from hypermet.geom import _sumsq
from hypermet.hitmiss import OpenSetRep, subset_of
from hypermet.hypermetrics import CertifiedValue
from hypermet.induced import LinearMatrix, _scaled_orthogonal, _sigma_max
from hypermet.sets import (BallUnion, BoxUnion, ClosedSet, FinitePoints, IntervalUnion,
                           SampledCloud, SegmentUnion, _box_corners, _chunks, _coord,
                           _merge_intervals, _offsets, _piece_dists, _piece_fars, dists_to_set,
                           truncate)
from hypermet.spaces import AmbientSpace

LINE = AmbientSpace.line()
E1, E2, E3 = (AmbientSpace.euclidean(n) for n in (1, 2, 3))
OPEN = AmbientSpace.open_interval(-2.0e4, 2.0e4, 0.0)


# ---------------------------------------------------------------------------
# references: the per-kind code as it stood before the shared rules


def _ref_norm(v):
    """The documented guarded norm of one vector: the square root of the
    left-to-right sum of squares, or, where a step of it under- or
    overflows, the same over v scaled by a power of two, scaled back."""
    return float(_ref_guarded(lambda norm_of: norm_of(np.array(v, dtype=float).reshape(-1, 1)))[0])


def _ref_norm_at(D, c, x):
    vec = x if isinstance(x, tuple) else (x,)
    return _ref_norm(D @ np.array(vec, dtype=float) + c)


def _ref_directions(n):
    if n == 1:
        return [(1.0,), (-1.0,)]
    if n == 2:
        return [(math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64))
                for k in range(64)]
    rng = np.random.RandomState(12345)
    vs = rng.standard_normal((64, n))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return [tuple(float(c) for c in v) for v in vs]


class RefNormalForm1D:
    """The 1-D normal form as a class of its own: a set's sorted, disjoint
    intervals kept as two lists, numpy copies made on first use."""

    def __init__(self, lo: list[float], hi: list[float]):
        self.lo, self.hi = lo, hi

    @property
    def intervals(self):
        return zip(self.lo, self.hi)

    @property
    def midpoints(self) -> list[float]:
        lo, hi = self._arrays
        return (0.5 * (hi[:-1] + lo[1:])).tolist()

    @property
    def finite_ends(self) -> np.ndarray:
        ends = np.concatenate(self._arrays)
        return ends[np.isfinite(ends)]

    @cached_property
    def _arrays(self):
        return np.array(self.lo), np.array(self.hi)

    def dist(self, x: float) -> float:
        lo, hi = self.lo, self.hi
        i = bisect_right(lo, x)
        return min(max(lo[k] - x, x - hi[k], 0.0) for k in (i - 1, i) if 0 <= k < len(lo))

    def dists(self, xs) -> np.ndarray:
        lo, hi = self._arrays
        xs = np.asarray(xs, dtype=float)
        i = np.searchsorted(lo, xs, side="right")
        left, right = np.maximum(i - 1, 0), np.minimum(i, len(lo) - 1)
        return np.minimum(
            np.maximum(np.maximum(lo[left] - xs, xs - hi[left]), 0.0),
            np.maximum(np.maximum(lo[right] - xs, xs - hi[right]), 0.0))


def ref_components(S):
    """ClosedSet.components with its 1-D branches: on a 1-D ambient every
    set as points and intervals (a ray a half-infinite interval)."""
    space, rep = S.space, S.rep
    one_d = space.is_one_dimensional and space.kind != "finite"
    if isinstance(rep, (FinitePoints, SampledCloud)):
        if one_d:
            return [("point", float(p[0] if isinstance(p, tuple) else p)) for p in rep.points]
        return [("point", p) for p in rep.points]
    if isinstance(rep, IntervalUnion):
        return [("interval", iv) for iv in rep.intervals]
    if isinstance(rep, BallUnion):
        if one_d:
            return [("interval", (c[0] - r, c[0] + r)) for c, r in rep.balls]
        return [("ball", b) for b in rep.balls]
    if isinstance(rep, BoxUnion):
        if one_d:
            return [("interval", (lo[0], hi[0])) for lo, hi in rep.boxes]
        return [("box", b) for b in rep.boxes]
    if isinstance(rep, SegmentUnion):
        if one_d:
            return [("interval", (min(p[0], q[0]), max(p[0], q[0]))) for p, q in rep.segments]
        return [("segment", s) for s in rep.segments]
    if one_d:
        a = _coord(rep.anchor)
        return [("interval", (a, math.inf) if _coord(rep.direction) > 0 else (-math.inf, a))]
    return [("ray", (rep.anchor, rep.direction))]


def ref_normal_form(S):
    """ClosedSet.normal_form as it was read from ref_components."""
    rep = S.rep
    if isinstance(rep, (FinitePoints, SampledCloud)):
        xs = [_coord(p) for p in rep.points]
        return RefNormalForm1D(xs, xs)
    ivs = rep.intervals if isinstance(rep, IntervalUnion) else _merge_intervals(
        (data, data) if kind == "point" else data for kind, data in ref_components(S))
    return RefNormalForm1D([a for a, _ in ivs], [b for _, b in ivs])


def ref_affine_sup_norm(D, c, A):
    D = np.array(D, dtype=float)
    c = np.array(c if isinstance(c, (tuple, list, np.ndarray)) else (c,), dtype=float)
    rep = A.rep
    if isinstance(rep, (FinitePoints, SampledCloud)):
        best = max(_ref_norm_at(D, c, p) for p in rep.points)
        if isinstance(rep, SampledCloud):
            return CertifiedValue.interval(best, best + _sigma_max(D) * rep.resolution,
                                           "finite-max+cloud")
        return CertifiedValue.point(best, "finite-max")
    lo = hi = 0.0
    exact = True
    for kind, data in ref_components(A):
        if kind == "point":
            v = _ref_norm_at(D, c, data)
        elif kind == "interval":
            a, b = data
            if math.isinf(a) or math.isinf(b):
                if D.any():
                    return CertifiedValue.infinite("ray-closed-form")
                v = _ref_norm(c)
            else:
                v = max(_ref_norm_at(D, c, a), _ref_norm_at(D, c, b))
        elif kind == "segment":
            v = max(_ref_norm_at(D, c, data[0]), _ref_norm_at(D, c, data[1]))
        elif kind == "box":
            v = max(_ref_norm_at(D, c, p) for p in _box_corners(*data))
        elif kind == "ball":
            center, r = data
            mid = _ref_norm_at(D, c, center)
            mu = _scaled_orthogonal(D)
            if mu is None:
                exact = False
                # both ends moved out by the rounding of the norms and of sigma_max
                slack = 32.0 * (len(center) + 2) * 2.0 ** -53 * (
                    _ref_norm(D) * (_ref_norm(center) + 2.0 * r) + _ref_norm(c))
                lo = max(lo, max(
                    _ref_norm_at(D, c, tuple(ci + r * ui for ci, ui in zip(center, u)))
                    for u in _ref_directions(len(center))) - slack)
                hi = max(hi, mid + _sigma_max(D) * r + slack)
                continue
            v = mid + mu * r
        else:  # ray
            anchor, u = data
            if float(np.linalg.norm(D @ np.array(u, dtype=float))) != 0.0:
                return CertifiedValue.infinite("ray-closed-form")
            v = _ref_norm_at(D, c, anchor)
        lo, hi = max(lo, v), max(hi, v)
    if exact:
        return CertifiedValue.point(lo, "finite-max")
    return CertifiedValue.interval(lo, hi, "sphere-sample")


def ref_far_from_point(x, comp) -> float:
    """sup of d(x, y) over an n-D primitive shape (inf when unbounded)."""
    kind, data = comp
    if kind == "point":
        return math.dist(x, data)
    if kind == "ball":
        c, r = data
        return math.dist(x, c) + r
    if kind == "box":
        lo, hi = data
        far = tuple(h if abs(h - a) >= abs(l - a) else l for l, h, a in zip(lo, hi, x))
        return math.dist(x, far)
    if kind == "segment":
        p, q = data
        return max(math.dist(x, p), math.dist(x, q))
    return math.inf  # ray


def _ref_closed_in_open_union(lo, hi, open_ivs):
    """Closed [lo, hi] inside a union of open intervals: greedy sweep,
    strict at every endpoint."""
    if math.isinf(lo) or math.isinf(hi):
        return False
    cur = lo
    while True:
        nxt = None
        for a, b in open_ivs:
            if a < cur < b and (nxt is None or b > nxt):
                nxt = b
        if nxt is None:
            return False
        if nxt > hi:
            return True
        cur = nxt  # the sweep point itself is not covered by the interval that reached it


def ref_subset_of(A, U):
    """subset_of as it was on a ball union (the complement, cloud and
    finite paths are shared)."""
    space = U.space
    if U.complement_of is not None or A.slack > 0.0 or space.kind == "finite":
        return subset_of(A, U)
    if space.is_one_dimensional:
        ivs = sorted((_coord(c) - r, _coord(c) + r) for c, r in U.balls)
        return all(_ref_closed_in_open_union(lo, hi, ivs) for lo, hi in A.normal_form.intervals)
    for comp in A.components():
        if any(ref_far_from_point(c, comp) < r for c, r in U.balls):
            continue
        if comp[0] in ("point", "ray") or len(U.balls) == 1:
            return False
        raise UnsupportedPair(
            "coverage by several balls is only certified when one ball takes each piece")
    return True


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _ref_clip(p, d, tmax, center, L):
    w = _sub(p, center)
    a = _dot(d, d)
    b = 2.0 * _dot(w, d)
    c = _dot(w, w) - L * L
    if a == 0.0:
        return (0.0, min(tmax, 0.0)) if c <= 0.0 else None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    t1 = max((-b - s) / (2.0 * a), 0.0)
    t2 = min((-b + s) / (2.0 * a), tmax)
    return None if t1 > t2 else (t1, t2)


def ref_truncate(A, L):
    """truncate as it was on n-D sets, deciding each segment or ray by the
    shared tables: kept as given when its farthest distance (_piece_fars)
    is within L, dropped when its nearest (_piece_dists) is not, and
    otherwise clipped by the scalar quadratic, an end at t = 0, or at
    t = 1 on a segment, being the piece's own end.  The point and 1-D
    paths are shared."""
    space, rep, L = A.space, A.rep, float(L)
    x0 = space.canon_point(space.base_point)
    if isinstance(rep, (FinitePoints, SampledCloud)) or space.is_one_dimensional:
        return truncate(A, L)
    if isinstance(rep, BallUnion):
        kept = []
        for c, r in rep.balls:
            d = math.dist(c, x0)
            if d + r <= L:
                kept.append((c, r))
            elif d - r > L:
                continue
            else:
                raise UnsupportedPair(
                    "ball partially overlaps the window; the intersection is not a ball union")
        return ClosedSet(space, BallUnion(tuple(kept))) if kept else None
    if isinstance(rep, BoxUnion):
        kept = []
        for (lo, hi), near in zip(rep.boxes, _piece_dists(x0, A)):
            if ref_far_from_point(x0, ("box", (lo, hi))) <= L:
                kept.append((lo, hi))
            elif near > L:
                continue
            else:
                raise UnsupportedPair(
                    "box partially overlaps the window; the intersection is not a box union")
        return ClosedSet(space, BoxUnion(tuple(kept))) if kept else None
    lines = ([(p, _sub(q, p), 1.0, q) for p, q in rep.segments] if isinstance(rep, SegmentUnion)
             else [(rep.anchor, rep.direction, math.inf, None)])
    kept, whole = [], True
    for (p, d, tmax, q), near, far in zip(lines, _piece_dists(x0, A), _piece_fars(x0, A)):
        if far <= L:
            kept.append((p, q))
            continue
        whole = False
        piece = None if near > L else _ref_clip(p, d, tmax, x0, L)
        if piece is not None:
            kept.append(tuple(p if t == 0.0 else q if t == tmax else
                              tuple(a + t * b for a, b in zip(p, d)) for t in piece))
    if whole:
        return A
    return ClosedSet(space, SegmentUnion(tuple(kept))) if kept else None


def _ref_plain_norm(W, nearest=False):
    sq = _sumsq(W)
    return np.sqrt(sq.min(axis=0) if nearest else sq)


def _ref_scaled_norm(W, nearest=False):
    e = np.frexp(np.abs(W).max(axis=0))[1]
    norm = np.ldexp(np.sqrt(_sumsq(np.ldexp(W, -e))), e)
    return norm.min(axis=0) if nearest else norm


def _ref_guarded(compute):
    try:
        with np.errstate(over="raise", under="raise"):
            return compute(_ref_plain_norm)
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            return compute(_ref_scaled_norm)


def ref_nearest_dists(X, pieces):
    """The least distance per row, taking the least squared norm of the
    pieces other than balls before the square root."""
    Xt = X.T[:, None, :]

    def compute(norm_of):
        best = None
        for kind, _, arrs in pieces.blocks:
            W = _offsets(kind, Xt, arrs)
            d = np.maximum(norm_of(W) - arrs[1], 0.0).min(axis=0) if kind == "ball" else \
                norm_of(W, nearest=True)
            best = d if best is None else np.minimum(best, d)
        return best
    return _ref_guarded(compute)


def ref_dists(X, A):
    pieces = A.array_form
    parts = [ref_nearest_dists(X[sl], pieces)
             for sl in _chunks(len(X), 8 * pieces.m * (A.space.dim + 2))]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def ref_apply(m, t, x):
    vec = x if isinstance(x, tuple) else (x,)
    y = m @ np.array(vec, dtype=float)
    y = tuple(float(v) for v in (y if t is None else y + t))
    return y[0] if len(y) == 1 else y


def outcome(f, *args):
    """repr of f's answer, or its refusal and message."""
    try:
        return repr(f(*args))
    except UnsupportedPair as exc:
        return f"refused: {exc}"


# ---------------------------------------------------------------------------
# strategies: magnitudes over 1e-3..1e4 of both signs, and a small integer
# grid whose sets tie (a piece that just touches the window, equal norms)


spread = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                   st.floats(min_value=-3.0, max_value=4.0))
grid = st.integers(min_value=-6, max_value=6).map(float)
coord = st.one_of(spread, grid)


def points(n, elems):
    return st.tuples(*[elems] * n)


def _axis_or(n, elems):
    """A nonzero direction: a signed axis (which a matrix with a zero
    column kills exactly) or any vector."""
    axis = st.builds(lambda i, s: tuple(s if j == i else 0.0 for j in range(n)),
                     st.integers(0, n - 1), st.sampled_from([-1.0, 1.0]))
    return st.one_of(axis, points(n, elems).filter(any))


@st.composite
def nd_sets(draw, n, elems=coord, kinds=("points", "cloud", "segments", "boxes", "balls", "ray")):
    space = AmbientSpace.euclidean(n, draw(st.one_of(st.none(), points(n, grid))))
    kind = draw(st.sampled_from(kinds))
    pts = st.lists(points(n, elems), min_size=1, max_size=5)
    if kind == "points":
        return ClosedSet.points(space, draw(pts))
    if kind == "cloud":
        return ClosedSet.cloud(space, draw(pts), draw(st.sampled_from([0.0, 0.25, 3.0])))
    if kind == "ray":
        return ClosedSet.ray(space, draw(points(n, elems)), draw(_axis_or(n, elems)))
    pairs = draw(st.lists(st.tuples(points(n, elems), points(n, elems)), min_size=1, max_size=4))
    if kind == "segments":
        return ClosedSet.segments(space, pairs)
    if kind == "boxes":
        # a flat side now and then: a box with fewer than 2^n corners
        return ClosedSet.boxes(space, [(tuple(map(min, p, q)), tuple(map(max, p, q)))
                                       for p, q in pairs])
    return ClosedSet.balls(space, [(p, abs(q[0])) for p, q in pairs])


@st.composite
def line_sets(draw, elems=coord):
    """Point sets, clouds, interval unions with infinite ends and rays on
    the line or E^1, and E^1 balls, boxes and segments, which may overlap."""
    space = draw(st.sampled_from([LINE, E1]))
    wrap = (lambda x: (x,)) if space is E1 else (lambda x: x)
    kind = draw(st.sampled_from(["points", "cloud", "intervals", "ray"]
                                + (["balls", "boxes", "segments"] if space is E1 else [])))
    xs = st.lists(elems, min_size=1, max_size=6)
    if kind == "points":
        return ClosedSet.points(space, [wrap(x) for x in draw(xs)])
    if kind == "cloud":
        return ClosedSet.cloud(space, [wrap(x) for x in draw(xs)], 0.5)
    if kind == "ray":
        return ClosedSet.ray(space, wrap(draw(elems)), wrap(draw(st.sampled_from([-1.0, 1.0]))))
    ends = draw(st.lists(st.tuples(elems, elems), min_size=1, max_size=4))
    if kind == "intervals":
        ivs = [tuple(sorted(e)) for e in ends]
        tails = draw(st.sampled_from([(), (-math.inf,), (math.inf,), (-math.inf, math.inf)]))
        for t in tails:
            ivs.append((t, ivs[0][0]) if t < 0 else (ivs[0][1], t))
        return ClosedSet.intervals(space, ivs)
    if kind == "balls":
        return ClosedSet.balls(space, [((a,), abs(b)) for a, b in ends])
    if kind == "boxes":
        return ClosedSet.boxes(space, [((min(a, b),), (max(a, b),)) for a, b in ends])
    return ClosedSet.segments(space, [((a,), (b,)) for a, b in ends])


@st.composite
def open_interval_sets(draw, elems=spread):
    """Point sets, clouds and interval unions inside an open interval."""
    kind = draw(st.sampled_from(["points", "cloud", "intervals"]))
    xs = draw(st.lists(elems, min_size=1, max_size=6))
    if kind == "points":
        return ClosedSet.points(OPEN, xs)
    if kind == "cloud":
        return ClosedSet.cloud(OPEN, xs, 0.5)
    return ClosedSet.intervals(OPEN, [tuple(sorted(e)) for e in zip(xs, reversed(xs))])


@st.composite
def matrices(draw, n):
    """Scaled-orthogonal (the exact ball rule) and generic (the sampled
    one) differences D, some of which kill an axis or everything."""
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["rotation", "signed-permutation", "generic",
                                 "zero-column", "zero"]))
    mu = draw(st.sampled_from([0.25, 1.0, 3.0]))
    if kind == "rotation":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return mu * q
    if kind == "signed-permutation":
        m = np.zeros((n, n))
        m[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
        return mu * m
    if kind == "zero":
        return np.zeros((n, n))
    m = rng.standard_normal((n, n))
    if kind == "zero-column":
        m[:, rng.randint(n)] = 0.0
    return m


@st.composite
def sup_norm_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    A = draw(line_sets() if n == 1 else nd_sets(n))
    c = np.array(draw(points(n, coord)))
    if n == 1 and draw(st.booleans()):
        c = float(c[0])  # a scalar offset on the line
    return draw(matrices(n)), c, A


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=600, deadline=None)
@given(sup_norm_cases())
@example((np.zeros((1, 1)), 2.0, ClosedSet.intervals(LINE, [(-math.inf, math.inf)])))
@example((np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2),
          ClosedSet.ray(AmbientSpace.euclidean(2), (3.0, 4.0), (0.0, 1.0))))
@example((np.array([[0.3, 0.4], [0.0, 0.0]]), np.zeros(2),
          ClosedSet.balls(AmbientSpace.euclidean(2), [((0.0, 0.0), 1.0), ((5.0, 1.0), 2.0)])))
# a zero column: the samples' lower end sat one ulp above sigma_max's upper end
@example((np.array([[1.988839743156844, 0.0], [1.9233413551049203, 0.0]]), np.zeros(2),
          ClosedSet.balls(AmbientSpace.euclidean(2), [((-1.0, -1.0), 1.0)])))
def test_affine_sup_norm_matches_the_per_kind_walk(case):
    D, c, A = case
    assert outcome(affine_sup_norm, D, c, A) == outcome(ref_affine_sup_norm, D, c, A)



@settings(max_examples=600, deadline=None)
@given(st.one_of(line_sets(), line_sets(grid), open_interval_sets()),
       st.lists(coord, min_size=1, max_size=6))
@example(ClosedSet.points(LINE, [-0.0, 1.0]), [0.5])
@example(ClosedSet.ray(E1, (2.0,), (-1.0,)), [2.0, 3.0])
def test_normal_form_matches_the_component_conversion(A, xs):
    nf, ref = A.normal_form, ref_normal_form(A)
    assert isinstance(nf, IntervalUnion)
    assert repr(nf.intervals) == repr(tuple(ref.intervals))
    assert (repr(nf.lo), repr(nf.hi)) == (repr(ref.lo), repr(ref.hi))
    assert repr(nf.midpoints.tolist()) == repr(ref.midpoints)
    # the window scan's tie order: finite ends interval by interval, then midpoints
    ends = [v for iv in ref.intervals for v in iv if math.isfinite(v)]
    assert repr(nf.candidates.tolist()) == repr(ends + ref.midpoints)
    assert repr(nf.finite_ends.tolist()) == repr(ref.finite_ends.tolist())
    assert repr([nf.dist(x) for x in xs]) == repr([ref.dist(x) for x in xs])
    assert repr(nf.dists(xs).tolist()) == repr(ref.dists(xs).tolist())


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(nd_sets), st.one_of(spread.map(abs), grid.map(abs)))
@example(ClosedSet.balls(E2, [((3.0, 0.0), 1.0), ((0.0, 9.0), 1.0)]), 3.5)  # refused
@example(ClosedSet.boxes(E3, [((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))]), 2.0)    # refused
def test_truncate_matches_the_per_kind_branches(A, L):
    assert outcome(truncate, A, L) == outcome(ref_truncate, A, L)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: nd_sets(n, grid)),
       st.integers(min_value=0, max_value=9).map(float))
@example(ClosedSet.balls(E2, [((3.0, 4.0), 2.0)]), 7.0)   # touches the window from inside
@example(ClosedSet.balls(E2, [((3.0, 4.0), 2.0)]), 3.0)   # touches it from outside
@example(ClosedSet.boxes(E2, [((3.0, 0.0), (4.0, 3.0))]), 5.0)
@example(ClosedSet.boxes(E2, [((3.0, 0.0), (4.0, 3.0))]), 3.0)
@example(ClosedSet.segments(E2, [((3.0, 4.0), (-3.0, 4.0))]), 5.0)
def test_truncate_matches_the_per_kind_branches_on_ties(A, L):
    assert outcome(truncate, A, L) == outcome(ref_truncate, A, L)


def test_solid_pieces_that_straddle_the_window_are_refused_with_the_old_message():
    for A, L, kind in ((ClosedSet.balls(E2, [((3.0, 0.0), 1.0)]), 3.5, "ball"),
                       (ClosedSet.boxes(E2, [((1.0, 1.0), (2.0, 2.0))]), 2.0, "box")):
        assert outcome(truncate, A, L) == (
            f"refused: {kind} partially overlaps the window; "
            f"the intersection is not a {kind} union")


scales = st.sampled_from([1.0, 2.0 ** -1000, 2.0 ** 1000, 1e-160, 1e160])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
           lambda n: st.tuples(nd_sets(n, kinds=("points", "segments", "boxes", "balls", "ray")),
                               st.lists(points(n, coord), min_size=1, max_size=30))),
       scales)
def test_distances_match_the_specialised_nearest_pass(case, scale):
    A, X = case
    X = np.array(X) * scale
    assume(np.isfinite(X).all())
    if scale != 1.0:  # the same set at the same scale, so that the norm is guarded
        A = _scaled_set(A, scale)
        assume(A is not None)
    got, ref = dists_to_set(X, A), ref_dists(X, A)
    assert got.tobytes() == ref.tobytes()


def _scaled_set(A, s):
    """A with every coordinate and radius multiplied by s, or None when a
    coordinate leaves the floats."""
    rep, sc = A.rep, (lambda p: tuple(v * s for v in p))
    try:
        if isinstance(rep, FinitePoints):
            return ClosedSet.points(A.space, [sc(p) for p in rep.points])
        if isinstance(rep, SegmentUnion):
            return ClosedSet.segments(A.space, [(sc(p), sc(q)) for p, q in rep.segments])
        if isinstance(rep, BoxUnion):
            return ClosedSet.boxes(A.space, [(sc(p), sc(q)) for p, q in rep.boxes])
        if isinstance(rep, BallUnion):
            return ClosedSet.balls(A.space, [(sc(c), r * s) for c, r in rep.balls])
        return ClosedSet.ray(A.space, sc(rep.anchor), rep.direction)
    except ValueError:
        return None


def test_many_rows_match_the_specialised_pass_across_chunks():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        space = AmbientSpace.euclidean(n)
        A = ClosedSet.segments(space, [tuple(map(tuple, rng.normal(size=(2, n)))) for _ in range(60)])
        X = rng.normal(scale=3.0, size=(2000, n))
        assert dists_to_set(X, A).tobytes() == ref_dists(X, A).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.lists(coord, min_size=3, max_size=3))
def test_apply_matches_the_per_point_product(p, n, seed, xs):
    rng = np.random.RandomState(seed)
    m = rng.standard_normal((p, n)) * 10.0 ** rng.randint(-3, 4)
    x = tuple(xs[:n]) if n > 1 else xs[0]
    f = LinearMatrix(tuple(map(tuple, m)))
    assert repr(f.apply(x)) == repr(ref_apply(m, None, x))
    if p == n:
        t = rng.standard_normal(n)
        g = GroupElement(tuple(map(tuple, m)), tuple(t))
        assert repr(g.apply(x)) == repr(ref_apply(m, t, x))


@st.composite
def cover_cases(draw):
    """A set on the grid and a union of one to four open balls with grid
    centres and half-integer radii: pieces often sit exactly on a sphere,
    and intervals often only touch."""
    n = draw(st.sampled_from([1, 2, 3]))
    A = draw(line_sets(grid) if n == 1 else nd_sets(n, grid))
    centre = grid if A.space.kind == "line" else points(A.space.dim, grid)
    radius = st.integers(1, 12).map(lambda i: i / 2.0)
    return A, OpenSetRep.ball_union(A.space, draw(st.lists(st.tuples(centre, radius),
                                                           min_size=1, max_size=4)))


@settings(max_examples=600, deadline=None)
@given(cover_cases())
@example((ClosedSet.points(LINE, [1.0]),
          OpenSetRep.ball_union(LINE, [(0.5, 0.5), (1.5, 0.5)])))      # (0,1) u (1,2) misses 1
@example((ClosedSet.intervals(LINE, [(0.5, 1.5)]),
          OpenSetRep.ball_union(LINE, [(0.5, 0.5), (1.5, 0.5)])))
@example((ClosedSet.intervals(LINE, [(0.5, 1.5)]),
          OpenSetRep.ball_union(LINE, [(0.5, 0.5), (1.5, 0.5), (1.0, 0.5)])))  # now covered
@example((ClosedSet.points(E2, [(3.0, 4.0)]), OpenSetRep.ball_union(E2, [((0.0, 0.0), 5.0)])))
@example((ClosedSet.boxes(E2, [((0.0, 0.0), (3.0, 4.0))]),
          OpenSetRep.ball_union(E2, [((0.0, 0.0), 5.0), ((0.0, 0.0), 5.5)])))
def test_subset_of_matches_the_scalar_farthest_point_and_the_sweep(case):
    A, U = case
    assert outcome(subset_of, A, U) == outcome(ref_subset_of, A, U)
