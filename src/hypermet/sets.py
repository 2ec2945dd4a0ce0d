"""Closed-set representations and point-level operations.

A ClosedSet pairs an ambient space with one of a small family of
finite descriptions.  Every description denotes a nonempty closed
subset of its ambient, and every operation that consumes one either
has an exact closed form for the representation or raises
UnsupportedPair.

SampledCloud is deliberately second class: it stores a finite sample
of an unknown closed set together with a resolution h (the sample is
h-dense in the true set and vice versa).  Distance queries answer for
the sample; interval-valued operations widen their certificates by the
declared slack.

On a 1-D ambient every question reads one form, the set's IntervalUnion
(ClosedSet.normal_form): its sorted, disjoint closed intervals, with
their distances, gap midpoints and finite ends.

In R^n each question about a convex piece has one rule: distances come
from the one kernel (_kernel), farthest distances from the kernel's norm
over the vertex table (_vertices, _far_dists), each piece's largest by
one reduction (_max_per_piece), and truncate keeps each piece whole,
drops it or cuts it by those two tables.  Several sets asked the same
question stack their pieces in one step (_Stack).  Every distance is
geom's guarded norm (_guarded).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np

from .errors import UnsupportedPair
from .geom import _CHUNK_BYTES, _guarded
from .spaces import (
    EUCLIDEAN,
    FINITE,
    LINE,
    OPEN_INTERVAL,
    AmbientSpace,
    Point,
)


@dataclass(frozen=True)
class FinitePoints:
    points: tuple[Point, ...]


@dataclass(frozen=True)
class IntervalUnion:
    """A 1-D set as sorted, disjoint closed intervals: the 1-D normal form
    (ClosedSet.normal_form), points as degenerate intervals and a ray as
    a half-infinite one.

    The endpoints are read as two Python lists and their numpy copies,
    each made on first use and kept, so a set queried once pays for little
    more than the lists.  For disjoint sorted intervals the nearest one to
    x is one of the two around it, so each distance below is the same
    float a scan over all intervals gives.
    """

    intervals: tuple[tuple[float, float], ...]  # disjoint, sorted

    @cached_property
    def _ends(self) -> tuple[list[float], list[float]]:
        """The lower and the upper ends, as two lists made in one step."""
        return [a for a, _ in self.intervals], [b for _, b in self.intervals]

    @property
    def lo(self) -> list[float]:
        return self._ends[0]

    @property
    def hi(self) -> list[float]:
        return self._ends[1]

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Midpoints of the gaps between intervals, each end halved first so no sum overflows."""
        lo, hi = self._arrays
        return 0.5 * hi[:-1] + 0.5 * lo[1:]

    @cached_property
    def candidates(self) -> np.ndarray:
        """The finite ends, interleaved lo0, hi0, lo1, hi1, ..., then the gap
        midpoints: every kink and peak of the distance to the set.  The
        window scan (hypermetrics._sup_gap_1d) reads A's, then B's, then
        the window edges; the first maximiser in that order is its witness."""
        ends = np.column_stack(self._arrays).ravel()
        return np.concatenate((ends[np.isfinite(ends)], self.midpoints))

    @property
    def finite_ends(self) -> np.ndarray:
        """All finite endpoints (a degenerate interval's twice)."""
        ends = np.concatenate(self._arrays)
        return ends[np.isfinite(ends)]

    @cached_property
    def _arrays(self):
        lo, hi = self._ends
        return np.array(lo), np.array(hi)

    def dist(self, x: float) -> float:
        lo, hi = self._ends
        i = bisect_right(lo, x)
        return min(max(lo[k] - x, x - hi[k], 0.0) for k in (i - 1, i) if 0 <= k < len(lo))

    def dists(self, xs) -> np.ndarray:
        """dist over a batch of finite coordinates."""
        lo, hi = self._arrays
        xs = np.asarray(xs, dtype=float)
        i = np.searchsorted(lo, xs, side="right")
        left, right = np.maximum(i - 1, 0), np.minimum(i, len(lo) - 1)
        return np.minimum(
            np.maximum(np.maximum(lo[left] - xs, xs - hi[left]), 0.0),
            np.maximum(np.maximum(lo[right] - xs, xs - hi[right]), 0.0))


@dataclass(frozen=True)
class BoxUnion:
    boxes: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]  # (lo, hi) corners


@dataclass(frozen=True)
class BallUnion:
    balls: tuple[tuple[tuple[float, ...], float], ...]  # (center, radius)


@dataclass(frozen=True)
class SegmentUnion:
    segments: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]


@dataclass(frozen=True)
class Ray:
    anchor: Point
    direction: Point  # unit vector; +-1.0 on the line
    # the direction as given, times a power of two (exact): literal
    # multiples of one direction stay exactly proportional here, while
    # their rounded unit vectors need not
    axis: Point = field(repr=False)


@dataclass(frozen=True)
class SampledCloud:
    points: tuple[Point, ...]
    resolution: float


Rep = FinitePoints | IntervalUnion | BoxUnion | BallUnion | SegmentUnion | Ray | SampledCloud


def _merge_intervals(ivs):
    ivs = sorted((float(a), float(b)) for a, b in ivs)
    if not ivs:
        raise ValueError("a closed set must be nonempty")
    for a, b in ivs:
        if not (a <= b and a < math.inf and b > -math.inf):
            raise ValueError(f"interval [{a}, {b}] contains no real number")
    return _coalesce(ivs)


def _coalesce(ivs):
    """Sorted intervals with each run of overlapping or touching ones
    joined into one."""
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return tuple(merged)


def _coord(p) -> float:
    """The coordinate of a point of a 1-D ambient (E^1 points are 1-tuples)."""
    return p[0] if isinstance(p, tuple) else p


# The n-D array form.  Every piece of an n-D set is stacked per kind
# into numpy arrays, and one kernel gives the distance to, and the unit
# gradient of, every piece at a batch of points.  Arrays keep the point
# axis last, so that reductions over coordinates and pieces run over
# leading axes.

def _rows_per_chunk(row_bytes):
    """How many rows of row_bytes of temporaries each stay within
    _CHUNK_BYTES (at least one)."""
    return max(1, _CHUNK_BYTES // row_bytes)


def _chunks(n_rows, row_bytes):
    """Row slices whose temporaries stay within _CHUNK_BYTES."""
    step = _rows_per_chunk(row_bytes)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _stack(kind, datas):
    """The arrays of the pieces of one kind, shaped (n, k, 1) or (k, 1)
    (see _offsets), a segment's power of two as its integer exponent."""
    if kind == "point":
        return (np.array(datas, dtype=float).T[:, :, None],)
    first = np.array([d[0] for d in datas], dtype=float)
    second = np.array([d[1] for d in datas], dtype=float)
    if kind == "ball":
        return first.T[:, :, None], second[:, None]
    first, second = first.T[:, :, None], second.T[:, :, None]
    if kind == "segment":
        # the projection reads v scaled by a power of two per segment, so
        # that its squared length neither under- nor overflows
        with np.errstate(over="ignore"):
            v = second - first
        bad = np.flatnonzero(~np.isfinite(v).all(axis=0))
        if len(bad):
            raise UnsupportedPair(f"segment {datas[bad[0]]} is longer than the float range")
        e = np.frexp(np.abs(v).max(axis=0))[1]
        vs = np.ldexp(v, -e)
        return first, v, vs, (vs * vs).sum(axis=0), -e
    return first, second  # box (lo, hi), ray (anchor, direction)


def _offsets(kind, X, arrs):
    """x - P(x) for every point x and every piece of one kind, P the
    nearest point (for a ball, the offset from its centre).  X has shape
    (n, 1, N), coordinates first; the result has shape (n, k, N), a segment's 2^-e by ldexp."""
    first = arrs[0]
    if kind in ("point", "ball"):
        return X - first
    if kind == "box":
        return X - np.clip(X, first, arrs[1])
    W, v = X - first, arrs[1]
    if kind == "segment":
        # t = (W.v_s) / (v_s.v_s) 2^-e for v = 2^e v_s: in range, the float
        # of (W.v) / (v.v); past it inf, which the clip takes to 1
        vs, L2 = arrs[2], np.broadcast_to(arrs[3], W.shape[1:])
        t = np.divide((W * vs).sum(axis=0), L2, out=np.zeros(L2.shape), where=L2 > 0.0)
        t = np.clip(np.ldexp(t, arrs[4]), 0.0, 1.0)
    elif kind == "ray":
        t = np.maximum((W * v).sum(axis=0), 0.0)
    else:
        raise UnsupportedPair(f"no distance kernel for {kind!r}")
    return W - t * v


class _Pieces:
    """Convex pieces stacked per kind: blocks (kind, rows, arrays), rows
    the pieces' rows in the kernel's output."""

    def __init__(self, comps):
        groups = {}
        for row, (kind, data) in enumerate(comps):
            groups.setdefault(kind, []).append((row, data))
        self.m = len(comps)
        self.blocks = [(kind, np.array([r for r, _ in items]), _stack(kind, [d for _, d in items]))
                       for kind, items in groups.items()]

    @classmethod
    def of_blocks(cls, blocks, m):
        """m pieces already stacked into blocks."""
        self = cls.__new__(cls)
        self.blocks, self.m = blocks, m
        return self

    @classmethod
    def of_points(cls, P):
        """The rows of the (m, n) array P as m point pieces, one block."""
        return cls.of_blocks([("point", slice(None), (P.T[:, :, None],))], len(P))

    def join(self, *others: "_Pieces") -> "_Pieces":
        """The pieces of self followed by those of each of others, one
        block per kind."""
        kinds, offset = {}, 0
        for pieces in (self, *others):
            for kind, rows, arrs in pieces.blocks:  # rows may be a slice
                kinds.setdefault(kind, []).append((np.arange(pieces.m)[rows] + offset, arrs))
            offset += pieces.m
        # every array has its piece axis at -2
        return _Pieces.of_blocks(
            [(kind, np.concatenate([rows for rows, _ in items]),
              tuple(np.concatenate(col, axis=-2) for col in zip(*(arrs for _, arrs in items))))
             for kind, items in kinds.items()], offset)

    def scaled(self, k: int) -> "_Pieces":
        """The pieces with every coordinate and radius multiplied by 2^k,
        which is exact unless it under- or overflows (the one rescaling of
        array forms).  A segment's scaled direction and squared length stay,
        its integer exponent moves by -k; a ray's unit direction stays."""
        def arrays(kind, arrs):
            if kind == "segment":
                first, v, vs, L2, ex = arrs
                return np.ldexp(first, k), np.ldexp(v, k), vs, L2, ex - k
            if kind == "ray":
                return np.ldexp(arrs[0], k), arrs[1]
            return tuple(np.ldexp(a, k) for a in arrs)
        return _Pieces.of_blocks([(kind, rows, arrays(kind, arrs))
                                  for kind, rows, arrs in self.blocks], self.m)

    @cached_property
    def scale(self) -> float:
        """The largest absolute coordinate of a piece (a ball's reaches
        out by its radius, a segment's to both ends)."""
        scale = 0.0
        for kind, _, arrs in self.blocks:
            coords = np.abs(arrs[0]) + (arrs[1] if kind == "ball" else 0.0)
            if kind == "box":
                coords = np.maximum(coords, np.abs(arrs[1]))
            elif kind == "segment":
                coords = np.maximum(coords, np.abs(arrs[0] + arrs[1]))
            scale = max(scale, float(coords.max()))
        return scale


def _points_of(sets_):
    """The points of several point sets or clouds, in order, as one (m, n)
    array, read as one stream of coordinates (about half the time of an
    array built from the points); None when any of the sets has pieces of
    another kind."""
    reps = [A.rep for A in sets_]
    if all(isinstance(rep, (FinitePoints, SampledCloud)) for rep in reps):
        coords = chain.from_iterable(chain.from_iterable(rep.points for rep in reps))
        return np.fromiter(coords, float).reshape(-1, sets_[0].space.dim)
    return None


class _Stack:
    """Several sets of one ambient stacked in one step for every batched
    query that reads them (_dists_each, hypermetrics._gaps_each); starts,
    the index of each set's first piece.

    In R^n, pieces: the points of point sets and clouds go straight into
    one point block, any other pieces are stacked per kind from the sets'
    components, and one set's pieces are its array_form.  On a 1-D
    ambient, lo and hi: the ends of the sets' normal-form intervals as two
    arrays.  On a finite space, idx: the sets' coords concatenated."""

    def __init__(self, sets_):
        self.sets, self.pieces, self.lo, self.hi, self.idx = sets_, None, None, None, None
        if sets_[0].space.kind == FINITE:
            self.idx = np.concatenate([A.coords for A in sets_])
            counts = [len(A.coords) for A in sets_]
        elif sets_[0].space.is_one_dimensional:
            nfs = [A.normal_form for A in sets_]
            self.lo = np.fromiter(chain.from_iterable(nf.lo for nf in nfs), float)
            self.hi = np.fromiter(chain.from_iterable(nf.hi for nf in nfs), float)
            counts = [len(nf.lo) for nf in nfs]
        elif len(sets_) == 1:
            self.pieces = sets_[0].array_form
            counts = [self.pieces.m]
        elif (P := _points_of(sets_)) is not None:
            self.pieces = _Pieces.of_points(P)
            counts = [len(A.rep.points) for A in sets_]
        else:
            comps = [A.components() for A in sets_]
            self.pieces = _Pieces([c for cs in comps for c in cs])
            counts = [len(c) for c in comps]
        self.starts = np.fromiter(accumulate(counts[:-1], initial=0), np.intp)  # np.cumsum of a list costs more


def _kernel(X: np.ndarray, pieces: _Pieces, grads=True):
    """Distances D (m, N) from the N rows of X to the m pieces, and unit
    gradients G (n, m, N): (x - P(x)) / d, or 0 where d is 0; G is None
    without grads.

    One formula for every kind: the norm of the offset (_guarded), less
    a ball's radius.
    """
    N, n = X.shape
    Xt = np.ascontiguousarray(X.T)[:, None, :]

    def compute(norm_of):
        D = np.empty((pieces.m, N))
        G = np.empty((n, pieces.m, N)) if grads else None
        for kind, rows, arrs in pieces.blocks:
            W = _offsets(kind, Xt, arrs)
            norm = norm_of(W)
            d = np.maximum(norm - arrs[1], 0.0) if kind == "ball" else norm
            D[rows] = d
            if grads:
                G[:, rows] = np.divide(W, norm, out=np.zeros_like(W), where=d > 0.0)
        return D, G
    return _guarded(compute)


# A convex piece's farthest point from a convex target is a vertex of
# the piece (for a ball: its centre, moved out by the radius), so the
# excess of one piece over another is read at the piece's vertices.

def _vertices(comps):
    """The vertices of each piece (a ball's centre, a ray's anchor), as
    rows of X, and the index of the piece that owns each row."""
    verts, owner = [], []
    for i, (kind, data) in enumerate(comps):
        vs = (_box_corners(*data) if kind == "box" else data if kind == "segment"
              else [data if kind == "point" else data[0]])
        verts.extend(vs)
        owner.extend([i] * len(vs))
    return np.array(verts, dtype=float), np.array(owner, dtype=int)


def _max_per_piece(table, owner, row_bytes):
    """The largest of table(sl), the table of the vertex rows sl, over each
    piece's run of rows (owner: the piece of each row): the table itself
    when each piece owns one row, else np.maximum.reduceat, in chunks cut
    on piece boundaries whose rows of row_bytes stay within _CHUNK_BYTES."""
    m = int(owner[-1]) + 1
    if m == len(owner):
        parts = [table(sl) for sl in _chunks(m, row_bytes)]
    else:
        starts = np.searchsorted(owner, np.arange(m + 1))
        per = max(1, _rows_per_chunk(row_bytes) // int(np.diff(starts).max()))  # pieces
        parts = []
        for i in range(0, m, per):
            j = min(i + per, m)
            parts.append(np.maximum.reduceat(table(slice(starts[i], starts[j])),
                                             starts[i:j] - starts[i], axis=0))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _excess_at_vertices(comps, X, owner, other: _Pieces, n):
    """E[i, k] >= the excess of piece i of comps over piece k of other:
    the largest distance from a vertex of piece i (rows of X by owner),
    plus a ball's radius; inf for a ray."""
    E = _max_per_piece(lambda sl: _kernel(X[sl], other, grads=False)[0].T, owner,
                       8 * other.m * (n + 2))
    return _over_pieces(E, comps)


def _over_pieces(E, comps):
    """E with row i, the largest of a distance over the vertices of piece
    i of comps, widened to the whole piece: plus a ball's radius, inf for
    a ray."""
    for i, (kind, data) in enumerate(comps):
        if kind == "ball":
            E[i] += data[1]
        elif kind == "ray":
            E[i] = np.inf
    return E


def _far_dists(X, sets_) -> np.ndarray:
    """F (m, N): the farthest distance from each of the N rows of X to
    each of the m pieces of several n-D or finite-space sets, in order.
    In R^n it is read at their vertex table (_vertices; the points of
    point sets, stacked in one step): the largest kernel norm (_guarded)
    of x - v over a piece's vertices, widened to the piece (_over_pieces);
    on a finite space, at the matrix (X indices).  Every farthest-distance
    question reads this one table, so a question asked of one set or of
    a block of sets gets the same floats."""
    space = sets_[0].space
    if space.kind == FINITE:
        return space.dist_matrix[X][:, np.concatenate([A.coords for A in sets_])].T
    V, comps = _points_of(sets_), None
    if V is None:
        comps = [c for A in sets_ for c in A.components()]
        V, owner = _vertices(comps)
    else:  # a point is its own vertex
        owner = np.arange(len(V))
    Xt = np.ascontiguousarray(X.T)[:, None, :]
    F = _max_per_piece(lambda sl: _guarded(lambda norm_of: norm_of(Xt - V[sl].T[:, :, None])),
                       owner, 8 * len(X) * (X.shape[1] + 2))
    return F if comps is None else _over_pieces(F, comps)


def _piece_dists(x, A: "ClosedSet") -> list[float]:
    """The kernel distance from the point x to each piece of the n-D set A."""
    return _kernel(np.array([x], dtype=float), A.array_form, grads=False)[0][:, 0].tolist()


def _piece_fars(x, A: "ClosedSet") -> list[float]:
    """The farthest distance from the point x to each piece of A
    (_far_dists); on a 1-D ambient, to each point of a point set, |p - x|."""
    if A.space.is_one_dimensional:
        return np.abs(A.coords.reshape(-1) - _coord(x)).tolist()
    return _far_dists(_point_array(A.space, [x]), [A])[:, 0].tolist()


def _point_array(space: AmbientSpace, pts) -> np.ndarray:
    """Canonical points as one array, the form every batched query reads:
    indices (np.intp) on a finite space, float coordinates elsewhere."""
    return np.asarray(pts, dtype=np.intp if space.kind == FINITE else float)


def _canon_points(space: AmbientSpace, pts) -> tuple:
    """sorted({space.canon_point(p) for p in pts}) as a tuple, nonempty.

    On the line and in R^n pts is read as one float array and checked in
    one step: rows of the space's width (on the line also bare
    coordinates), all finite.  The sorted set of its rows as tuples (on
    the line as floats) is then what canon_point gives point by point,
    down to which of -0.0 and 0.0 is kept.  Other spaces, E^1 scalars and
    input that fails the check go through canon_point point by point,
    which raises at the first bad point (an array's rows as tuples)."""
    if not isinstance(pts, (list, tuple, np.ndarray)):
        pts = list(pts)  # a generator or a set, read once
    canon = None
    if space.kind in (LINE, EUCLIDEAN):
        line = space.kind == LINE
        try:
            X = np.asarray(pts, dtype=float)
        except (TypeError, ValueError, OverflowError):
            X = None
        if X is not None and (X.ndim == 1 and line or X.ndim == 2 and X.shape[1] == space.dim) \
                and np.isfinite(X).all():
            rows = X.tolist()
            if X.ndim == 2:
                rows = [v for v, in rows] if line else map(tuple, rows)
            canon = tuple(sorted(set(rows)))
        elif isinstance(pts, np.ndarray):
            pts = [tuple(v) if isinstance(v, list) else v for v in pts.tolist()]
    if canon is None:
        canon = tuple(sorted({space.canon_point(p) for p in pts}))
    if not canon:
        raise ValueError("a closed set must be nonempty")
    return canon


@dataclass(frozen=True)
class ClosedSet:
    space: AmbientSpace
    rep: Rep

    # -- constructors -------------------------------------------------

    @staticmethod
    def points(space: AmbientSpace, pts) -> "ClosedSet":
        """The finite set of the points pts, checked and ordered once
        (_canon_points): tuples, lists or scalars, or on the line and in
        R^n a float array with one point per row."""
        return ClosedSet(space, FinitePoints(_canon_points(space, pts)))

    @staticmethod
    def intervals(space: AmbientSpace, ivs) -> "ClosedSet":
        if not space.is_one_dimensional:
            raise ValueError("interval unions live on the line or an interval subspace")
        merged = _merge_intervals(ivs)
        if space.kind == OPEN_INTERVAL:
            a, b = space.bounds
            if not all(a < lo and hi < b for lo, hi in merged):
                raise ValueError("intervals must sit strictly inside the open subspace")
        return ClosedSet(space, IntervalUnion(merged))

    @staticmethod
    def balls(space: AmbientSpace, balls) -> "ClosedSet":
        if space.kind != EUCLIDEAN:
            raise ValueError("ball unions need a Euclidean ambient")
        canon = []
        for c, r in balls:
            r = float(r)
            if not 0.0 <= r < math.inf:
                raise ValueError(f"radius {r!r} is not a finite nonnegative number")
            canon.append((space.canon_point(c), r))
        if not canon:
            raise ValueError("a closed set must be nonempty")
        return ClosedSet(space, BallUnion(tuple(sorted(canon))))

    @staticmethod
    def boxes(space: AmbientSpace, boxes) -> "ClosedSet":
        if space.kind != EUCLIDEAN:
            raise ValueError("box unions need a Euclidean ambient")
        canon = []
        for lo, hi in boxes:
            lo = space.canon_point(lo)
            hi = space.canon_point(hi)
            if any(h < l for l, h in zip(lo, hi)):
                raise ValueError(f"box {lo} .. {hi} is empty")
            canon.append((lo, hi))
        if not canon:
            raise ValueError("a closed set must be nonempty")
        return ClosedSet(space, BoxUnion(tuple(sorted(canon))))

    @staticmethod
    def segments(space: AmbientSpace, segs) -> "ClosedSet":
        if space.kind != EUCLIDEAN:
            raise ValueError("segment unions need a Euclidean ambient")
        canon = tuple(sorted((space.canon_point(p), space.canon_point(q)) for p, q in segs))
        if not canon:
            raise ValueError("a closed set must be nonempty")
        return ClosedSet(space, SegmentUnion(canon))

    @staticmethod
    def ray(space: AmbientSpace, anchor, direction) -> "ClosedSet":
        if not space.is_euclidean_kind or space.kind == OPEN_INTERVAL:
            raise ValueError("rays need an unbounded Euclidean ambient")
        anchor = space.canon_point(anchor)
        if space.kind == LINE:
            d = float(direction[0]) if isinstance(direction, (tuple, list)) else float(direction)
            if not (d > 0.0 or d < 0.0):
                raise ValueError("direction must be a nonzero number")
            direction = 1.0 if d > 0 else -1.0
            return ClosedSet(space, Ray(anchor, direction, direction))
        q = space.canon_point(direction)
        # the largest entry brought into [1, 2), unless that rounds an entry
        k = 1 - math.frexp(max(map(abs, q)))[1]
        axis = tuple(math.ldexp(x, k) for x in q)
        if any(math.ldexp(x, -k) != y for x, y in zip(axis, q)):
            axis = q
        n = math.hypot(*axis)  # q / |q| from the axis, where |q| cannot overflow
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        return ClosedSet(space, Ray(anchor, tuple(x / n for x in axis), axis))

    @staticmethod
    def cloud(space: AmbientSpace, pts, resolution: float) -> "ClosedSet":
        """A sample pts of an unknown closed set, h-dense in it and it in
        the sample, for h = resolution; the points are read as
        ClosedSet.points reads them (_canon_points)."""
        resolution = float(resolution)
        if not 0.0 <= resolution < math.inf:
            raise ValueError("resolution must be finite and nonnegative")
        return ClosedSet(space, SampledCloud(_canon_points(space, pts), resolution))

    # -- structure ----------------------------------------------------

    @property
    def slack(self) -> float:
        """Representation slack: how far a distance answer may sit from
        the truth (zero for every exact representation)."""
        return self.rep.resolution if isinstance(self.rep, SampledCloud) else 0.0

    def components(self):
        """The set as a list of convex pieces (kind, data) for R^n and
        finite spaces; a 1-D set is read as its normal_form instead."""
        rep = self.rep
        if isinstance(rep, (FinitePoints, SampledCloud)):
            return [("point", p) for p in rep.points]
        if isinstance(rep, BallUnion):
            return [("ball", b) for b in rep.balls]
        if isinstance(rep, BoxUnion):
            return [("box", b) for b in rep.boxes]
        if isinstance(rep, SegmentUnion):
            return [("segment", s) for s in rep.segments]
        if isinstance(rep, Ray):
            return [("ray", (rep.anchor, rep.direction))]
        raise UnsupportedPair(f"{type(rep).__name__} has no convex pieces; read its normal_form")

    @cached_property
    def normal_form(self) -> IntervalUnion:
        """The set's sorted disjoint intervals (1-D ambients only), built
        on first use and kept with the set: an interval union is its own,
        a point a degenerate interval, a ray a half-infinite one, and an
        E^1 ball, box or segment the interval it spans."""
        if not self.space.is_one_dimensional:
            raise UnsupportedPair("the interval normal form needs a 1-D ambient")
        rep = self.rep
        if isinstance(rep, IntervalUnion):
            return rep
        if isinstance(rep, (FinitePoints, SampledCloud)):
            # sorted and distinct already; E^1 points are 1-tuples
            xs = [x for x, in rep.points] if self.space.kind == EUCLIDEAN else rep.points
            return IntervalUnion(tuple(zip(xs, xs)))
        if isinstance(rep, Ray):
            a = _coord(rep.anchor)
            return IntervalUnion(((a, math.inf) if _coord(rep.direction) > 0 else (-math.inf, a),))
        if isinstance(rep, BallUnion):
            ivs = [(c[0] - r, c[0] + r) for c, r in rep.balls]
        elif isinstance(rep, BoxUnion):
            ivs = [(lo[0], hi[0]) for lo, hi in rep.boxes]
        else:
            ivs = [(min(p[0], q[0]), max(p[0], q[0])) for p, q in rep.segments]
        return IntervalUnion(_merge_intervals(ivs))

    @cached_property
    def _radius(self) -> float:
        """bounding_radius."""
        return _sup_dist(self.space.canon_point(self.space.base_point), self)

    @cached_property
    def array_form(self) -> "_Pieces":
        """The set's pieces stacked into numpy arrays per kind (n-D
        ambients only), built on first use and kept with the set.  A point
        set is one (m, n) block, its coords; row j of the kernel's output
        is component j either way."""
        if self.space.is_one_dimensional or self.space.kind == FINITE:
            raise UnsupportedPair("the array form needs R^n with n >= 2")
        if isinstance(self.rep, (FinitePoints, SampledCloud)):
            return _Pieces.of_points(self.coords)
        return _Pieces(self.components())

    @cached_property
    def coords(self) -> np.ndarray:
        """The points of a point set or a cloud, or the centres of a ball
        union, as one read-only float array, np.array(points, dtype=float),
        built on first use from one stream of coordinates and kept with
        the set.  Every array read of the points or centres (array_form,
        affine_image, the point excess, affine_sup_norm, is_subset) reads
        this one; on a finite space, the indices as np.intp."""
        rep = self.rep
        if not isinstance(rep, (FinitePoints, SampledCloud, BallUnion)):
            raise UnsupportedPair(f"{type(rep).__name__} has no point coordinates")
        pts = [c for c, _ in rep.balls] if isinstance(rep, BallUnion) else rep.points
        if self.space.kind == EUCLIDEAN:
            X = np.fromiter(chain.from_iterable(pts), float).reshape(len(pts), self.space.dim)
        else:
            X = np.fromiter(pts, np.intp if self.space.kind == FINITE else float, len(pts))
        X.flags.writeable = False
        return X


# ---------------------------------------------------------------------------
# operations


def dist_to_set(x, A: ClosedSet) -> float:
    """Distance from a point to the set: the entry of dists_to_set for x.

    Exact for every exact representation up to the rounding of the
    formula (see dists_to_set); for a SampledCloud the answer is the
    distance to the sample and is within A.slack of the truth.
    """
    space = A.space
    x = space.canon_point(x)
    if space.is_one_dimensional:
        return A.normal_form.dist(_coord(x))
    return float(_dists([x], A)[0])


def dists_to_set(X, A: ClosedSet) -> np.ndarray:
    """Distances from the points X (one per row: indices on a finite
    space, coordinates or 1-tuples on a 1-D ambient) to the set.

    A row that is not a finite point of the ambient raises ValueError,
    checked in one vectorised step.  Each entry is the float dist_to_set
    gives for its point: in R^n one kernel pass over A.array_form (per
    piece the square root of the left-to-right sum of squares of x less
    its nearest point, less a ball's radius), on a 1-D ambient the
    distances of A.normal_form, on a finite space the least entry of the
    rows of AmbientSpace.dist_matrix over A's points.
    """
    space = A.space
    if space.kind == FINITE:
        return _dists([space.canon_point(x) for x in X], A)
    width = 1 if space.is_one_dimensional else space.dim
    X = np.asarray(X, dtype=float)
    if X.ndim == 1 and (width == 1 or not len(X)):
        X = X.reshape(-1, width)
    if X.ndim != 2 or X.shape[1] != width or not np.isfinite(X).all():
        raise ValueError(f"points must be finite rows of {width} coordinates")
    if space.kind == OPEN_INTERVAL:
        a, b = space.bounds
        if not ((a < X) & (X < b)).all():
            raise ValueError(f"points must lie inside the open interval ({a}, {b})")
    return _dists(X, A)


def _dists(X, A: ClosedSet) -> np.ndarray:
    """dists_to_set for points already canonical, unchecked."""
    space = A.space
    if space.kind == FINITE:
        return space.dist_matrix[X][:, A.coords].min(axis=1)
    X = np.asarray(X, dtype=float)
    if space.is_one_dimensional:
        return A.normal_form.dists(X.reshape(-1))
    if not len(X):
        return np.empty(0)
    pieces = A.array_form
    parts = [_kernel(X[sl], pieces, grads=False)[0].min(axis=0)
             for sl in _chunks(len(X), 8 * pieces.m * (space.dim + 2))]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _dists_each(X: np.ndarray, stack: _Stack) -> np.ndarray:
    """_dists from the rows of X to each set of a stack (_Stack): row j is
    set j's.  One pass over the stacked pieces, reduced per set with
    np.minimum.reduceat.

    In R^n the pass is one kernel call over the pieces; every entry is the
    float _dists gives, since the square root is monotone and, where a
    pass falls back to the scaled norm, pieces whose plain norm neither
    under- nor overflows keep their floats.  On a 1-D ambient it is the
    table max(lo - x, x - hi, 0) over the normal-form intervals: the
    floats of IntervalUnion.dists, which reads the same expression at the
    two intervals around x, the nearest of all.  On a finite space it is
    the matrix at X (indices) and the stacked points."""
    if stack.lo is not None:
        m, width = len(stack.lo), 1
        lo, hi, x = stack.lo[:, None], stack.hi[:, None], X.reshape(-1)

        def table(sl):
            return np.maximum(np.maximum(lo - x[sl], x[sl] - hi), 0.0)
    elif stack.idx is not None:
        m, width, M = len(stack.idx), 1, stack.sets[0].space.dist_matrix

        def table(sl):
            return M[X[sl]][:, stack.idx].T
    else:
        m, width = stack.pieces.m, X.shape[1]

        def table(sl):
            return _kernel(X[sl], stack.pieces, grads=False)[0]
    parts = [table(sl) for sl in _chunks(len(X), 8 * m * (width + 2))]
    D = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return np.minimum.reduceat(D, stack.starts, axis=0)


def in_r_neighborhood(x, A: ClosedSet, r: float) -> bool:
    """Is x strictly within distance r of A (i.e. in the open
    r-enlargement)?"""
    return dist_to_set(x, A) < r


def is_bounded(A: ClosedSet) -> bool:
    return math.isfinite(bounding_radius(A))


def bounding_radius(A: ClosedSet) -> float:
    """sup of d(base point, a) over the set; inf for rays.

    Internal helper for window saturation; certificates carry the same
    float inf as their upper end.  Computed on first use and kept with
    the set (a scan's obstacle is checked every term).
    """
    return A._radius


def _sup_dist(x, A: ClosedSet) -> float:
    """sup of d(x, a) over a in A (inf when A is unbounded), x canonical."""
    space = A.space
    if space.is_one_dimensional:
        nf, x = A.normal_form, _coord(x)
        return max(x - nf.lo[0], nf.hi[-1] - x)
    return max(_piece_fars(x, A))


def truncate(A: ClosedSet, L: float):
    """A intersected with the closed ball of radius L around the base
    point, in the same representation family, or None when empty.

    One rule for every piece, read from the tables of bounding_radius and
    dist_to_set: keep it whole when its farthest distance from the base
    point (_piece_fars) is at most L, drop it when its nearest
    (_piece_dists) exceeds L, and cut it otherwise.  A point's two
    distances are one number (on the line |p - x0|, on a finite space the
    matrix entry), so points are never cut and a cloud keeps its
    resolution.  A segment or a ray is cut to its chord (_chord); a ball
    or box cut by the window sphere raises UnsupportedPair.  A set that
    loses no piece comes back as itself (a ray at L = inf too).  On a 1-D
    ambient any other set is cut as its normal form, an interval union.
    """
    L = float(L)
    if not L >= 0.0:  # refuses nan too
        raise ValueError(f"radius {L!r} is not a nonnegative number")
    space, rep = A.space, A.rep
    x0 = space.canon_point(space.base_point)
    points = isinstance(rep, (FinitePoints, SampledCloud))
    if space.is_one_dimensional and not points:
        lo_w, hi_w = _coord(x0) - L, _coord(x0) + L
        clipped = [(max(a, lo_w), min(b, hi_w)) for a, b in A.normal_form.intervals]
        clipped = [(a, b) for a, b in clipped if a <= b]
        return ClosedSet(space, IntervalUnion(tuple(clipped))) if clipped else None

    far = _piece_fars(x0, A)
    if max(far) <= L:
        return A
    near = far if points else _piece_dists(x0, A)
    if isinstance(rep, (BallUnion, BoxUnion)) and any(n <= L < f for n, f in zip(near, far)):
        kind = "ball" if isinstance(rep, BallUnion) else "box"
        raise UnsupportedPair(f"{kind} partially overlaps the window; "
                              f"the intersection is not a {kind} union")
    pieces = rep.points if points else [data for _, data in A.components()]
    kept = [p if f <= L else _chord(*p, x0, L, isinstance(rep, Ray)) if n <= L else None
            for p, f, n in zip(pieces, far, near)]
    kept = tuple(p for p in kept if p is not None)
    if not kept:
        return None
    if isinstance(rep, SampledCloud):
        return ClosedSet(space, SampledCloud(kept, rep.resolution))
    return ClosedSet(space, SegmentUnion(kept) if isinstance(rep, Ray) else type(rep)(kept))


def _chord(p, q, x0, L, ray=False):
    """The chord inside the closed ball B(x0, L) of the segment from p to
    q, or of the ray from p along q: a pair of points, or None where the
    quadratic has no root in range.

    On p + t d (d = q - p and 0 <= t <= 1, or d = q and t >= 0), the
    distance to x0 is L at t = (-b -+ sqrt(b^2 - 4ac)) / 2a, a = d.d,
    b = 2 w.d, c = w.w - L^2, w = p - x0.  With w and L scaled by one power
    of two and d by another no square under- or overflows, and
    t = ldexp(t', k_d - k_w) is exact: the plain quadratic's float wherever
    none of its steps under- or overflows.  An end at t = 0, or at t = 1
    on a segment, is the piece's own end; a t past the float range is
    refused."""
    d = q if ray else tuple(b - a for a, b in zip(p, q))
    w = [a - b for a, b in zip(p, x0)]
    kw, kd = (-math.frexp(max(map(abs, v)))[1] for v in ([L, *w], d))
    w, ds, l = [math.ldexp(v, kw) for v in w], [math.ldexp(v, kd) for v in d], math.ldexp(L, kw)
    a, b = sum(v * v for v in ds), 2.0 * sum(x * y for x, y in zip(w, ds))
    disc = b * b - 4.0 * a * (sum(v * v for v in w) - l * l)
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    try:
        t1 = max(math.ldexp((-b - s) / (2.0 * a), kd - kw), 0.0)
        t2 = math.ldexp((-b + s) / (2.0 * a), kd - kw)
    except OverflowError:
        raise UnsupportedPair(f"the chord of the {'ray' if ray else 'segment'} from {p} "
                              "has a parameter past the float range") from None
    t2 = t2 if ray else min(t2, 1.0)
    if t1 > t2:
        return None
    return tuple(p if t == 0.0 else q if t == 1.0 and not ray else
                 tuple(x + t * v for x, v in zip(p, d)) for t in (t1, t2))


def union_sets(A: ClosedSet, B: ClosedSet) -> ClosedSet:
    """Union of two sets in one representation.

    1-D sets of mixed kinds merge through their interval normal forms,
    save a sampled cloud, whose resolution an exact union would drop: the
    two sorted, disjoint interval lists are merged and coalesced, the
    floats of _merge_intervals of both, without its checks.  In
    higher dimension only same-family unions are expressible.
    """
    A.space.require_same(B.space)
    space = A.space
    ra, rb = A.rep, B.rep
    if isinstance(ra, (FinitePoints,)) and isinstance(rb, (FinitePoints,)):
        return ClosedSet.points(space, ra.points + rb.points)
    if space.is_one_dimensional:
        if isinstance(ra, SampledCloud) or isinstance(rb, SampledCloud):
            raise UnsupportedPair("an exact 1-D union would drop a sampled cloud's resolution")
        ia, ib = A.normal_form.intervals, B.normal_form.intervals
        if not all(map(math.isfinite, (ia[0][0], ia[-1][1], ib[0][0], ib[-1][1]))):
            raise UnsupportedPair("1-D unions with rays are not representable")
        # two sorted runs, which timsort merges (2-3x faster than
        # heapq.merge at 3-100 intervals each)
        return ClosedSet(space, IntervalUnion(_coalesce(sorted(ia + ib))))
    if isinstance(ra, BallUnion) and isinstance(rb, BallUnion):
        return ClosedSet.balls(space, ra.balls + rb.balls)
    if isinstance(ra, BoxUnion) and isinstance(rb, BoxUnion):
        return ClosedSet.boxes(space, ra.boxes + rb.boxes)
    if isinstance(ra, SegmentUnion) and isinstance(rb, SegmentUnion):
        return ClosedSet.segments(space, ra.segments + rb.segments)
    raise UnsupportedPair(
        f"no common representation for {type(ra).__name__} | {type(rb).__name__}"
    )


def _same_direction(u, v) -> bool:
    """u and v are positively proportional, in exact arithmetic on the
    given floats: every 2x2 minor vanishes and u.v > 0.  Rays pass their
    axes, which keep the directions as given."""
    u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i)) \
        and sum(a * b for a, b in zip(u, v)) > 0


def is_subset(A: ClosedSet, B: ClosedSet) -> bool:
    """Exact containment test A <= B for the supported pairs.

    Boundary comparisons are exact on the computed distances (a point of
    A at distance 0 from B is inside, one at 5e-10 is not), and a ray fits
    only a ray of exactly its direction (_same_direction).  Raises
    UnsupportedPair when neither True nor False can be certified for the
    representations at hand.
    """
    A.space.require_same(B.space)
    if isinstance(A.rep, SampledCloud):
        raise UnsupportedPair("containment of a sampled cloud cannot be certified")

    if isinstance(A.rep, FinitePoints):
        return bool((_dists(A.coords, B) <= 0.0).all())

    if A.space.is_one_dimensional:
        nb = B.normal_form
        for a_lo, a_hi in A.normal_form.intervals:
            # disjoint closed targets: a connected piece must fit in one of
            # them, and the last one starting by a_lo reaches furthest
            i = bisect_right(nb.lo, a_lo) - 1
            if i < 0 or not a_hi <= nb.hi[i]:
                return False
        return True

    if isinstance(A.rep, Ray):
        # the one unbounded set in R^n is a single ray, so a ray fits only
        # a ray of exactly its direction that holds its anchor
        return (isinstance(B.rep, Ray) and _same_direction(A.rep.axis, B.rep.axis)
                and bool(_dists([A.rep.anchor], B)[0] <= 0.0))

    b_comps = B.components()
    # bounded convex pieces: each must fit a single target piece, read at
    # its vertices (the vertex table), or by closed form for a ball in a
    # ball or a box; otherwise undecidable here
    comps = A.components()
    balls = isinstance(A.rep, BallUnion)
    E = None
    if not (balls and all(kind in ("ball", "box") for kind, _ in b_comps)):
        E = _excess_at_vertices(comps, *_vertices(comps), B.array_form, A.space.dim)
    for i, (_, data) in enumerate(comps):
        if not any(_ball_inside(data, target) if balls and target[0] in ("ball", "box")
                   else E[i, k] <= 0.0 for k, target in enumerate(b_comps)):
            if len(b_comps) == 1:
                return False
            raise UnsupportedPair(
                "containment against a multi-component target is only decidable "
                "when each piece fits a single component"
            )
    return True


def _ball_inside(ball, target) -> bool:
    """The closed ball inside a ball or box target."""
    c2, r2 = ball
    tkind, tdata = target
    if tkind == "ball":
        c, r = tdata
        return float(_guarded(lambda norm_of: norm_of(np.subtract(c, c2)[:, None]))[0]) + r2 <= r
    lo, hi = tdata
    return all(l <= ci - r2 and ci + r2 <= h for ci, l, h in zip(c2, lo, hi))


def _box_corners(lo, hi):
    corners = [()]
    for l, h in zip(lo, hi):
        corners = [c + (v,) for c in corners for v in ((l, h) if l != h else (l,))]
    return corners


def representative_points(A: ClosedSet, m: int):
    """Deterministic sample of points of A (used by the canonical
    hit-neighborhood construction): a 1-D interval's finite ends and
    midpoint, a ball's centre and its points r along each axis that stay
    in the float range, a box's corners and centre, a segment's ends and
    midpoint, and the points of a ray at 0, 1, ..., m - 1 along its unit
    direction.  A midpoint halves each end before the sum, so it cannot
    overflow.  Points come out sorted; at most m."""
    if m < 1:
        raise ValueError("need at least one sample point")
    space = A.space
    out = set()
    if space.is_one_dimensional:
        for lo, hi in A.normal_form.intervals:
            out.update([v for v in (lo, hi, 0.5 * lo + 0.5 * hi) if math.isfinite(v)] or [0.0])
        return sorted(out)[:m]
    for kind, data in A.components():
        if kind == "point":
            out.add(data)
        elif kind == "ball":
            c, r = data
            out.add(c)
            for i in range(len(c)):
                for s in (-r, r):
                    if math.isfinite(c[i] + s):
                        out.add(tuple(x + s if j == i else x for j, x in enumerate(c)))
        elif kind == "box":
            lo, hi = data
            out.update(_box_corners(lo, hi))
            out.add(tuple(0.5 * l + 0.5 * h for l, h in zip(lo, hi)))
        elif kind == "segment":
            p, q = data
            out.update([p, q, tuple(0.5 * a + 0.5 * b for a, b in zip(p, q))])
        else:  # ray
            a, u = data
            out.update(tuple(x + k * v for x, v in zip(a, u)) for k in map(float, range(m)))
    return sorted(out)[:m]
