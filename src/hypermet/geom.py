"""Low-level Euclidean geometry used by the set representations.

Vector helpers on plain float tuples; the guarded norm (_guarded) that
every n-D distance of the library ends in; and gap, the least distance
between two sets of box, segment and ray pieces, measured over every
pair of their pieces at once from the sets' array forms.  The distance
from a point to a piece, and so from a ball, is the array kernel of the
sets module.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK_BYTES = 1 << 22   # array temporaries stay near this size


def sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def scale(p, s):
    return tuple(s * a for a in p)


def dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def unit(p):
    n = math.hypot(*p)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return tuple(a / n for a in p)


# ---------------------------------------------------------------------------
# the guarded norm


def _sumsq(W):
    """The left-to-right sum of squares over the leading axis of W."""
    S = W * W
    sq = S[0]
    for s in S[1:]:
        sq = sq + s
    return sq


def _scaled_norm(W):
    """The square root of _sumsq over W scaled by a power of two per
    column, so that no square under- or overflows; where no step of the
    plain square root of _sumsq(W) does, both give the same float."""
    e = np.frexp(np.abs(W).max(axis=0))[1]
    return np.ldexp(np.sqrt(_sumsq(np.ldexp(W, -e))), e)


def _guarded(compute):
    """compute(norm) with the plain norm, the square root of _sumsq, or,
    if any step of it under- or overflowed, again with _scaled_norm.  A square of exactly 0 (a point
    inside a box) or an exact subnormal raises no flag, so the common
    case pays for no range check, and the floats are those of the scaled
    norm either way: one formula that holds to the rounding allowance at
    every scale."""
    try:
        with np.errstate(over="raise", under="raise"):
            return compute(lambda W: np.sqrt(_sumsq(W)))
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            return compute(_scaled_norm)


# ---------------------------------------------------------------------------
# piece-pair gaps


def _ratio(num, den):
    """num / den, broadcast, and 0 where den is 0."""
    num, den = np.broadcast_arrays(num, den)
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0.0)


def _dot(U, V):
    """The sum of U * V over the leading (coordinate) axis."""
    return (U * V).sum(axis=0)


def _line_box(p, d, tmax, lo, hi):
    """Candidate offsets from a segment or ray block, x(t) = p + t d for t
    in [0, tmax], to a box block.  The squared distance along x is convex
    and one quadratic between consecutive crossings of the box's slabs, so
    on each such piece it is least at the vertex of that quadratic,
    clipped into the piece.  Past the last crossing every moving
    coordinate moves away from its slab, so a ray's tail adds nothing."""
    bound = np.concatenate([lo - p, hi - p])
    cross = _ratio(bound, np.concatenate([d, d]))
    shape = (1,) + cross.shape[1:]
    knots = np.clip(np.concatenate([np.zeros(shape), np.full(shape, tmax), cross]), 0.0, tmax)
    knots = np.sort(np.where(knots < np.inf, knots, 0.0), axis=0)  # no tail
    ta, tb = knots[:-1], knots[1:]
    mid = ta + 0.5 * (tb - ta)
    # the active quadratic on each piece: sum of (alpha + beta t)^2 over
    # the coordinates outside their slab at its midpoint
    p, d, lo, hi = (a[:, None] for a in (p, d, lo, hi))
    x = p + mid * d
    below, above = x < lo, x > hi
    alpha = np.where(below, lo - p, np.where(above, p - hi, 0.0))
    beta = np.where(below, -d, np.where(above, d, 0.0))
    bb = _dot(beta, beta)
    t = np.clip(np.divide(-_dot(alpha, beta), bb, out=mid, where=bb > 0.0), ta, tb)
    x = p + t * d
    return [x - np.clip(x, lo, hi)]


def _line_line(p1, d1, tmax1, p2, d2, tmax2):
    """Candidate offsets between two segment or ray blocks: each end and
    the interior critical point, found with either direction projected out
    (the normal equations would square its condition number when the two
    are nearly parallel), against its projection onto the other piece."""
    def onto(x, p, d, tmax):
        return np.clip(_ratio(_dot(x - p, d), _dot(d, d)), 0.0, tmax)

    def interior(p1, d1, tmax1, p2, d2):
        k2 = _dot(d2, d2)
        r = p1 - p2
        d1p = d1 - _ratio(_dot(d1, d2), k2) * d2
        rp = r - _ratio(_dot(r, d2), k2) * d2
        return np.clip(_ratio(-_dot(rp, d1p), _dot(d1p, d1p)), 0.0, tmax1)

    def ends(tmax):  # a ray has no far end
        return (0.0, tmax) if tmax < math.inf else (0.0,)

    offsets = []
    for t in (*ends(tmax1), interior(p1, d1, tmax1, p2, d2)):
        x = p1 + t * d1
        offsets.append(x - (p2 + onto(x, p2, d2, tmax2) * d2))
    for s in (*ends(tmax2), interior(p2, d2, tmax2, p1, d1)):
        y = p2 + s * d2
        offsets.append(p1 + onto(y, p1, d1, tmax1) * d1 - y)
    return offsets


_KINDS = ("box", "segment", "ray")
_TMAX = {"segment": 1.0, "ray": math.inf}   # a line's parameter range [0, tmax]


def _pair_offsets(kind_a, a, kind_b, b):
    """The candidate offsets between the pieces of two blocks, each given
    as its first two arrays: for two boxes, the separation per coordinate."""
    if _KINDS.index(kind_a) > _KINDS.index(kind_b):
        kind_a, a, kind_b, b = kind_b, b, kind_a, a
    if kind_b == "box":
        return [np.maximum(np.maximum(b[0] - a[1], a[0] - b[1]), 0.0)]
    if kind_a == "box":
        return _line_box(*b, _TMAX[kind_b], *a)
    return _line_line(*a, _TMAX[kind_a], *b, _TMAX[kind_b])


def gap(pieces_a, pieces_b) -> float:
    """The least distance between two n-D sets of box, segment and ray
    pieces, from their array forms (sets._Pieces): every pair of pieces in
    one pass per pair of kind blocks, chunked over pieces_a so that
    temporaries stay near _CHUNK_BYTES.  Each pair gives a few pairs of
    points, one on each piece, and the gap is the least norm (_guarded) of
    their offsets.  Both sets are first scaled by the power of two that
    brings their largest coordinate into [1/2, 1), which is exact."""
    k = -math.frexp(max(pieces_a.scale, pieces_b.scale))[1]

    def scaled(pieces):  # a ray's unit direction stays as it is
        return [(kind, [np.ldexp(arrs[0], k), arrs[1] if kind == "ray" else np.ldexp(arrs[1], k)])
                for kind, _, arrs in pieces.blocks]
    blocks_b = [(kind, [np.swapaxes(x, -1, -2) for x in b]) for kind, b in scaled(pieces_b)]

    def offsets():
        for kind_a, a in scaled(pieces_a):
            n, m, _ = a[0].shape
            for kind_b, b in blocks_b:
                step = max(1, _CHUNK_BYTES // (64 * n * (2 * n + 2) * b[0].shape[-1]))
                for i in range(0, m, step):
                    yield from _pair_offsets(kind_a, [x[:, i:i + step] for x in a], kind_b, b)

    return math.ldexp(_guarded(lambda norm_of: min(float(norm_of(W).min()) for W in offsets())), -k)
