"""Low-level Euclidean geometry used by the set representations.

Everything here works on plain float tuples: vector helpers, and the
exact minimum distance (gap, zero when they meet) between two of the
n-D primitive shapes

    ("box", (lo, hi))       axis-aligned, lo/hi corner tuples
    ("segment", (p, q))
    ("ray", (a, u))         u a unit vector

Only these piece-piece gaps live here: the distance from a point to a
piece, and so from a ball, is the array kernel of the sets module.
"""

from __future__ import annotations

import math

INF = math.inf


def sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def scale(p, s):
    return tuple(s * a for a in p)


def dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def norm(p):
    return math.hypot(*p)


def unit(p):
    n = norm(p)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return tuple(a / n for a in p)


# ---------------------------------------------------------------------------
# shape-to-shape minimum distances (gaps)


def _clamp(v, lo, hi):
    return min(hi, max(lo, v))


def gap_segmentlike(p1, d1, t1max, p2, d2, t2max) -> float:
    """Minimum distance between X(t)=p1+t*d1, t in [0, t1max] and
    Y(s)=p2+s*d2, s in [0, t2max].  t1max / t2max may be +inf, which
    turns the segment into a ray.  Directions need not be unit."""
    r = sub(p1, p2)
    a = dot(d1, d1)
    e = dot(d2, d2)
    f = dot(d2, r)
    c = dot(d1, r)

    if a == 0.0 and e == 0.0:
        return math.dist(p1, p2)
    if a == 0.0:
        s = _clamp(f / e, 0.0, t2max)
        return math.dist(p1, add(p2, scale(d2, s)))
    if e == 0.0:
        t = _clamp(-c / a, 0.0, t1max)
        return math.dist(add(p1, scale(d1, t)), p2)

    b = dot(d1, d2)
    denom = a * e - b * b
    if denom > 0.0:
        t = _clamp((b * f - c * e) / denom, 0.0, t1max)
    else:
        t = 0.0
    s = (b * t + f) / e
    if s < 0.0:
        s = 0.0
        t = _clamp(-c / a, 0.0, t1max)
    elif s > t2max:
        s = t2max
        t = _clamp((b * s - c) / a, 0.0, t1max)
    return math.dist(add(p1, scale(d1, t)), add(p2, scale(d2, s)))


def gap_linear_box(p, d, tmax, lo, hi) -> float:
    """Minimum distance between X(t)=p+t*d, t in [0, tmax] and an
    axis-aligned box.  Exact: the squared distance is piecewise
    quadratic and convex in t, so the minimum sits at a crossing
    breakpoint or at a parabola vertex inside one piece."""
    ts = {0.0}
    if math.isfinite(tmax):
        ts.add(tmax)
    for pi, di, l, h in zip(p, d, lo, hi):
        if di != 0.0:
            for bound in (l, h):
                t = (bound - pi) / di
                if 0.0 < t < tmax:
                    ts.add(t)
    knots = sorted(ts)

    def value(t):  # the distance from p + t d to the box
        x = add(p, scale(d, t))
        return math.hypot(*(max(l - xi, xi - h, 0.0) for xi, l, h in zip(x, lo, hi)))

    best = min(value(t) for t in knots)
    # scan each piece for an interior vertex of the active quadratic
    pieces = list(zip(knots, knots[1:]))
    if not math.isfinite(tmax):
        pieces.append((knots[-1], INF))
    for ta, tb in pieces:
        mid = ta + 1.0 if not math.isfinite(tb) else 0.5 * (ta + tb)
        alpha = []
        beta = []
        x_mid = add(p, scale(d, mid))
        for pi, di, xm, l, h in zip(p, d, x_mid, lo, hi):
            if xm < l:
                alpha.append(l - pi)
                beta.append(-di)
            elif xm > h:
                alpha.append(pi - h)
                beta.append(di)
        if not alpha:
            return 0.0  # the line enters the box on this piece
        bb = sum(b * b for b in beta)
        if bb > 0.0:
            tstar = -sum(a * b for a, b in zip(alpha, beta)) / bb
            if ta < tstar < tb:
                best = min(best, value(tstar))
    return best


def gap_box_box(lo1, hi1, lo2, hi2) -> float:
    return math.hypot(*(max(0.0, l2 - h1, l1 - h2) for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2)))


def _as_param(shape):
    """Segment or ray as (origin, direction, tmax)."""
    kind, data = shape
    if kind == "segment":
        p, q = data
        return p, sub(q, p), 1.0
    if kind == "ray":
        a, u = data
        return a, u, INF
    raise ValueError(kind)


def gap(shape_a, shape_b) -> float:
    """Exact minimum distance between two box, segment or ray shapes."""
    ka, da = shape_a
    kb, db = shape_b
    # order the pair so we only handle one triangle of the kind matrix
    order = {"box": 0, "segment": 1, "ray": 2}
    if order[ka] > order[kb]:
        return gap(shape_b, shape_a)
    if ka == "box":
        if kb == "box":
            return gap_box_box(*da, *db)
        p, d, tmax = _as_param(shape_b)
        return gap_linear_box(p, d, tmax, *da)
    # segment / ray against segment / ray
    p1, d1, t1 = _as_param(shape_a)
    p2, d2, t2 = _as_param(shape_b)
    return gap_segmentlike(p1, d1, t1, p2, d2, t2)
