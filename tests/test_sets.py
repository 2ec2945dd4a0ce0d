import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermet import sets
from hypermet.errors import UnsupportedPair
from hypermet.hitmiss import Constraint, OpenSetRep, converges, misses, neighborhood
from hypermet.hypermetrics import _allowance, _gaps_each, excess, set_gap
from hypermet.sets import (BallUnion, ClosedSet, FinitePoints, Ray, _dists_each, _far_dists,
                           _kernel, _piece_dists, _piece_fars, _Stack, bounding_radius, dist_to_set,
                           dists_to_set, in_r_neighborhood, is_bounded, is_subset,
                           representative_points, truncate, union_sets)
from hypermet.spaces import AmbientSpace

LINE = AmbientSpace.line()
E1, E2, E3 = (AmbientSpace.euclidean(n) for n in (1, 2, 3))


# ---------------------------------------------------------------------------
# constructors


def test_points_dedup_and_sort():
    A = ClosedSet.points(LINE, [3.0, 1.0, 3.0, -2.0])
    assert A.rep.points == (-2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        ClosedSet.points(LINE, [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_input(bad):
    makers = [
        lambda: ClosedSet.points(LINE, [0.0, bad]),
        lambda: ClosedSet.points(E2, [(0.0, bad)]),
        lambda: ClosedSet.intervals(LINE, [(bad, bad)]),
        lambda: ClosedSet.balls(E2, [((0.0, 0.0), bad)]),
        lambda: ClosedSet.balls(E2, [((bad, 0.0), 1.0)]),
        lambda: ClosedSet.boxes(E2, [((0.0, 0.0), (bad, 1.0))]),
        lambda: ClosedSet.segments(E2, [((0.0, 0.0), (bad, 1.0))]),
        lambda: ClosedSet.ray(LINE, bad, 1.0),
        lambda: ClosedSet.cloud(LINE, [0.0], bad),
        lambda: ClosedSet.cloud(LINE, [bad], 0.1),
    ]
    for make in makers:
        with pytest.raises(ValueError):
            make()
    if math.isnan(bad):
        with pytest.raises(ValueError):
            ClosedSet.intervals(LINE, [(0.0, bad)])
        with pytest.raises(ValueError):
            ClosedSet.ray(LINE, 0.0, bad)


def test_intervals_merge_overlaps():
    A = ClosedSet.intervals(LINE, [(0, 2), (1, 3), (5, 6)])
    assert A.rep.intervals == ((0.0, 3.0), (5.0, 6.0))
    with pytest.raises(ValueError):
        ClosedSet.intervals(LINE, [(2, 1)])
    with pytest.raises(ValueError, match="nonempty"):
        ClosedSet.intervals(LINE, [])


def test_intervals_strict_inside_subspace():
    OI = AmbientSpace.open_interval(0.0, 1.0)
    ClosedSet.intervals(OI, [(0.1, 0.9)])
    with pytest.raises(ValueError):
        ClosedSet.intervals(OI, [(0.0, 0.5)])


def test_ball_and_box_validation():
    with pytest.raises(ValueError):
        ClosedSet.balls(LINE, [((0.0,), 1.0)])
    with pytest.raises(ValueError):
        ClosedSet.balls(E2, [((0.0, 0.0), -1.0)])
    with pytest.raises(ValueError):
        ClosedSet.boxes(E2, [((1.0, 0.0), (0.0, 1.0))])


def test_ray_normalizes_direction():
    R = ClosedSet.ray(E2, (0.0, 0.0), (3.0, 4.0))
    ux, uy = R.rep.direction
    assert abs(math.hypot(ux, uy) - 1.0) < 1e-15
    Rl = ClosedSet.ray(LINE, 2.0, -5.0)
    assert Rl.rep.direction == -1.0
    with pytest.raises(ValueError):
        ClosedSet.ray(AmbientSpace.open_interval(0, 1), 0.5, 1.0)


def test_cloud_resolution():
    C = ClosedSet.cloud(E2, [(0.0, 0.0), (1.0, 0.0)], 0.25)
    assert C.slack == 0.25
    assert ClosedSet.points(E2, [(0.0, 0.0)]).slack == 0.0
    with pytest.raises(ValueError):
        ClosedSet.cloud(E2, [(0.0, 0.0)], -0.1)


# ---------------------------------------------------------------------------
# distance to a set


def test_dist_examples():
    A = ClosedSet.intervals(LINE, [(0, 1), (4, 5)])
    assert dist_to_set(2.0, A) == 1.0
    assert dist_to_set(0.5, A) == 0.0
    assert dist_to_set(3.0, A) == 1.0

    B = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    assert dist_to_set((3.0, 4.0), B) == 4.0
    assert dist_to_set((0.5, 0.0), B) == 0.0

    S = ClosedSet.segments(E2, [((0.0, 0.0), (2.0, 0.0))])
    assert dist_to_set((1.0, 3.0), S) == 3.0
    assert dist_to_set((5.0, 0.0), S) == 3.0
    # a segment whose power of two, 2^1030, is no float
    S = ClosedSet.segments(E2, [((0.0, 0.0), (0.0, 1e-310))])
    assert dist_to_set((0.0, 5.0), S) == 5.0

    R = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0))
    assert dist_to_set((-3.0, 0.0), R) == 3.0
    assert dist_to_set((100.0, 2.0), R) == 2.0


def test_dist_is_one_lipschitz():
    rng = np.random.RandomState(1)
    sets = [
        ClosedSet.points(LINE, list(rng.uniform(-10, 10, 4))),
        ClosedSet.intervals(LINE, [(-3, -1), (2, 4)]),
        ClosedSet.balls(E2, [((1.0, 1.0), 2.0)]),
        ClosedSet.boxes(E2, [((-1.0, -1.0), (1.0, 1.0))]),
    ]
    for A in sets:
        space = A.space
        for _ in range(200):
            if space is LINE:
                x, y = rng.uniform(-20, 20, 2)
            else:
                x = tuple(rng.uniform(-20, 20, 2))
                y = tuple(rng.uniform(-20, 20, 2))
            lhs = abs(dist_to_set(x, A) - dist_to_set(y, A))
            assert lhs <= space.distance(x, y) + 1e-12


def test_open_enlargement_is_strict():
    A = ClosedSet.intervals(LINE, [(0, 1)])
    assert dist_to_set(0.5, A) == 0.0
    assert in_r_neighborhood(0.5, A, 0.1)
    assert in_r_neighborhood(1.2, A, 0.25)
    assert not in_r_neighborhood(1.25, A, 0.25)  # boundary excluded
    assert not in_r_neighborhood(1.2, A, 0.1)


def test_finite_space_distances():
    F = AmbientSpace.finite([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    A = ClosedSet.points(F, [0, 2])
    assert dist_to_set(1, A) == 1.0
    assert dist_to_set(0, A) == 0.0


# ---------------------------------------------------------------------------
# boundedness and truncation


def test_bounded_and_radius():
    assert is_bounded(ClosedSet.balls(E2, [((3.0, 4.0), 1.0)]))
    assert bounding_radius(ClosedSet.balls(E2, [((3.0, 4.0), 1.0)])) == 6.0
    assert not is_bounded(ClosedSet.ray(LINE, 0.0, 1.0))
    assert bounding_radius(ClosedSet.ray(LINE, 0.0, 1.0)) == math.inf
    assert not is_bounded(ClosedSet.intervals(LINE, [(0.0, math.inf)]))


def test_truncate_keeps_only_window_content():
    A = ClosedSet.points(LINE, [-5.0, 1.0, 7.0])
    T = truncate(A, 3.0)
    assert T.rep.points == (1.0,)
    assert truncate(A, 0.5) is None

    I = ClosedSet.intervals(LINE, [(-10, -4), (1, 9)])
    T2 = truncate(I, 5.0)
    assert T2.rep.intervals == ((-5.0, -4.0), (1.0, 5.0))

    R = ClosedSet.ray(LINE, 2.0, 1.0)
    T3 = truncate(R, 10.0)
    assert T3.rep.intervals == ((2.0, 10.0),)


def test_truncate_ray_in_plane_gives_segment():
    R = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0))
    T = truncate(R, 4.0)
    assert type(T.rep).__name__ == "SegmentUnion"
    (p, q), = T.rep.segments
    assert p == (0.0, 0.0) and q == (4.0, 0.0)


def test_truncate_partial_ball_unsupported():
    B = ClosedSet.balls(E2, [((3.0, 0.0), 1.0)])
    assert truncate(B, 5.0).rep.balls == (((3.0, 0.0), 1.0),)
    assert truncate(B, 1.0) is None
    with pytest.raises(UnsupportedPair):
        truncate(B, 3.5)


def test_truncated_points_stay_in_set_and_window():
    rng = np.random.RandomState(2)
    for _ in range(50):
        pts = list(rng.uniform(-20, 20, 6))
        A = ClosedSet.points(LINE, pts)
        L = float(rng.uniform(1, 15))
        T = truncate(A, L)
        if T is None:
            assert all(abs(p) > L for p in pts)
        else:
            for p in T.rep.points:
                assert abs(p) <= L and dist_to_set(p, A) == 0.0


@pytest.mark.parametrize("A", [
    ClosedSet.points(LINE, [-5.0, 1.0]),
    ClosedSet.cloud(LINE, [-5.0, 1.0], 0.25),
    ClosedSet.intervals(LINE, [(-10.0, -4.0), (1.0, 9.0)]),
    ClosedSet.balls(E2, [((3.0, 0.0), 1.0)]),
    ClosedSet.boxes(E2, [((0.0, 0.0), (1.0, 2.0))]),
    ClosedSet.segments(E2, [((0.0, 0.0), (1.0, 1.0))]),
    ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0)),
], ids=["points", "cloud", "intervals", "balls", "boxes", "segments", "ray"])
def test_truncate_refuses_nan_and_keeps_everything_at_inf(A):
    with pytest.raises(ValueError, match="radius nan is not a nonnegative number"):
        truncate(A, math.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        truncate(A, -1.0)
    assert truncate(A, math.inf) == A  # the window is the whole space


def test_truncate_at_inf_keeps_a_1d_ray_as_its_normal_form():
    with pytest.raises(ValueError, match="nonnegative"):
        truncate(ClosedSet.ray(LINE, 2.0, 1.0), math.nan)
    assert truncate(ClosedSet.ray(LINE, 2.0, 1.0), math.inf).rep.intervals == ((2.0, math.inf),)


# ---------------------------------------------------------------------------
# union / subset


def test_union_points_and_intervals():
    A = ClosedSet.points(LINE, [0.0, 5.0])
    B = ClosedSet.intervals(LINE, [(1.0, 2.0)])
    U = union_sets(A, B)
    assert dist_to_set(0.0, U) == 0.0
    assert dist_to_set(1.5, U) == 0.0
    assert dist_to_set(5.0, U) == 0.0
    assert dist_to_set(3.5, U) == 1.5


@pytest.mark.parametrize("space", [LINE, AmbientSpace.euclidean(1)], ids=["line", "E1"])
def test_union_with_a_sampled_cloud_keeps_its_resolution_by_refusing(space):
    # an exact interval union would answer hausdorff to {0, 1, [5, 6]} with
    # slack 0, while the cloud itself is only known to within 0.25
    wrap = (lambda x: (x,)) if space.kind == "euclidean" else (lambda x: x)
    C = ClosedSet.cloud(space, [wrap(0.0), wrap(1.0)], 0.25)
    I = ClosedSet.intervals(space, [(5.0, 6.0)])
    P = ClosedSet.points(space, [wrap(0.0)])
    for A, B in ((C, I), (I, C), (C, C), (C, P), (P, C)):
        with pytest.raises(UnsupportedPair, match="sampled cloud's resolution"):
            union_sets(A, B)
    with pytest.raises(UnsupportedPair):  # as in the plane
        union_sets(ClosedSet.cloud(E2, [(0.0, 0.0)], 0.25), ClosedSet.points(E2, [(5.0, 0.0)]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_1d_union_is_the_merge_of_both_normal_forms(data):
    space = data.draw(st.sampled_from((LINE, E1, AmbientSpace.open_interval(-10.0, 10.0))))
    # a small grid, so that ends coincide, -0.0 with 0.0 among them
    x = st.sampled_from((-1.5, -0.0, 0.0, 1e-300, 0.5, 2.0))

    def one_set(kind):
        if kind == "intervals":
            return ClosedSet.intervals(space, data.draw(st.lists(
                st.tuples(x, x).map(sorted), min_size=1, max_size=6)))
        pts = data.draw(st.lists(x, min_size=1, max_size=6))
        return ClosedSet.points(space, [(p,) if space.kind == "euclidean" else p for p in pts])

    # two point sets make a point set, checked with the points
    kinds = data.draw(st.sampled_from([("intervals", "intervals"), ("intervals", "points"),
                                       ("points", "intervals")]))
    A, B = map(one_set, kinds)
    U = union_sets(A, B)
    both = [*A.normal_form.intervals, *B.normal_form.intervals]
    # an independent coalescing of the sorted intervals, as max keeps the
    # first of two equal ends
    merged = []
    for a, b in sorted(both):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    expected = repr(tuple(map(tuple, merged)))
    assert repr(U.rep.intervals) == repr(sets._merge_intervals(both)) == expected
    assert U == ClosedSet.intervals(space, both)


def test_union_same_family():
    b1 = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    b2 = ClosedSet.balls(E2, [((5.0, 0.0), 2.0)])
    U = union_sets(b1, b2)
    assert len(U.rep.balls) == 2


def test_union_of_the_other_families_in_the_plane():
    P = union_sets(ClosedSet.points(E2, [(0.0, 0.0), (1.0, 2.0)]),
                   ClosedSet.points(E2, [(1.0, 2.0), (-3.0, 0.5)]))
    assert P == ClosedSet.points(E2, [(0.0, 0.0), (1.0, 2.0), (-3.0, 0.5)])
    box1, box2 = ((0.0, 0.0), (1.0, 1.0)), ((2.0, -1.0), (3.0, 0.0))
    B = union_sets(ClosedSet.boxes(E2, [box1]), ClosedSet.boxes(E2, [box2]))
    assert B.rep.boxes == (box1, box2)
    seg1, seg2 = ((0.0, 0.0), (1.0, 1.0)), ((5.0, 0.0), (5.0, 2.0))
    S = union_sets(ClosedSet.segments(E2, [seg1]), ClosedSet.segments(E2, [seg2]))
    assert S.rep.segments == (seg1, seg2)
    assert dist_to_set((5.0, 3.0), S) == 1.0 and dist_to_set((2.0, 1.0), S) == 1.0


def test_subset_relations():
    inner = ClosedSet.intervals(LINE, [(0.2, 0.8)])
    outer = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    assert is_subset(inner, outer)
    assert not is_subset(outer, inner)

    p = ClosedSet.points(E2, [(0.0, 0.5)])
    ball = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    assert is_subset(p, ball)
    assert is_subset(ball, ClosedSet.balls(E2, [((0.0, 0.0), 2.0)]))
    assert not is_subset(ball, ClosedSet.balls(E2, [((3.0, 0.0), 1.0)]))

    ray = ClosedSet.ray(LINE, 0.0, 1.0)
    assert not is_subset(ray, outer)
    assert is_subset(ClosedSet.ray(LINE, 1.0, 1.0), ray)
    assert not is_subset(ray, ClosedSet.ray(LINE, 1.0, 1.0))


def test_representative_points_belong_to_set():
    sets = [
        ClosedSet.points(LINE, [0.0, 1.0, 2.0]),
        ClosedSet.intervals(LINE, [(0.0, 4.0)]),
        ClosedSet.balls(E2, [((0.0, 0.0), 2.0)]),
        ClosedSet.boxes(E2, [((0.0, 0.0), (1.0, 1.0))]),
        ClosedSet.segments(E2, [((0.0, 0.0), (2.0, 2.0))]),
    ]
    for A in sets:
        pts = representative_points(A, 8)
        assert 1 <= len(pts) <= 8
        for p in pts:
            assert dist_to_set(p, A) <= 1e-12
    # deterministic
    A = sets[2]
    assert representative_points(A, 8) == representative_points(A, 8)


def test_representative_points_of_a_ray_step_along_its_unit_direction():
    R = ClosedSet.ray(E2, (1.0, -2.0), (3.0, 4.0))
    assert representative_points(R, 3) == [(1.0, -2.0), (1.6, -1.2), (2.2, -0.3999999999999999)]
    assert representative_points(R, 1) == [(1.0, -2.0)]
    up = ClosedSet.ray(E2, (1.0, -2.0), (0.0, 2.0))
    assert representative_points(up, 8) == [(1.0, k - 2.0) for k in range(8)]
    assert all(dist_to_set(p, up) == 0.0 for p in representative_points(up, 8))


# ---------------------------------------------------------------------------
# one point-to-set formula: dist_to_set is dists_to_set on one row

def exact_piece(x, piece):
    """(S, r), exactly: S the squared distance from the point x to an n-D
    piece (for a ball, to its centre) and r a ball's radius, so that the
    distance is max(sqrt(S) - r, 0)."""
    kind, data = piece
    x = [Fraction(v) for v in x]
    r = 0.0
    if kind == "point":
        y = [Fraction(v) for v in data]
    elif kind == "ball":
        y, r = [Fraction(v) for v in data[0]], data[1]
    elif kind == "box":
        y = [min(max(xi, Fraction(lo)), Fraction(hi)) for xi, lo, hi in zip(x, *data)]
    else:
        p = [Fraction(v) for v in data[0]]
        v = ([Fraction(b) - a for a, b in zip(p, data[1])] if kind == "segment"
             else [Fraction(u) for u in data[1]])
        vv = sum(vi * vi for vi in v)
        t = max(sum((xi - pi) * vi for xi, pi, vi in zip(x, p, v)) / vv, 0) if vv else 0
        t = min(t, 1) if kind == "segment" else t
        y = [pi + t * vi for pi, vi in zip(p, v)]
    return sum((xi - yi) ** 2 for xi, yi in zip(x, y)), Fraction(r)


def exact_pieces(x, A):
    """exact_piece for every piece of the n-D set A."""
    return [exact_piece(x, piece) for piece in A.components()]


def brackets(terms, lo, hi) -> bool:
    """Whether max over j of min over k of max(sqrt(S_jk) + c_jk, 0), for
    terms [[(S_jk, c_jk), ...], ...] in exact arithmetic, lies in [lo, hi]
    (hi >= 0): each side read on squares."""
    lo, hi = Fraction(lo), Fraction(hi)
    above = lo <= 0 or any(all(lo - c <= 0 or S >= (lo - c) ** 2 for S, c in row)
                           for row in terms)
    below = all(any(hi - c >= 0 and S <= (hi - c) ** 2 for S, c in row) for row in terms)
    return above and below


def dist_terms(x, A, offset=0):
    """One row of brackets: the distance from x to A, less offset."""
    return [(S, -r - Fraction(offset)) for S, r in exact_pieces(x, A)]


# coordinates whose differences square without underflow, as the
# allowance presumes
coord = st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: v == 0.0 or abs(v) > 1e-100)
spread_coord = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
                         st.floats(min_value=-3.0, max_value=4.0))


@st.composite
def nd_sets(draw, coords=coord, dims=(2, 3)):
    """A set of one to four pieces of one kind in R^2 or R^3."""
    n = draw(st.sampled_from(dims))
    X = AmbientSpace.euclidean(n)
    pt = st.tuples(*[coords] * n)
    kind = draw(st.sampled_from(("points", "balls", "boxes", "segments", "ray")))
    if kind == "ray":
        u = draw(pt.filter(lambda v: math.hypot(*v) > 1e-3 * max(1.0, max(map(abs, v)))))
        return ClosedSet.ray(X, draw(pt), u)
    pieces = draw(st.lists(
        st.tuples(pt, st.floats(min_value=0.0, max_value=5.0)) if kind == "balls"
        else st.tuples(pt, pt) if kind in ("boxes", "segments") else pt,
        min_size=1, max_size=4))
    if kind == "boxes":
        pieces = [(tuple(map(min, p, q)), tuple(map(max, p, q))) for p, q in pieces]
    return getattr(ClosedSet, kind)(X, pieces)


@st.composite
def queries(draw, A, coords=coord):
    pt = st.tuples(*[coords] * A.space.dim)
    return draw(st.lists(pt, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nd_dist_to_set_is_the_batched_entry(data):
    A = data.draw(nd_sets(data.draw(st.sampled_from((coord, spread_coord)))))
    X = data.draw(queries(A))
    d = dists_to_set(X, A)
    assert d.shape == (len(X),)
    for i, x in enumerate(X):
        assert dist_to_set(x, A) == d[i]
    # the branch-and-bound reads the same formula, piece by piece
    assert (_kernel(np.array(X), A.array_form)[0].min(axis=0) == d).all()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nd_distances_stay_within_the_allowance_of_the_exact_distance(data):
    coords = data.draw(st.sampled_from((coord, spread_coord)))
    A = data.draw(nd_sets(coords))
    X = data.draw(queries(A, coords))
    n = A.space.dim
    scale = max(A.array_form.scale, max(abs(v) for x in X for v in x))
    a = Fraction(_allowance(n, scale))
    for x, d in zip(X, dists_to_set(X, A)):
        assert brackets([dist_terms(x, A)], Fraction(d) - a, Fraction(d) + a)


line_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def one_d_sets(draw):
    space = draw(st.sampled_from((AmbientSpace.line(), AmbientSpace.euclidean(1),
                                  AmbientSpace.open_interval(-100.0, 100.0))))
    kind = draw(st.sampled_from(("points", "intervals", "balls", "ray")))
    if kind == "ray" and space.kind != "open-interval":
        return space, ClosedSet.ray(space, draw(line_coord), draw(st.sampled_from((-1.0, 1.0))))
    if kind == "balls" and space.kind == "euclidean":
        balls = draw(st.lists(st.tuples(line_coord, st.floats(0.0, 5.0)), min_size=1, max_size=4))
        return space, ClosedSet.balls(space, [((c,), r) for c, r in balls])
    inner = st.floats(min_value=-99.0, max_value=99.0)
    if kind == "points" or space.kind == "euclidean":
        return space, ClosedSet.points(space, draw(st.lists(inner, min_size=1, max_size=6)))
    ivs = draw(st.lists(st.tuples(inner, inner), min_size=1, max_size=4))
    return space, ClosedSet.intervals(space, [tuple(sorted(iv)) for iv in ivs])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_1d_dist_to_set_is_the_batched_entry(data):
    space, A = data.draw(one_d_sets())
    xs = data.draw(st.lists(st.floats(min_value=-99.5, max_value=99.5), min_size=1, max_size=6))
    rows = [(x,) for x in xs] if data.draw(st.booleans()) else xs
    d = dists_to_set(rows, A)
    for i, x in enumerate(rows):
        assert dist_to_set(x, A) == d[i]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_finite_dist_to_set_is_the_batched_entry(data):
    grid = st.integers(-20, 20)
    pts = data.draw(st.lists(st.tuples(grid, grid), min_size=2, max_size=7, unique=True))
    F = AmbientSpace.finite([[math.dist(p, q) for q in pts] for p in pts])
    idx = st.integers(0, len(pts) - 1)
    A = ClosedSet.points(F, data.draw(st.lists(idx, min_size=1, max_size=len(pts))))
    X = data.draw(st.lists(idx, min_size=1, max_size=8))
    d = dists_to_set(X, A)
    for i, x in enumerate(X):
        assert dist_to_set(x, A) == d[i]


def test_nd_distances_do_not_under_or_overflow():
    A = ClosedSet.points(E2, [(0.0, 0.0)])
    for x in [(0.0, 1e-200), (3e-200, 4e-200), (0.0, 5e-324), (1e200, 0.0), (3e200, 4e200),
              (1e308, 1e308)]:
        assert dist_to_set(x, A) == math.hypot(*x)
    B = ClosedSet.balls(E2, [((0.0, 0.0), 1e-300)])
    assert dist_to_set((0.0, 3e-300), B) == 3e-300 - 1e-300


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dists_to_set_rejects_non_finite_rows(bad):
    A = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    with pytest.raises(ValueError):
        dists_to_set([(0.0, 1.0), (bad, 0.0)], A)
    with pytest.raises(ValueError):
        dists_to_set(np.array([[0.0, 1.0, 2.0]]), A)  # a row of the wrong length
    L = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        dists_to_set([0.5, bad], L)
    U = AmbientSpace.open_interval(0.0, 1.0)
    with pytest.raises(ValueError):
        dists_to_set([0.5, 1.5], ClosedSet.points(U, [0.5]))
    F = AmbientSpace.finite([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        dists_to_set([0, 2], ClosedSet.points(F, [0]))


# coordinates from 1e-300 to 1e300, so that offsets square into the
# subnormals or past the largest float
wide_coord = st.one_of(st.just(0.0), st.builds(
    lambda s, e: s * 10.0 ** e, st.sampled_from((-1.0, 1.0)), st.floats(min_value=-300.0, max_value=300.0)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_kernel_and_the_query_share_one_norm_at_every_scale(data):
    A = data.draw(nd_sets(wide_coord))
    X = data.draw(queries(A, wide_coord))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is repaired, not printed
        d = dists_to_set(X, A)
        D = _kernel(np.array(X), A.array_form)[0]
    assert (D.min(axis=0) == d).all()
    assert np.isfinite(d).all()  # coordinates stay below 1e300, so every distance is finite


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_distances_only_kernel_reads_the_kernels_distances(data):
    # the vertex table and the per-piece query skip the gradients; their
    # distances are the kernel's, bit for bit, at every scale
    coords = data.draw(st.sampled_from((coord, spread_coord, wide_coord)))
    A = data.draw(nd_sets(coords))
    X = np.array(data.draw(queries(A, coords)))
    D, _ = _kernel(X, A.array_form)
    D_only, G = _kernel(X, A.array_form, grads=False)
    assert G is None and D_only.shape == D.shape and (D_only == D).all()
    assert _piece_dists(X[0], A) == D[:, 0].tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_over_several_sets_gives_each_sets_distances(data):
    # sets at different scales share a pass: where one of them makes it
    # fall back to the scaled norm, the others keep their floats; on a 1-D
    # ambient the pass is one table over the sets' intervals
    n = data.draw(st.sampled_from((1, 2, 3)))
    count = data.draw(st.integers(1, 4))
    if n == 1:
        space, A = data.draw(one_d_sets())
        sets_ = [A] + [data.draw(one_d_sets().filter(lambda p: p[0] == space))[1]
                       for _ in range(count - 1)]
        X = [(x,) for x in data.draw(st.lists(st.floats(-99.0, 99.0), min_size=1, max_size=6))]
    else:
        scales = st.sampled_from((coord, spread_coord, wide_coord))
        sets_ = [data.draw(nd_sets(data.draw(scales), dims=(n,))) for _ in range(count)]
        X = data.draw(queries(sets_[0], data.draw(scales)))
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):  # a pass of one query point at a time
            mp.setattr(sets, "_CHUNK_BYTES", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = _dists_each(np.array(X, dtype=float), _Stack(sets_))
    assert D.shape == (len(sets_), len(X))
    for row, A in zip(D, sets_):
        assert row.tolist() == dists_to_set(X, A).tolist()


def clouds(coords, n):
    pt = st.tuples(*[coords] * n)
    return st.builds(lambda pts, h: ClosedSet.cloud(AmbientSpace.euclidean(n), pts, h),
                     st.lists(pt, min_size=1, max_size=4), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_block_of_gaps_gives_each_sets_gap(data):
    # each set of a block and the obstacle at its own scale, so that one of
    # them can make a pass fall back to the scaled norm while the others
    # do not; obstacles of every kind, unbounded ones too
    n = data.draw(st.sampled_from((1, 2, 3)))
    if n == 1:
        space, K = data.draw(one_d_sets())
        member = one_d_sets().filter(lambda p: p[0] == space).map(lambda p: p[1])
    else:
        member = st.sampled_from((coord, spread_coord, wide_coord)).flatmap(
            lambda c: st.one_of(nd_sets(c, dims=(n,)), clouds(c, n)))
        K = data.draw(member)
    sets_ = data.draw(st.lists(member, min_size=1, max_size=5))
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):  # a pass of one query point at a time
            mp.setattr(sets, "_CHUNK_BYTES", 1)
        got = _gaps_each(_Stack(sets_), K).tolist()
    assert [g.hex() for g in got] == [set_gap(A, K).hex() for A in sets_]


def test_the_projection_onto_a_long_segment_does_not_overflow():
    S = ClosedSet.segments(E2, [((0.0, 0.0), (0.0, -1e155))])
    assert dist_to_set((1.0, -5e154), S) == 1.0


@pytest.mark.parametrize("A", [
    ClosedSet.points(E2, [(0.0, 1e-200)]),
    ClosedSet.boxes(E2, [((1e-200, 1e-200), (1.0, 1.0))]),
    ClosedSet.segments(E2, [((1e-200, -1.0), (1e-200, 1.0))]),
    ClosedSet.balls(E2, [((3e-200, 0.0), 1e-200)]),
])
def test_the_kernel_does_not_underflow(A):
    x = np.array([[0.0, 0.0]])
    d = _kernel(x, A.array_form)[0][0, 0]
    assert d > 0.0 and d == dist_to_set((0.0, 0.0), A)
    rel = Fraction(d) * Fraction(1e-15)
    assert brackets([dist_terms((0.0, 0.0), A)], Fraction(d) - rel, Fraction(d) + rel)


@pytest.mark.parametrize("A", [
    ClosedSet.points(E2, [(1.0, 2.0)]),
    ClosedSet.points(AmbientSpace.euclidean(3), [(1.0, 2.0, 3.0)]),
    ClosedSet.balls(E2, [((0.0, 0.0), 1.0)]),
    ClosedSet.points(LINE, [1.0]),
    ClosedSet.points(AmbientSpace.euclidean(1), [(1.0,)]),
    ClosedSet.intervals(AmbientSpace.open_interval(0.0, 1.0), [(0.25, 0.5)]),
    ClosedSet.points(AmbientSpace.finite([[0, 1], [1, 0]]), [0]),
])
def test_an_empty_batch_has_no_distances(A):
    batches = [[], np.empty((0,))]
    if A.space.kind == "euclidean":
        batches.append(np.empty((0, A.space.dim)))
    for X in batches:
        assert dists_to_set(X, A).shape == (0,)


def _reference_points(space, pts):
    """The points of pts, one canon_point per point, sorted and distinct:
    what ClosedSet.points and ClosedSet.cloud must keep."""
    canon = tuple(sorted({space.canon_point(p) for p in pts}))
    if not canon:
        raise ValueError("a closed set must be nonempty")
    return canon


_GRID = st.sampled_from((-1.5, -0.0, 0.0, 2.0, 1e-300, 7.25, 3, -2, 0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_points_from_an_array_are_the_points_of_its_rows(data):
    space = data.draw(st.sampled_from((LINE, E1, E2, E3)))
    width = 1 if space.kind == "line" else space.dim
    grid = st.sampled_from((-1.5, -0.0, 0.0, 2.0, 1e-300, 7.25))
    rows = data.draw(st.lists(st.lists(grid, min_size=width, max_size=width), min_size=1, max_size=8))
    A = ClosedSet.points(space, np.array(rows))
    expected = _reference_points(space, [tuple(r) for r in rows])
    assert repr(A.rep.points) == repr(expected)
    assert all(type(v) is float for p in A.rep.points for v in (p if isinstance(p, tuple) else (p,)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_points_and_clouds_keep_the_points_canon_point_gives(data):
    space = data.draw(st.sampled_from((LINE, E1, E2, E3)), label="space")
    width = 1 if space.kind == "line" else space.dim
    coords = data.draw(st.lists(st.lists(_GRID, min_size=width, max_size=width),
                                min_size=1, max_size=12))
    forms = ["tuples", "lists", "array", "generator"]
    if width == 1:
        forms.append("scalars")  # bare coordinates on the line and in E^1
    form = data.draw(st.sampled_from(forms), label="form")

    def make():
        if form == "tuples":
            return [tuple(c) for c in coords]
        if form == "lists":
            return [list(c) for c in coords]
        if form == "scalars":
            return [c[0] for c in coords]
        if form == "generator":
            return (tuple(c) for c in coords)
        # a float array, one row per point (bare coordinates on the line)
        X = np.array(coords, dtype=float)
        return X[:, 0] if space.kind == "line" else X

    expected = repr(_reference_points(space, make()))
    A = ClosedSet.points(space, make())
    C = ClosedSet.cloud(space, make(), 0.5)
    assert repr(A.rep.points) == expected and repr(C.rep.points) == expected
    for S in (A, C):
        ref = np.array(S.rep.points, dtype=float)
        assert S.coords.shape == ref.shape and S.coords.tobytes() == ref.tobytes()
        assert not S.coords.flags.writeable


_MALFORMED = [
    (LINE, [0.0, math.nan]),
    (E2, [(0.0, 1.0), (math.nan, 0.0)]),
    (LINE, [math.inf]),
    (E2, [(0.0, -math.inf)]),
    (E2, [(1.0, 2.0), (3.0,)]),  # ragged rows
    (LINE, [(1.0,), (2.0, 3.0)]),
    (E2, [(1.0, 2.0, 3.0)]),  # a wrong width
    (LINE, [(1.0, 2.0)]),
    (E1, [(1.0, 2.0)]),
    (E2, [1.0, 2.0]),
    (LINE, []),
    (E2, []),
    (LINE, ["abc"]),
    (E2, [("a", "b")]),
    (LINE, [math.nan, 10**400]),  # the first bad point decides
    (E2, [(0.0, 10**400)]),
]


@pytest.mark.parametrize("space, pts", _MALFORMED + [
    (E2, np.array([[0.5, 1.0], [np.nan, 1.0]])),
    (E2, np.array([[0.5, np.inf]])),
    (LINE, np.array([0.5, -np.inf])),
    (E2, np.array([[1.0, 2.0, 3.0]])),
    (E2, np.empty((0, 2))),
])
def test_malformed_points_raise_the_per_point_error(space, pts):
    # an array's rows are reported as tuples of floats
    ref_pts = ([tuple(v) if isinstance(v, list) else v for v in pts.tolist()]
               if isinstance(pts, np.ndarray) else pts)
    with pytest.raises(Exception) as ref:
        _reference_points(space, ref_pts)
    makers = [lambda p: ClosedSet.points(space, p), lambda p: ClosedSet.cloud(space, p, 0.5)]
    if not isinstance(pts, np.ndarray):  # a generator of the same points
        makers.append(lambda p: ClosedSet.points(space, (q for q in p)))
    for make in makers:
        with pytest.raises(type(ref.value)) as got:
            make(pts)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("space", [LINE, E2])
def test_points_from_a_non_finite_array_raise_the_per_point_error(space):
    width = 1 if space.kind == "line" else 2
    rows = [[0.5] * width, [math.nan] + [1.0] * (width - 1)]
    with pytest.raises(ValueError) as fast:
        ClosedSet.points(space, np.array(rows))
    with pytest.raises(ValueError) as slow:
        ClosedSet.points(space, [tuple(r) for r in rows])
    assert str(fast.value) == str(slow.value)
    with pytest.raises(ValueError):
        ClosedSet.points(space, np.empty((0, width)))


# ---------------------------------------------------------------------------
# set_gap, excess and is_subset read the same kernel


# The scalar closed forms of the gap between two box, segment or ray
# pieces, on Fractions.  The nearest parameters of two such pieces are
# rational in their coordinates, so on floats (dyadic rationals) each form
# gives the exact squared gap.


def exact_line(piece):
    """A segment or ray as (origin, direction, tmax), exactly; tmax None
    for a ray."""
    kind, (p, q) = piece
    p, q = [Fraction(v) for v in p], [Fraction(v) for v in q]
    if kind == "segment":
        return p, [b - a for a, b in zip(p, q)], Fraction(1)
    return p, q, None


def clamp(v, lo, hi):
    return max(lo, v) if hi is None else min(hi, max(lo, v))


def exact_line_line(p1, d1, t1max, p2, d2, t2max):
    """The squared gap between p1 + t d1, t in [0, t1max], and p2 + s d2,
    s in [0, t2max], by the clamped closed form (Lumelsky 1985), and the
    nearest points' largest absolute coordinate."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    r = [a - b for a, b in zip(p1, p2)]
    a, e, b, c, f = dot(d1, d1), dot(d2, d2), dot(d1, d2), dot(d1, r), dot(d2, r)
    if a == 0 and e == 0:
        t = s = 0
    elif a == 0:
        t, s = 0, clamp(f / e, 0, t2max)
    elif e == 0:
        t, s = clamp(-c / a, 0, t1max), 0
    else:
        denom = a * e - b * b
        t = clamp((b * f - c * e) / denom, 0, t1max) if denom > 0 else 0
        s = (b * t + f) / e
        if s < 0:
            s, t = 0, clamp(-c / a, 0, t1max)
        elif t2max is not None and s > t2max:
            s, t = t2max, clamp((b * t2max - c) / a, 0, t1max)
    reach = max(abs(v) for p, d, k in ((p1, d1, t), (p2, d2, s)) for v in (a + k * b for a, b in zip(p, d)))
    return sum((ri + t * x - s * y) ** 2 for ri, x, y in zip(r, d1, d2)), reach


def exact_line_box_sq(p, d, tmax, lo, hi):
    """The squared gap between p + t d, t in [0, tmax], and the box
    [lo, hi]: the squared distance along the line is convex and one
    quadratic between the crossings of the box's slabs, so the least is at
    a crossing or at the vertex of one piece."""
    def value(t):
        return sum(max(l - (pi + t * di), pi + t * di - h, 0) ** 2
                   for pi, di, l, h in zip(p, d, lo, hi))

    ts = {Fraction(0)} | ({tmax} if tmax is not None else set())
    ts |= {t for pi, di, l, h in zip(p, d, lo, hi) if di for t in ((l - pi) / di, (h - pi) / di)
           if 0 < t and (tmax is None or t < tmax)}
    knots = sorted(ts)
    best = min(value(t) for t in knots)
    for ta, tb in zip(knots, knots[1:] + ([None] if tmax is None else [])):
        mid = ta + 1 if tb is None else (ta + tb) / 2
        alpha, beta = [], []
        for pi, di, l, h in zip(p, d, lo, hi):
            if pi + mid * di < l:
                alpha.append(l - pi)
                beta.append(-di)
            elif pi + mid * di > h:
                alpha.append(pi - h)
                beta.append(di)
        if not alpha:
            return Fraction(0)  # the line runs through the box on this piece
        bb = sum(x * x for x in beta)
        if bb:
            t = -sum(x * y for x, y in zip(alpha, beta)) / bb
            if ta < t and (tb is None or t < tb):
                best = min(best, value(t))
    return best


def exact_pair_sq(piece_a, piece_b):
    """The squared gap between two box, segment or ray pieces, exactly."""
    order = {"box": 0, "segment": 1, "ray": 2}
    if order[piece_a[0]] > order[piece_b[0]]:
        piece_a, piece_b = piece_b, piece_a
    if piece_a[0] != "box":
        return exact_line_line(*exact_line(piece_a), *exact_line(piece_b))[0]
    lo, hi = ([Fraction(v) for v in corner] for corner in piece_a[1])
    if piece_b[0] == "box":
        lo2, hi2 = ([Fraction(v) for v in corner] for corner in piece_b[1])
        return sum(max(0, l2 - h1, l1 - h2) ** 2 for l1, h1, l2, h2 in zip(lo, hi, lo2, hi2))
    return exact_line_box_sq(*exact_line(piece_b), lo, hi)


def gap_scale(A, B):
    """The scale of the rounding allowance of set_gap(A, B): the sets'
    largest coordinate, or, for two rays, the nearest points' one when
    larger.  Two nearly parallel rays can be nearest far beyond every
    coordinate of the data, and their gap is rounded at that scale."""
    scale = max(A.array_form.scale, B.array_form.scale)
    if isinstance(A.rep, Ray) and isinstance(B.rep, Ray):
        reach = exact_line_line(*exact_line(A.components()[0]), *exact_line(B.components()[0]))[1]
        scale = max(scale, float(min(reach, Fraction(sys.float_info.max))))
    return scale


def gap_terms(A, B):
    """The one row of brackets for set_gap(A, B): read from a point or
    ball side, else every pair of pieces by its exact squared gap."""
    for P, Q in ((A, B), (B, A)):
        if isinstance(P.rep, FinitePoints):
            return [[t for x in P.rep.points for t in dist_terms(x, Q)]]
        if isinstance(P.rep, BallUnion):
            return [[t for c, r in P.rep.balls for t in dist_terms(c, Q, r)]]
    return [[(exact_pair_sq(a, b), Fraction(0)) for a in A.components() for b in B.components()]]


def vertices(piece):
    kind, data = piece
    if kind == "box":
        return list(itertools.product(*zip(*data)))
    return list(data) if kind == "segment" else [data if kind == "point" else data[0]]


def exactly_parallel(u, v):
    """u = lam * v for some lam > 0, read in Fractions: lam from the first
    nonzero entry of v, then every entry checked."""
    u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
    i = next(i for i, x in enumerate(v) if x)
    lam = u[i] / v[i]
    return lam > 0 and all(a == lam * b for a, b in zip(u, v))


def excess_terms(A, B):
    """The rows of brackets for excess(A, B) (from its points, from the
    vertices of its pieces, or from its balls' centres, out by the
    radius), math.inf where it is infinite, None where it has no closed
    form."""
    if isinstance(A.rep, FinitePoints):
        return [dist_terms(x, B) for x in A.rep.points]
    if isinstance(A.rep, Ray):
        if is_bounded(B):
            return math.inf
        if not isinstance(B.rep, Ray):
            return None
        if exactly_parallel(A.rep.axis, B.rep.axis):
            return [dist_terms(A.rep.anchor, B)]
        return math.inf
    if len(B.components()) > 1:
        return None
    if isinstance(A.rep, BallUnion):
        return [dist_terms(c, B, -r) for c, r in A.rep.balls]
    return [dist_terms(v, B) for piece in A.components() for v in vertices(piece)]


eighths = st.integers(-400, 400).map(lambda i: i / 8.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_farthest_distances_stay_within_the_allowance_of_the_exact_value(data):
    # every float is a dyadic rational, so the squared distance from a
    # query to each vertex is exact in Fractions; eighths make ties
    coords = data.draw(st.sampled_from((coord, spread_coord, eighths)))
    A = data.draw(nd_sets(coords))
    X = data.draw(queries(A, coords))
    F = _far_dists(np.array(X, dtype=float), [A])
    assert F.shape == (len(A.components()), len(X))
    scale = max(A.array_form.scale, max(abs(v) for x in X for v in x))
    a = Fraction(_allowance(A.space.dim, scale))
    for piece, row in zip(A.components(), F):
        kind, data_ = piece
        for x, f in zip(X, row):
            if kind == "ray":
                assert f == math.inf
                continue
            r = Fraction(data_[1]) if kind == "ball" else Fraction(0)
            terms = [[(sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(x, v)), r)]
                     for v in vertices(piece)]
            assert brackets(terms, Fraction(f) - a, Fraction(f) + a)
    # one point's row is the per-piece list, and a block of sets stacks theirs
    assert _piece_fars(X[0], A) == F[:, 0].tolist()
    assert (_far_dists(np.array(X, dtype=float), [A, A]) == np.concatenate([F, F])).all()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_per_piece_max_is_the_same_at_every_chunk_size(data):
    # pieces own runs of one to eight vertex rows; chunks are cut on piece
    # boundaries, and a table of one row per piece comes back as it is
    runs = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=12))
    owner = np.repeat(np.arange(len(runs)), runs)
    T = np.array(data.draw(st.lists(st.lists(coord, min_size=3, max_size=3),
                                    min_size=len(owner), max_size=len(owner))))
    expected = np.array([T[owner == i].max(axis=0) for i in range(len(runs))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets, "_CHUNK_BYTES", data.draw(st.sampled_from((1, 24 * 5, 1 << 22))))
        got = sets._max_per_piece(lambda sl: T[sl], owner, 24)
        assert (got == expected).all()
        if all(r == 1 for r in runs):
            assert (got == T).all()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nd_set_gap_and_excess_stay_within_the_allowance_of_the_exact_value(data):
    # every kind pair; eighths make pieces touch, overlap and run parallel
    coords = data.draw(st.sampled_from((coord, spread_coord, eighths)))
    A = data.draw(nd_sets(coords))
    B = data.draw(nd_sets(coords, dims=(A.space.dim,)))
    a = Fraction(_allowance(A.space.dim, gap_scale(A, B)))
    terms = gap_terms(A, B)
    for g in (set_gap(A, B), set_gap(B, A)):
        assert brackets(terms, Fraction(g) - a, Fraction(g) + a)
    a = Fraction(_allowance(A.space.dim, max(A.array_form.scale, B.array_form.scale)))
    terms = excess_terms(A, B)
    if terms is None:
        with pytest.raises(UnsupportedPair):
            excess(A, B)
        return
    try:
        e = excess(A, B)
    except UnsupportedPair:
        # a ball that meets a target of another kind has no closed form
        assert isinstance(A.rep, BallUnion) and not isinstance(B.rep, BallUnion)
        assert any(brackets([dist_terms(c, B)], 0, a) for c, _ in A.rep.balls)
        return
    if terms is math.inf:
        assert e.is_infinite
    else:
        assert e.is_exact and brackets(terms, Fraction(e.lo) - a, Fraction(e.lo) + a)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nearly_parallel_lines_that_cross_stay_within_the_allowance(data):
    # two segments or rays through one point at an angle of 2^-k: the
    # nearest parameters are ill-conditioned there, the gap is not
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    pt = st.tuples(*[coord] * n)
    c = np.array(data.draw(pt))
    u = np.array(data.draw(pt.filter(lambda v: math.hypot(*v) > 1.0)))
    w = np.array(data.draw(pt.filter(lambda v: math.hypot(*v) > 1.0)))
    v = u + 2.0 ** -data.draw(st.integers(5, 60)) * w
    sets_ = []
    for d in (u, v):
        back, ahead = data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 2.0))
        if data.draw(st.booleans()):
            sets_.append(ClosedSet.segments(X, [(tuple(c - back * d), tuple(c + ahead * d))]))
        else:
            sets_.append(ClosedSet.ray(X, tuple(c - back * d), tuple(d)))
    A, B = sets_
    a = Fraction(_allowance(n, gap_scale(A, B)))
    g = set_gap(A, B)
    assert g == set_gap(B, A)
    assert brackets(gap_terms(A, B), Fraction(g) - a, Fraction(g) + a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_piece_pair_gaps_hold_at_every_scale(data):
    # from 1e-300 to 1e300 no product of the pair rules under- or
    # overflows: both sets are scaled by one power of two first
    n = data.draw(st.sampled_from((2, 3)))
    A, B = (data.draw(nd_sets(wide_coord, dims=(n,)).filter(
        lambda S: not isinstance(S.rep, (FinitePoints, BallUnion)))) for _ in range(2))
    a = Fraction(_allowance(n, gap_scale(A, B)))
    g = set_gap(A, B)
    assert math.isfinite(g) and g == set_gap(B, A)
    assert brackets(gap_terms(A, B), Fraction(g) - a, Fraction(g) + a)


segs, boxes = ClosedSet.segments, ClosedSet.boxes


@pytest.mark.parametrize("A, B", [
    # a zero-length segment, and flat boxes
    (segs(E2, [((1.0, 1.0), (1.0, 1.0))]), segs(E2, [((3.0, 0.0), (3.0, 2.5))])),
    (segs(E3, [((0.5, 0.5, 2.0), (0.5, 0.5, 2.0))]), boxes(E3, [((0.0, 0.0, 0.0), (1.0, 1.0, 0.0))])),
    (boxes(E2, [((0.0, 0.0), (0.0, 2.0))]), boxes(E2, [((1.5, -1.0), (3.0, -1.0))])),
    (boxes(E3, [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))]), segs(E3, [((0.25, 1.0, 1.0), (2.0, 0.5, 3.0))])),
    (ClosedSet.ray(E3, (-1.0, 0.5, 0.0), (1.0, 0.0, 0.0)), boxes(E3, [((0.0, 0.0, 0.25), (2.0, 1.0, 0.25))])),
    # parallel, antiparallel and collinear segments and rays
    (segs(E2, [((0.0, 0.0), (2.0, 1.0))]), segs(E2, [((1.0, 1.5), (3.0, 2.5))])),
    (segs(E2, [((0.0, 0.0), (2.0, 1.0))]), segs(E2, [((3.0, 2.5), (1.0, 1.5))])),
    (segs(E3, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))]), segs(E3, [((2.0, 2.0, 2.0), (3.0, 3.0, 3.0))])),
    (segs(E2, [((0.0, 0.0), (1.0, 0.0))]), ClosedSet.ray(E2, (-3.0, 0.0), (-1.0, 0.0))),
    (ClosedSet.ray(E2, (0.0, 1.0), (1.0, 0.0)), ClosedSet.ray(E2, (5.0, 0.0), (-1.0, 0.0))),
    (ClosedSet.ray(E3, (0.0, 1.0, 0.0), (0.6, 0.0, 0.8)), ClosedSet.ray(E3, (3.0, 0.0, 4.0), (0.6, 0.0, 0.8))),
    (ClosedSet.ray(E2, (2.0, 0.0), (1.0, 0.0)), ClosedSet.ray(E2, (-2.0, 0.0), (-1.0, 0.0))),
    # skew lines, and a ray whose nearest point is past the other's end
    (segs(E3, [((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))]), segs(E3, [((1.0, -1.0, 1.0), (1.0, 1.0, 1.0))])),
    (ClosedSet.ray(E3, (0.0, 0.0, 0.0), (0.0, 0.6, 0.8)), segs(E3, [((-1.0, -2.0, 0.5), (1.0, -2.0, 0.5))])),
])
def test_degenerate_piece_pairs_match_the_exact_gap(A, B):
    a = Fraction(_allowance(A.space.dim, gap_scale(A, B)))
    g = set_gap(A, B)
    assert g == set_gap(B, A) > 0.0
    assert brackets(gap_terms(A, B), Fraction(g) - a, Fraction(g) + a)


@pytest.mark.parametrize("A, B", [
    # a ray that starts inside a box, and one that enters through a face
    (ClosedSet.ray(E2, (0.5, 0.5), (0.6, 0.8)), boxes(E2, [((0.0, 0.0), (1.0, 1.0))])),
    (ClosedSet.ray(E2, (-1.0, 3.0), (0.6, -0.8)), boxes(E2, [((0.0, 0.0), (1.0, 1.0))])),
    # segments through a box, ending on a face, or crossing an edge
    (segs(E3, [((-1.0, 0.5, 0.5), (3.0, 0.5, 0.5))]), boxes(E3, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])),
    (segs(E3, [((1.0, 0.25, 0.75), (2.0, 2.0, 2.0))]), boxes(E3, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])),
    (segs(E3, [((2.0, 0.0, 0.5), (0.0, 2.0, 0.5))]), boxes(E3, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])),
    # boxes sharing a face or a corner, a flat box inside another
    (boxes(E2, [((1.0, 0.0), (2.0, 1.0))]), boxes(E2, [((0.0, 0.0), (1.0, 1.0))])),
    (boxes(E3, [((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))]), boxes(E3, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])),
    (boxes(E3, [((0.25, 0.25, 0.5), (0.75, 0.75, 0.5))]), boxes(E3, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])),
    # crossing, touching and overlapping collinear segments and rays
    (segs(E2, [((0.0, 0.0), (2.0, 2.0))]), segs(E2, [((0.0, 2.0), (2.0, 0.0))])),
    (segs(E3, [((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))]), segs(E3, [((1.0, 2.0, 3.0), (4.0, 0.0, 1.0))])),
    (segs(E2, [((0.0, 0.0), (2.0, 0.0))]), segs(E2, [((1.0, 0.0), (3.0, 0.0))])),
    (ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0)), segs(E2, [((4.0, -1.0), (4.0, 1.0))])),
    (ClosedSet.ray(E3, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), ClosedSet.ray(E3, (0.0, 0.0, 5.0), (0.0, 0.0, -1.0))),
    (ClosedSet.ray(E2, (1.0, 1.0), (1.0, 0.0)), ClosedSet.ray(E2, (3.0, 0.0), (0.0, 1.0))),
])
def test_touching_piece_pairs_have_a_gap_of_exactly_zero(A, B):
    assert set_gap(A, B) == set_gap(B, A) == 0.0
    assert min(S for S, _ in gap_terms(A, B)[0]) == 0


def test_a_scan_of_segment_terms_against_box_obstacles_keeps_its_report():
    # the first obstacle is touched at k = 4 and cleared from k = 5; the
    # second is crossed by every term
    K = boxes(E2, [((0.0, 0.0), (1.0, 1.0))])

    def seq(k):
        return segs(E2, [((2.0 - 4.0 / k, 0.5), (3.0, 0.5)),
                         ((0.5, 3.0), (0.5 + 1.0 / k, 1.0 + 1.0 / k))])

    spec = neighborhood(Constraint.miss(K),
                        Constraint.miss(boxes(E2, [((0.25, 1.0), (0.75, 1.5))])),
                        Constraint.hit(OpenSetRep.ball_union(E2, [((2.5, 0.5), 0.1)])))
    rep = converges(seq, spec, horizon=60)
    assert not rep.passed
    assert [(e.passed, e.settles_at, e.witness) for e in rep.entries] == [
        (True, 5, 1), (False, None, 4), (True, 1, None)]
    assert [misses(seq(k), K) for k in (3, 4, 5)] == [False, False, True]


# a grid of quarters, on which every kernel distance below is exact:
# segments run along an axis or the diagonal of two axes with a length
# of a power of two, and rays along an axis
quarter = st.integers(-8, 8).map(lambda i: i / 4.0)


@st.composite
def grid_sets(draw, n):
    """A set of one to three pieces of one kind in R^n, on the grid."""
    X = AmbientSpace.euclidean(n)
    pt = st.tuples(*[quarter] * n)
    kind = draw(st.sampled_from(("points", "balls", "boxes", "segments", "ray")))
    if kind == "ray":
        i, sign = draw(st.integers(0, n - 1)), draw(st.sampled_from((-1.0, 1.0)))
        return ClosedSet.ray(X, draw(pt), tuple(sign if j == i else 0.0 for j in range(n)))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(pt)
        if kind == "points":
            pieces.append(p)
        elif kind == "balls":
            pieces.append((p, draw(st.integers(0, 8)) / 4.0))
        elif kind == "boxes":
            q = draw(pt)
            pieces.append((tuple(map(min, p, q)), tuple(map(max, p, q))))
        else:
            length = 2.0 ** draw(st.integers(-2, 2))
            v = [0.0] * n
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
                v[i] = draw(st.sampled_from((-length, length)))
            pieces.append((p, tuple(pi + vi for pi, vi in zip(p, v))))
    return getattr(ClosedSet, kind)(X, pieces)


def points_on(piece):
    """A few points of an n-D piece of a grid set, exactly on it."""
    kind, data = piece
    if kind == "point":
        return [data]
    if kind == "ball":
        c, r = data
        return [c] + [tuple(x + s if j == i else x for j, x in enumerate(c))
                      for i in range(len(c)) for s in (-r, r)]
    if kind == "box":
        return vertices(piece)
    p, v = data
    if kind == "segment":
        v = tuple(q - a for a, q in zip(p, v))
        ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    else:
        ts = (0.0, 0.5, 1.0, 3.0)
    return [tuple(a + t * w for a, w in zip(p, v)) for t in ts]


@st.composite
def grid_parts(draw, B):
    """Points, a segment or a box spanned by points on one piece of B."""
    pick = st.sampled_from(points_on(draw(st.sampled_from(B.components()))))
    kind = draw(st.sampled_from(("points", "segments", "boxes")))
    if kind == "points":
        return ClosedSet.points(B.space, draw(st.lists(pick, min_size=1, max_size=3)))
    p, q = draw(pick), draw(pick)
    if kind == "segments":
        return ClosedSet.segments(B.space, [(p, q)])
    return ClosedSet.boxes(B.space, [(tuple(map(min, p, q)), tuple(map(max, p, q)))])


def ref_is_subset(A, B):
    """is_subset(A, B) in exact arithmetic: a piece fits a target
    piece when its vertices lie in it, a ball by closed form in a ball or
    a box; "unsupported" where no single target piece takes a piece of A
    and there are several."""
    targets = B.components()

    def within(x, target, out=0.0):  # x, moved out by out, lies in target
        S, r = exact_piece(x, target)
        return r - Fraction(out) >= 0 and S <= (r - Fraction(out)) ** 2

    def fits(piece, target):
        kind, data = piece
        if kind == "ball" and target[0] == "ball":
            (c, r), (c2, r2) = data, target[1]
            S = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(c, c2))
            return r2 - r >= 0 and S <= (Fraction(r2) - Fraction(r)) ** 2
        if kind == "ball" and target[0] == "box":
            (c, r), (lo, hi) = data, target[1]
            return all(l <= Fraction(x) - Fraction(r) and Fraction(x) + Fraction(r) <= h
                       for x, l, h in zip(c, lo, hi))
        out = data[1] if kind == "ball" else 0.0
        return all(within(v, target, out) for v in vertices(piece))

    if isinstance(A.rep, FinitePoints):
        return all(any(within(x, t) for t in targets) for x in A.rep.points)
    if isinstance(A.rep, Ray):
        if all(kind != "ray" for kind, _ in targets):
            return False
        # a ray fits a one-piece target or does not; its direction is read
        # as given (the axis), not as its rounded unit vector
        fits_a_ray = any(kind == "ray" and exactly_parallel(A.rep.axis, B.rep.axis)
                         and within(A.rep.anchor, (kind, data)) for kind, data in targets)
        return fits_a_ray or (False if len(targets) == 1 else "unsupported")
    for piece in A.components():
        if not any(fits(piece, t) for t in targets):
            return False if len(targets) == 1 else "unsupported"
    return True


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_is_subset_agrees_with_an_exact_vertex_reference(data):
    n = data.draw(st.sampled_from((2, 3)))
    B = data.draw(grid_sets(n))
    A = data.draw(st.one_of(grid_sets(n), grid_parts(B)))
    expected = ref_is_subset(A, B)
    if expected == "unsupported":
        with pytest.raises(UnsupportedPair):
            is_subset(A, B)
    else:
        assert is_subset(A, B) is expected


def test_rays_run_parallel_only_in_exactly_one_direction():
    flat = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0))
    tilted = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 1e-7))
    back = ClosedSet.ray(E2, (0.0, 0.0), (-1.0, 0.0))
    # a tilt of 1e-600 rounds away in the unit vector, and would in an axis
    # scaled down to [1, 2)
    steep = ClosedSet.ray(E2, (0.0, 0.0), (1e300, 1e-300))
    assert steep.rep.direction == flat.rep.direction
    # the tilted ray's point (1e9, 100) lies 100 from the flat ray
    for A, B in ((tilted, flat), (flat, tilted), (back, flat), (steep, flat)):
        assert excess(A, B).is_infinite
        assert not is_subset(A, B)
    # two literals of one direction store one unit vector
    diag, twice = (ClosedSet.ray(E2, (0.0, 0.0), (s, s)) for s in (1.0, 2.0))
    assert sum(u * u for u in diag.rep.direction) < 1.0
    assert is_subset(diag, twice) and excess(diag, twice).lo == 0.0
    # an anchor 1e-10 off the flat ray is off it, as the excess certifies
    lifted = ClosedSet.ray(E2, (0.0, 1e-10), (1.0, 0.0))
    assert not is_subset(lifted, flat)
    assert excess(lifted, flat).lo == 1e-10


def test_containment_has_no_tolerance():
    # the excess certifies 5e-10, so the interval does not fit; a ball of
    # radius 1e-10 is not inside its centre
    long, unit = ClosedSet.intervals(LINE, [(0.0, 1.0 + 5e-10)]), ClosedSet.intervals(LINE, [(0.0, 1.0)])
    assert excess(long, unit).lo > 0.0 and not is_subset(long, unit)
    assert not is_subset(ClosedSet.balls(E2, [((0.0, 0.0), 1e-10)]), ClosedSet.points(E2, [(0.0, 0.0)]))
    assert not is_subset(ClosedSet.points(E2, [(1e-10, 0.0)]), ClosedSet.points(E2, [(0.0, 0.0)]))
    inner = ClosedSet.balls(E2, [((0.5, 0.0), 0.5)])
    assert is_subset(inner, ClosedSet.balls(E2, [((0.0, 0.0), 1.0)]))
    assert not is_subset(inner, ClosedSet.balls(E2, [((0.0, 0.0), 1.0 - 2.0 ** -52)]))


def test_literal_multiples_of_one_direction_are_one_ray():
    # (a, b) and k(a, b) name one ray; their rounded unit vectors can differ
    # (e.g. (1, 3) and (7, 21)), their axes stay exactly proportional
    rays = [(ClosedSet.ray(E2, (0.0, 0.0), (a, b)), ClosedSet.ray(E2, (0.0, 0.0), (k * a, k * b)))
            for a in range(1, 10) for b in range(10) for k in range(2, 10)]
    assert len(rays) == 720
    assert any(A.rep.direction != B.rep.direction for A, B in rays)
    for A, B in rays:
        assert excess(A, B).hi.as_float() == 0.0 == excess(B, A).hi.as_float()
        assert is_subset(A, B) and is_subset(B, A)

def test_flat_pieces_fit_the_lines_they_lie_on():
    ray = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0))
    seg = ClosedSet.segments(E2, [((0.0, 0.0), (4.0, 0.0))])
    flat = ClosedSet.boxes(E2, [((1.0, 0.0), (3.0, 0.0))])
    assert is_subset(ClosedSet.segments(E2, [((1.0, 0.0), (3.0, 0.0))]), ray)
    assert is_subset(flat, seg)
    assert is_subset(flat, ray)
    assert not is_subset(ClosedSet.boxes(E2, [((1.0, 0.0), (3.0, 0.5))]), seg)
