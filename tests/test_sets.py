import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermet import geom
from hypermet.errors import UnsupportedPair
from hypermet.hypermetrics import _allowance
from hypermet.sets import (BallUnion, BoxUnion, ClosedSet, FinitePoints, _kernel,
                           bounding_radius, dist_to_set, dists_to_set, in_r_neighborhood, is_bounded, is_subset,
                           representative_points, truncate, union_sets)
from hypermet.spaces import AmbientSpace

LINE = AmbientSpace.line()
E2 = AmbientSpace.euclidean(2)


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


def test_union_same_family():
    b1 = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    b2 = ClosedSet.balls(E2, [((5.0, 0.0), 2.0)])
    U = union_sets(b1, b2)
    assert len(U.rep.balls) == 2


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


# ---------------------------------------------------------------------------
# one point-to-set formula: dist_to_set is dists_to_set on one row

# coordinates whose differences square without underflow, where the old
# route through geom is accurate enough to compare against
coord = st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: v == 0.0 or abs(v) > 1e-100)
spread_coord = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
                         st.floats(min_value=-3.0, max_value=4.0))


@st.composite
def nd_sets(draw, coords=coord):
    """A set of one to four pieces of one kind in R^2 or R^3."""
    n = draw(st.sampled_from((2, 3)))
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
def test_nd_distances_stay_within_the_allowance_of_geom_gap(data):
    coords = data.draw(st.sampled_from((coord, spread_coord)))
    A = data.draw(nd_sets(coords))
    X = data.draw(queries(A, coords))
    n = A.space.dim
    scale = max(A.array_form.scale, max(abs(v) for x in X for v in x))
    for x, d in zip(X, dists_to_set(X, A)):
        old = min(geom.gap(("point", x), comp) for comp in A.components())
        assert abs(d - old) <= _allowance(n, scale)


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
    if not isinstance(A.rep, (BallUnion, BoxUnion, FinitePoints)):
        # the projection onto a segment or ray multiplies coordinates
        # unscaled, so its offsets are only sound below about 1e150
        with np.errstate(over="ignore"):
            assume(max(abs(v) for x in X for v in x) < 1e150 and A.array_form.scale < 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is repaired, not printed
        d = dists_to_set(X, A)
        D = _kernel(np.array(X), A.array_form)[0]
    assert (D.min(axis=0) == d).all()
    assert np.isfinite(d).all()  # coordinates stay below 1e300, so every distance is finite


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
    assert math.isclose(d, min(geom.gap(("point", (0.0, 0.0)), c) for c in A.components()),
                        rel_tol=1e-15)


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_points_from_an_array_are_the_points_of_its_rows(data):
    space = data.draw(st.sampled_from((LINE, AmbientSpace.euclidean(1), E2, AmbientSpace.euclidean(3))))
    width = 1 if space.kind == "line" else space.dim
    grid = st.sampled_from((-1.5, -0.0, 0.0, 2.0, 1e-300, 7.25))
    rows = data.draw(st.lists(st.lists(grid, min_size=width, max_size=width), min_size=1, max_size=8))
    A = ClosedSet.points(space, np.array(rows))
    expected = ClosedSet.points(space, [tuple(r) for r in rows])
    assert A == expected
    assert [type(p) for p in A.rep.points] == [type(p) for p in expected.rep.points]
    assert all(type(v) is float for p in A.rep.points for v in (p if isinstance(p, tuple) else (p,)))


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
