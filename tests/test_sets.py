import math

import numpy as np
import pytest

from hypermet.errors import UnsupportedPair
from hypermet.sets import (ClosedSet, bounding_radius, dist_to_set,
                           in_r_neighborhood, is_bounded, is_subset,
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
