import math

import pytest

from hypermet import ClosedSet, aw_distance, dist_to_set, excess, hausdorff, set_gap
from hypermet.errors import AmbientMismatch
from hypermet.spaces import EUCLIDEAN, AmbientSpace, validate_finite_metric


def test_line_basics():
    X = AmbientSpace.line()
    assert X.dim == 1 and X.base_point == 0.0
    assert X.canon_point(3) == 3.0
    assert X.canon_point((2.5,)) == 2.5
    assert X.distance(-1.0, 2.0) == 3.0
    assert X.is_one_dimensional


def test_line_rejects_vectors():
    X = AmbientSpace.line()
    with pytest.raises(ValueError):
        X.canon_point((1.0, 2.0))


def test_euclidean_basics():
    E = AmbientSpace.euclidean(3)
    assert E.base_point == (0.0, 0.0, 0.0)
    assert E.canon_point([1, 2, 3]) == (1.0, 2.0, 3.0)
    assert E.distance((0, 0, 0), (3, 4, 0)) == 5.0
    with pytest.raises(ValueError):
        E.canon_point((1.0, 2.0))
    with pytest.raises(ValueError):
        AmbientSpace.euclidean(0)


def test_a_dimension_is_checked_on_every_call_whatever_came_before():
    # R^n at the origin is one shared instance per n; a float n must not
    # reach it after an int n of the same value has, nor a bool n store
    # a space of dim True for every later n = 1
    assert AmbientSpace.euclidean(2) is AmbientSpace.euclidean(2)
    for x0 in (None, (0.0, 0.0)):
        with pytest.raises(TypeError):
            AmbientSpace.euclidean(2.0, x0)
    E1 = AmbientSpace.euclidean(True)
    assert type(E1.dim) is int and E1 is AmbientSpace.euclidean(1)
    assert repr(AmbientSpace.euclidean(1)) == repr(AmbientSpace(EUCLIDEAN, 1, (0.0,)))


def test_euclidean_scalar_only_in_dim_one():
    E1 = AmbientSpace.euclidean(1)
    assert E1.canon_point(2) == (2.0,)
    with pytest.raises(ValueError):
        AmbientSpace.euclidean(2).canon_point(2)


def test_open_interval_membership():
    X = AmbientSpace.open_interval(0.0, 1.0)
    assert X.bounds == (0.0, 1.0)
    assert X.canon_point(0.5) == 0.5
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            X.canon_point(bad)
    with pytest.raises(ValueError):
        AmbientSpace.open_interval(1.0, 0.0)
    with pytest.raises(ValueError):
        AmbientSpace.open_interval(0.0, 1.0, x0=1.5)


def test_finite_space_validation():
    good = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    X = AmbientSpace.finite(good)
    assert X.size == 3
    assert X.distance(0, 2) == 2.0
    assert not X.contains(3)

    asym = [[0, 1], [2, 0]]
    assert validate_finite_metric(asym).axiom == "symmetry"
    with pytest.raises(ValueError):
        AmbientSpace.finite(asym)

    triangle_bad = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    assert validate_finite_metric(triangle_bad).axiom == "triangle"

    diag_bad = [[1.0]]
    assert validate_finite_metric(diag_bad) is not None


def test_require_same_rejects_mixed_spaces():
    with pytest.raises(AmbientMismatch):
        AmbientSpace.line().require_same(AmbientSpace.euclidean(2))
    AmbientSpace.line().require_same(AmbientSpace.line())


def test_distance_symmetry_random():
    import numpy as np

    rng = np.random.RandomState(0)
    E = AmbientSpace.euclidean(2)
    for _ in range(100):
        p = tuple(rng.uniform(-10, 10, 2))
        q = tuple(rng.uniform(-10, 10, 2))
        assert E.distance(p, q) == E.distance(q, p)
        assert E.distance(p, p) == 0.0
        assert math.isfinite(E.distance(p, q))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_rejected(bad):
    with pytest.raises(ValueError):
        AmbientSpace.line().canon_point(bad)
    with pytest.raises(ValueError):
        AmbientSpace.open_interval(-1.0, 1.0).canon_point(bad)
    with pytest.raises(ValueError):
        AmbientSpace.euclidean(2).canon_point((0.0, bad))
    with pytest.raises(ValueError):
        AmbientSpace.euclidean(1).canon_point(bad)
    with pytest.raises(ValueError):
        AmbientSpace.line(bad)
    with pytest.raises(ValueError):
        AmbientSpace.euclidean(2, (bad, 0.0))
    with pytest.raises(ValueError):
        validate_finite_metric([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError):
        AmbientSpace.finite([[0.0, 1.0], [1.0, bad]])


@pytest.mark.parametrize("diagonal", [-1e-10, -0.0])
def test_a_finite_space_stores_its_diagonal_as_zero(diagonal):
    # the check lets the diagonal be within 1e-9 of 0; the space keeps 0.0
    X = AmbientSpace.finite([[diagonal, 1.0], [1.0, 0.0]])
    assert X.matrix[0][0] == 0.0 and math.copysign(1.0, X.matrix[0][0]) == 1.0
    A = ClosedSet.points(X, [0])
    for cv in (hausdorff(A, A), excess(A, A), aw_distance(A, A)):
        assert repr(cv).startswith("<0.0 by ") and cv.lo == cv.hi.as_float() == 0.0
    for v in (set_gap(A, A), dist_to_set(0, A)):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0
