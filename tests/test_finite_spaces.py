"""A finite metric space is one checked float64 matrix, read by every query.

validate_finite_metric is checked against a pure-Python reading of its
documented rule, and every finite-space query against the Python loops
over the tuple matrix that the array reads replaced.  Answers must match
those loops under ==, with the same Python types (an int witness stays an
int, a distance a float), refusals included.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermet.errors import Indeterminate, UnsupportedPair
from hypermet.hitmiss import OpenSetRep, hits, misses, subset_of
from hypermet.hypermetrics import (CertifiedValue, _combine_max, _widen, aw_distance,
                                   aw_less_than, excess, ext, hausdorff, set_gap,
                                   sup_gap_on_ball)
from hypermet.sets import ClosedSet, bounding_radius, dist_to_set, dists_to_set
from hypermet.spaces import AmbientSpace, validate_finite_metric

# ---------------------------------------------------------------------------
# the axiom check

U = 2.0 ** -53


def ref_violation(matrix):
    """The documented rule, entry by entry: (axiom, indices) of the first
    violation in row-major order, or None."""
    n = len(matrix)
    for i in range(n):
        if abs(matrix[i][i]) > 1e-9:
            return "diagonal", (i,)
    S = [[0.0 if i == j else float(v) for j, v in enumerate(row)] for i, row in enumerate(matrix)]
    for i, j in product(range(n), repeat=2):
        if i != j and not S[i][j] > 0.0:
            return "positivity", (i, j)
        if S[i][j] != S[j][i]:
            return "symmetry", (i, j)
    for i, j, k in product(range(n), repeat=3):
        if S[i][k] > (S[i][j] + S[j][k]) * (1.0 + 4.0 * U):
            return "triangle", (i, j, k)
    return None


def test_the_three_baseline_matrices():
    # the triangle inequality fails by 12%: d(0,1) = 4.5e-9 > d(0,2) + d(2,1)
    bad = validate_finite_metric([[0, 4.5e-9, 2e-9], [4.5e-9, 0, 2e-9], [2e-9, 2e-9, 0]])
    assert (bad.axiom, bad.indices) == ("triangle", (0, 2, 1))
    assert bad.detail == "d(0,1) = 4.5e-09 > d(0,2) + d(2,1) = 4e-09"
    with pytest.raises(ValueError, match=r"not a metric: triangle at \(0, 2, 1\)"):
        AmbientSpace.finite([[0, 4.5e-9, 2e-9], [4.5e-9, 0, 2e-9], [2e-9, 2e-9, 0]])
    # symmetry is exact
    bad = validate_finite_metric([[0, 1], [1 + 5e-10, 0]])
    assert (bad.axiom, bad.indices) == ("symmetry", (0, 1))
    assert bad.detail == "d(0,1) = 1.0 != d(1,0) = 1.0000000005"
    # positivity is > 0, at any scale
    assert validate_finite_metric([[0, 1e-10], [1e-10, 0]]) is None
    X = AmbientSpace.finite([[0, 1e-10], [1e-10, 0]])
    assert hausdorff(ClosedSet.points(X, [0]), ClosedSet.points(X, [1])).lo == 1e-10


def test_messages_print_python_floats():
    for matrix, detail in (
            ([[2e-9, 1], [1, 0]], "d(0,0) = 2e-09 != 0"),
            ([[0, 0], [0, 0]], "d(0,1) = 0.0 is not positive"),
            (np.array([[0.0, -1.0], [-1.0, 0.0]]), "d(0,1) = -1.0 is not positive"),
            (np.array([[0.0, 1.0], [2.0, 0.0]]), "d(0,1) = 1.0 != d(1,0) = 2.0"),
            (np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]),
             "d(0,2) = 5.0 > d(0,1) + d(1,2) = 2.0")):
        assert validate_finite_metric(matrix).detail == detail


@pytest.mark.parametrize("diagonal", [1e-9, -1e-9, 5e-324])
def test_a_diagonal_within_1e_9_is_stored_as_zero(diagonal):
    X = AmbientSpace.finite([[0.0, 2e-9], [2e-9, diagonal]])
    assert X.matrix == ((0.0, 2e-9), (2e-9, 0.0))
    # the later checks read the stored 0.0: 2e-9 <= 0 + 2e-9
    assert validate_finite_metric([[0.0, 2e-9], [2e-9, diagonal]]) is None


@pytest.mark.parametrize("diagonal", [1.0000000001e-9, -1.0000000001e-9])
def test_a_diagonal_past_1e_9_is_refused(diagonal):
    assert validate_finite_metric([[0.0, 1.0], [1.0, diagonal]]).axiom == "diagonal"


@pytest.mark.parametrize("entry", ["1", None, (1.0,), b"1"])
def test_non_numeric_entries_raise(entry):
    with pytest.raises((TypeError, ValueError)):
        validate_finite_metric([[0.0, entry], [entry, 0.0]])
    with pytest.raises((TypeError, ValueError)):
        AmbientSpace.finite([[0.0, entry], [entry, 0.0]])


def test_the_array_is_read_only_and_not_a_field():
    X = AmbientSpace.finite([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    M = X.dist_matrix
    assert M.dtype == np.float64 and M.tolist() == [list(row) for row in X.matrix]
    assert M is X.dist_matrix and not M.flags.writeable
    # equality, hashing and repr read the tuple only
    Y = AmbientSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    assert X == Y and hash(X) == hash(Y) and repr(X) == repr(Y)
    with pytest.raises(Exception, match="finite"):
        AmbientSpace.line().dist_matrix


def test_collinear_grid_distances_pass_within_4u():
    # math.dist rounds each side: sqrt(2) + sqrt(18) lands an ulp below sqrt(32)
    pts = [(0, 0), (1, 1), (4, 4)]
    M = [[math.dist(p, q) for q in pts] for p in pts]
    assert M[0][2] > M[0][1] + M[1][2]
    assert validate_finite_metric(M) is None


entries = st.one_of(st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 1e-9, 2e-9, 1.0, 2.0, 3.0]),
                    st.integers(-1, 4), st.floats(-1.0, 5.0, allow_nan=False))


@st.composite
def near_metrics(draw):
    """Metrics (graph distances, Euclidean distances of grid points) with
    a few entries overwritten, and arbitrary small matrices."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    M = [list(row) for row in draw(st.one_of(graph_metrics(), grid_metrics()))]
    n = len(M)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = draw(st.one_of(entries, st.just(M[i][j] * (1 + 2 * U)), st.just(M[i][j] * 1.5)))
        M[i][j] = v
        if draw(st.booleans()):
            M[j][i] = v
    return M


@settings(max_examples=400, deadline=None)
@given(near_metrics())
@example([[0, 4.5e-9, 2e-9], [4.5e-9, 0, 2e-9], [2e-9, 2e-9, 0]])
@example([[-1e-10, 1e-10], [1e-10, 0]])
def test_the_check_finds_the_first_violation_of_the_documented_rule(M):
    bad = validate_finite_metric(M)
    assert (None if bad is None else (bad.axiom, bad.indices)) == ref_violation(M)
    if bad is not None:
        assert "np." not in bad.detail


# ---------------------------------------------------------------------------
# finite metrics: exact graph distances and rounded Euclidean ones


@st.composite
def graph_metrics(draw):
    """The shortest-path metric of a connected graph with integer weights
    (exact in floats)."""
    n = draw(st.integers(1, 8))
    W = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    weight = st.integers(1, 9)
    for i in range(1, n):  # a spanning tree, then a few more edges
        j, w = draw(st.integers(0, i - 1)), draw(weight)
        W[i][j] = W[j][i] = w
    for _ in range(draw(st.integers(0, n))):
        i, j, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(weight)
        if i != j:
            W[i][j] = W[j][i] = min(W[i][j], w)
    for k, i, j in product(range(n), repeat=3):
        W[i][j] = min(W[i][j], W[i][k] + W[k][j])
    return W


@st.composite
def grid_metrics(draw):
    """math.dist over distinct integer grid points, often collinear."""
    if draw(st.booleans()):
        a, b = draw(st.sampled_from([(1, 0), (1, 1), (1, 2), (2, 3), (3, -1)]))
        ts = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=8, unique=True))
        pts = [(t * a, t * b + 1) for t in ts]
    else:
        grid = st.integers(-12, 12)
        pts = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=8, unique=True))
    return [[math.dist(p, q) for q in pts] for p in pts]


@st.composite
def finite_cases(draw):
    """A finite space, three of its sets (the third perhaps a cloud), query
    points, hit balls, a window radius and a threshold."""
    M = draw(st.one_of(graph_metrics(), grid_metrics()))
    n = len(M)
    F = AmbientSpace.finite(M, draw(st.integers(0, n - 1)))
    idx = st.integers(0, n - 1)

    def points():
        return draw(st.lists(idx, min_size=1, max_size=n))

    A, B = ClosedSet.points(F, points()), ClosedSet.points(F, points())
    h = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0]))
    C = ClosedSet.cloud(F, points(), h) if draw(st.booleans()) else ClosedSet.points(F, points())
    X = draw(st.lists(idx, min_size=0, max_size=6))
    # radii at distances of the matrix test the open window and the open balls
    distances = sorted({v for row in F.matrix for v in row})
    radius = st.one_of(st.sampled_from(distances).filter(lambda r: r > 0.0),
                       st.sampled_from([0.25, 0.5, 1.0, 2.5, 7.0, 40.0]))
    balls = draw(st.lists(st.tuples(idx, radius), min_size=1, max_size=3))
    return (F, (A, B, C), X, balls, draw(radius),
            draw(st.sampled_from([0.05, 0.2, 1.0 / 3.0, 0.5, 0.9])))


# ---------------------------------------------------------------------------
# references: the Python loops over the tuple matrix


def ref_dist(F, x, A):
    return min(F.matrix[x][p] for p in A.rep.points)


def ref_dists(F, X, A):
    return np.array([ref_dist(F, x, A) for x in X], dtype=float)


def ref_set_gap(F, A, B):
    return min(F.matrix[a][b] for a in A.rep.points for b in B.rep.points)


def ref_excess(F, A, B):
    pts = A.rep.points
    d = [ref_dist(F, a, B) for a in pts]
    i = max(range(len(pts)), key=d.__getitem__)  # the first farthest point
    return _widen(CertifiedValue.point(d[i], "finite-max", pts[i]), A.slack + B.slack)


def ref_hausdorff(F, A, B):
    return _combine_max(ref_excess(F, A, B), ref_excess(F, B, A), "left", "right")


def ref_gap(F, x, A, B):
    return abs(ref_dist(F, x, A) - ref_dist(F, x, B))


def ref_sup_gap(F, A, B, radius):
    row0 = F.matrix[F.base_point]
    best, wit = 0.0, F.base_point
    for x in range(F.size):
        if row0[x] < radius:  # open window
            d = ref_gap(F, x, A, B)
            if d > best:
                best, wit = d, x
    return _widen(CertifiedValue.point(best, "finite-max", wit), A.slack + B.slack)


def ref_aw(F, A, B):
    """sup over windows j of min(1/j, g(j)), g(j) the largest gap at a
    point less than j from the base point; capped at 1 and at H."""
    row0 = F.matrix[F.base_point]

    def g(j):
        return max(ref_gap(F, x, A, B) for x in range(F.size) if row0[x] < j)

    v = max(min(1.0 / j, g(j)) for j in range(1, int(math.floor(max(row0))) + 3))
    cv = _widen(CertifiedValue.point(v, "exact-1d"), A.slack + B.slack)
    top = min(1.0, ref_hausdorff(F, A, B).hi.as_float())
    if top < cv.hi:
        cv = CertifiedValue(min(cv.lo, top), ext(top), cv.method, cv.witness)
    return cv


def ref_aw_less_than(F, A, B, eps):
    j = max(1, int(math.floor(1.0 / eps)))
    while 1.0 / (j + 1) >= eps:
        j += 1
    while j > 1 and 1.0 / j < eps:
        j -= 1
    G = ref_sup_gap(F, A, B, float(j))
    if G.hi < eps:
        return True
    if G.lo >= eps:
        return False
    raise Indeterminate(f"window-{j} gap certificate [{G.lo}, {G.hi}] straddles eps={eps}")


def ref_bounding_radius(F, A):
    return max(F.matrix[F.base_point][p] for p in A.rep.points)


def ref_hits(F, A, U):
    d = ref_dists(F, [c for c, _ in U.balls], A)
    radii = np.array([r for _, r in U.balls])
    if (d < radii - A.slack).any():
        return True
    if (d < radii + A.slack).any():
        raise UnsupportedPair("cloud resolution straddles a hit-ball boundary")
    return False


def ref_subset_of(F, A, U):
    if A.slack > 0.0:
        raise UnsupportedPair("coverage of a sampled cloud cannot be certified")
    return all(any(F.matrix[c][p] < r for c, r in U.balls) for p in A.rep.points)


def ref_misses(F, A, K):
    g, slack = ref_set_gap(F, A, K), A.slack + K.slack
    if g > slack:
        return True
    if slack == 0.0 or g == 0.0:
        return False
    raise UnsupportedPair("cloud resolution straddles an obstacle gap")


def typed(v):
    """v with the type of every part, so that == also compares types."""
    if isinstance(v, CertifiedValue):
        return ("cv", typed(v.lo), typed(v.hi.as_float()), v.method, typed(v.witness))
    if isinstance(v, tuple):
        return tuple(typed(x) for x in v)
    if isinstance(v, np.ndarray):
        return ("array", v.dtype.str, v.tolist())
    return type(v).__name__, repr(v)


def outcome(f, *args):
    try:
        return typed(f(*args))
    except (UnsupportedPair, Indeterminate) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(finite_cases())
def test_every_finite_query_matches_its_loop(case):
    F, sets_, X, balls, radius, eps = case
    U = OpenSetRep.ball_union(F, balls)
    for A in sets_:
        for x in X[:2]:
            assert outcome(dist_to_set, x, A) == outcome(ref_dist, F, x, A)
        assert outcome(dists_to_set, X, A) == outcome(ref_dists, F, X, A)
        assert outcome(bounding_radius, A) == outcome(ref_bounding_radius, F, A)
        assert outcome(hits, A, U) == outcome(ref_hits, F, A, U)
        assert outcome(subset_of, A, U) == outcome(ref_subset_of, F, A, U)
        for B in sets_:
            assert outcome(set_gap, A, B) == outcome(ref_set_gap, F, A, B)
            assert outcome(misses, A, B) == outcome(ref_misses, F, A, B)
            assert outcome(excess, A, B) == outcome(ref_excess, F, A, B)
            assert outcome(hausdorff, A, B) == outcome(ref_hausdorff, F, A, B)
            assert outcome(sup_gap_on_ball, A, B, radius) == outcome(ref_sup_gap, F, A, B, radius)
            assert outcome(aw_distance, A, B) == outcome(ref_aw, F, A, B)
            assert outcome(aw_less_than, A, B, eps) == outcome(ref_aw_less_than, F, A, B, eps)


def test_the_loop_references_see_ties_and_the_open_window():
    # a path 0 - 1 - 2 - 3 with unit edges, base point 0
    F = AmbientSpace.finite([[abs(i - j) for j in range(4)] for i in range(4)])
    A, B = ClosedSet.points(F, [0]), ClosedSet.points(F, [0, 3])
    # gaps 0, 0, 1, 3: the window of radius 3 holds 0, 1, 2 only
    cv = sup_gap_on_ball(A, B, 3.0)
    assert typed(cv) == typed(CertifiedValue.point(1.0, "finite-max", 2))
    # no positive gap: the base point is the witness
    assert sup_gap_on_ball(A, B, 2.0).witness == 0 and type(sup_gap_on_ball(A, B, 2.0).witness) is int
    # the first farthest point of A over B is the witness of the excess
    C = ClosedSet.points(F, [1, 2])
    assert typed(excess(B, C)) == typed(CertifiedValue.point(1.0, "finite-max", 0))
