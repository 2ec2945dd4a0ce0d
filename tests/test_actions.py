import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hypermet.actions import (GroupElement, act, affine_sup_norm, compose,
                              group_distance, inverse, maps_into,
                              probe_action_continuity, ucb_nbhd_contains)
from hypermet.errors import Indeterminate, UnsupportedPair
from hypermet.hypermetrics import hausdorff
from hypermet.induced import LinearMatrix
from hypermet.sets import ClosedSet
from hypermet.spaces import AmbientSpace

LINE = AmbientSpace.line()
E2 = AmbientSpace.euclidean(2)


def _signed_perm(rng, n=2):
    perm = rng.permutation(n)
    m = [[0.0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = float(rng.choice([-1.0, 1.0]))
    off = tuple(float(v) for v in rng.randint(-9, 10, n))
    return GroupElement(tuple(tuple(r) for r in m), off, "isometry")


# ---------------------------------------------------------------------------
# construction and group laws


def test_constructors():
    e = GroupElement.identity(2)
    assert e.matrix == ((1.0, 0.0), (0.0, 1.0)) and e.offset == (0.0, 0.0)
    r = GroupElement.rotation(math.pi / 2)
    x = r.apply((1.0, 0.0))
    assert abs(x[0]) < 1e-15 and x[1] == pytest.approx(1.0)
    t = GroupElement.translation(3.0)
    assert t.dim == 1 and t.apply(2.0) == 5.0
    s = GroupElement.scaling(2.0, 2)
    assert s.apply((1.0, 1.0)) == (2.0, 2.0)
    q = GroupElement.isometry(((0.0, -1.0), (1.0, 0.0)), (1.0, 0.0))
    assert q.apply((1.0, 0.0)) == (1.0, 1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        GroupElement.scaling(0.0, 2)
    with pytest.raises(ValueError):
        GroupElement.isometry(((1.0, 1.0), (0.0, 1.0)), (0.0, 0.0))
    with pytest.raises(ValueError):
        GroupElement(((1.0, 0.0), (1.0, 0.0)), (0.0, 0.0), "singular")


def test_an_invertible_matrix_whose_determinant_underflows_is_a_group_element():
    # numpy's det of diag(1e-200, 1e-200) underflows to 0.0
    g = GroupElement.scaling(1e-200, 2)
    assert act(g, ClosedSet.points(g.space, [(1.0, 1.0)])).rep.points == ((1e-200, 1e-200),)
    with pytest.raises(ValueError, match="invertible"):
        GroupElement(((1.0, 2.0), (2.0, 4.0)), (0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_refused_where_they_enter(bad):
    with pytest.raises(ValueError, match="finite"):
        GroupElement(((bad, 0.0), (0.0, 1.0)), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        GroupElement(((1.0, 0.0), (0.0, 1.0)), (0.0, bad))
    with pytest.raises(ValueError, match="finite"):
        LinearMatrix(((1.0, 0.0), (0.0, bad)))


@pytest.mark.parametrize("make, bad, message", [
    (LinearMatrix, (), "need a 2-D matrix"),
    (LinearMatrix, ((),), "need a 2-D matrix"),
    (LinearMatrix, (1.0, 2.0), "need a 2-D matrix"),
    (LinearMatrix, ((1.0, math.nan),), "matrix entries must be finite"),
    (lambda m: GroupElement(m, (0.0,)), ((1.0, 2.0),), "group elements need a square matrix"),
    (lambda m: GroupElement(m, (0.0,)), (1.0,), "group elements need a square matrix"),
    (lambda m: GroupElement(m, (0.0, 0.0)), ((math.inf, 0.0), (0.0, 1.0)),
     "matrix entries must be finite"),
])
def test_matrices_are_checked_with_their_messages(make, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(bad)


@pytest.mark.parametrize("elem", [
    LinearMatrix(np.array([[1, 2], [3, 4], [-0.0, 5]])),
    GroupElement(np.array([[0, -1], [1, 0]]), (1.0, 2.0)),
])
def test_a_map_keeps_one_read_only_array_of_its_rows(elem):
    assert all(type(v) is float for row in elem.matrix for v in row)
    assert elem._m is elem._m and elem._m.dtype == float
    assert elem._m.tolist() == [list(row) for row in elem.matrix]
    assert math.copysign(1.0, elem._m[-1, 0]) == math.copysign(1.0, elem.matrix[-1][0])
    with pytest.raises(ValueError):
        elem._m[0, 0] = 7.0
    # the array is no field: equality, hash and repr read the rows
    twin = type(elem)(elem.matrix) if isinstance(elem, LinearMatrix) else \
        GroupElement(elem.matrix, elem.offset)
    assert twin == elem and hash(twin) == hash(elem) and "array" not in repr(elem)


def test_group_laws_exact_on_integer_corpus():
    rng = np.random.RandomState(15)
    e = GroupElement.identity(2)
    for _ in range(50):
        g, h, k = (_signed_perm(rng) for _ in range(3))
        assert compose(g, inverse(g)).matrix == e.matrix
        assert compose(g, inverse(g)).offset == e.offset
        assert compose(inverse(g), g).matrix == e.matrix
        a = compose(compose(g, h), k)
        b = compose(g, compose(h, k))
        assert a.matrix == b.matrix and a.offset == b.offset
        assert compose(g, e).matrix == g.matrix and compose(e, g).offset == g.offset


def test_compose_keeps_simple_kinds():
    t = compose(GroupElement.translation((1.0, 0.0)),
                GroupElement.translation((0.0, 2.0)))
    assert t.kind == "translation" and t.offset == (1.0, 2.0)
    r = compose(GroupElement.rotation(0.1), GroupElement.rotation(0.2))
    assert r.kind == "rotation"
    mixed = compose(GroupElement.rotation(0.1), GroupElement.translation((1.0, 0.0)))
    assert mixed.kind == "composition"


def test_inverse_roundtrips():
    g = GroupElement.rotation(0.3)
    p = (0.7, -0.2)
    assert math.dist(p, inverse(g).apply(g.apply(p))) < 1e-15
    # exactly orthogonal matrices invert by transposition, bit for bit
    perm = GroupElement(((0.0, -1.0), (1.0, 0.0)), (2.0, 3.0), "isometry")
    assert inverse(perm).matrix == ((0.0, 1.0), (-1.0, 0.0))


# ---------------------------------------------------------------------------
# acting on sets


def test_act_per_representation():
    t = GroupElement.translation((1.0, 2.0))
    P = ClosedSet.points(E2, [(0.0, 0.0), (1.0, 0.0)])
    assert act(t, P).rep.points == ((1.0, 2.0), (2.0, 2.0))

    rot = GroupElement.rotation(math.pi / 2)
    B = ClosedSet.balls(E2, [((2.0, 0.0), 1.0)])
    (c, r), = act(rot, B).rep.balls
    assert math.dist(c, (0.0, 2.0)) < 1e-15 and r == 1.0

    s = GroupElement.scaling(3.0, 2)
    box = ClosedSet.boxes(E2, [((0.0, 0.0), (1.0, 2.0))])
    assert act(s, box).rep.boxes == (((0.0, 0.0), (3.0, 6.0)),)

    with pytest.raises(UnsupportedPair):
        act(GroupElement.rotation(0.3), box)  # tilted boxes leave the family

    C = ClosedSet.cloud(E2, [(0.0, 0.0)], 0.1)
    assert act(s, C).slack == pytest.approx(0.3)


def test_act_on_line_intervals_with_infinite_end():
    flip = GroupElement(((-2.0,),), (0.0,), "scaling-flip")
    A = ClosedSet.intervals(LINE, [(0.0, math.inf)])
    img = act(flip, A)
    (lo, hi), = img.rep.intervals
    assert math.isinf(lo) and lo < 0 and hi == 0.0


def test_maps_into():
    t = GroupElement.translation((1.0, 0.0))
    B = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    assert maps_into(t, B, ClosedSet.balls(E2, [((1.0, 0.0), 1.0)]))
    assert maps_into(t, B, ClosedSet.balls(E2, [((0.0, 0.0), 2.0)]))
    assert not maps_into(t, B, ClosedSet.balls(E2, [((3.0, 0.0), 1.0)]))


def test_the_identity_maps_a_ray_into_itself():
    # the image's direction is read from the ray's axis, so it stays
    # exactly proportional to the literal's
    for n in (2, 3):
        E, g = AmbientSpace.euclidean(n), GroupElement.identity(n)
        for d in [(1, 3, 5), (7, 21, 2), (0.1, 0.7, -0.3), (1e-300, 3.0, 1e300)]:
            R = ClosedSet.ray(E, (0.5,) * n, d[:n])
            assert maps_into(g, R, R)
        # into another literal of the same direction
        R, R7 = (ClosedSet.ray(E, (0.5,) * n, (k, 3 * k, 5 * k)[:n]) for k in (1, 7))
        assert R.rep.direction != R7.rep.direction  # their rounded unit vectors differ
        assert maps_into(g, R, R7) and maps_into(g, R7, R)

def test_isometries_leave_hausdorff_unchanged():
    rng = np.random.RandomState(16)
    for _ in range(50):
        g = _signed_perm(rng)
        P = [tuple(float(v) for v in rng.randint(-9, 10, 2)) for _ in range(3)]
        Q = [tuple(float(v) for v in rng.randint(-9, 10, 2)) for _ in range(4)]
        A, B = ClosedSet.points(E2, P), ClosedSet.points(E2, Q)
        before = hausdorff(A, B)
        after = hausdorff(act(g, A), act(g, B))
        assert before.lo == after.lo  # bit-exact: integer coordinates
    g = GroupElement.rotation(0.37)
    A = ClosedSet.points(E2, [(1.0, 2.0), (-3.0, 0.5)])
    B = ClosedSet.points(E2, [(0.0, 0.0)])
    assert hausdorff(act(g, A), act(g, B)).lo == pytest.approx(
        hausdorff(A, B).lo, abs=1e-12)


# ---------------------------------------------------------------------------
# uniform comparisons and the group metric


def test_affine_sup_norm_cases():
    P = ClosedSet.points(E2, [(1.0, 0.0), (0.0, 2.0)])
    cv = affine_sup_norm(np.eye(2), np.zeros(2), P)
    assert cv.is_exact and cv.lo == 2.0

    # scaled-orthogonal difference on a ball: closed form
    B = ClosedSet.balls(E2, [((2.0, 0.0), 3.0)])
    cv = affine_sup_norm(0.5 * np.eye(2), np.array([1.0, 0.0]), B)
    assert cv.is_exact and cv.lo == pytest.approx(3.5)

    # generic matrix on a ball: bracketed by sphere samples and sigma_max
    D = np.array([[0.3, 0.4], [0.0, 0.0]])
    cv = affine_sup_norm(D, np.zeros(2), ClosedSet.balls(E2, [((0.0, 0.0), 1.0)]))
    assert cv.lo <= 0.5 <= cv.hi.as_float()  # true sup is 0.5
    assert cv.width < 1e-3

    # rays: infinite unless the matrix kills the direction
    R = ClosedSet.ray(E2, (3.0, 4.0), (0.0, 1.0))
    kill = affine_sup_norm(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2), R)
    assert kill.is_exact and kill.lo == 3.0
    alive = affine_sup_norm(np.eye(2), np.zeros(2), R)
    assert alive.is_infinite


@pytest.mark.parametrize("a, b", [(1, 3), (7, 21), (2, 5), (3, 7), (1, 7)])
def test_a_matrix_that_kills_a_ray_exactly_gives_a_finite_sup(a, b):
    # D = ((b, -a), (0, 0)) kills (a, b) exactly, but not the rounded unit
    # vector: D @ direction reads about 5.6e-17 for (1, 3).  The sup of
    # |D x| over the ray from the origin is 0.
    R = ClosedSet.ray(E2, (0.0, 0.0), (a, b))
    D = np.array([[b, -a], [0.0, 0.0]], dtype=float)
    cv = affine_sup_norm(D, np.zeros(2), R)
    assert cv.is_exact and cv.lo == 0.0 and cv.hi.as_float() == 0.0
    # a matrix that misses the direction by one ulp still escapes
    D[0, 0] = math.nextafter(float(b), math.inf)
    assert affine_sup_norm(D, np.zeros(2), R).is_infinite


@pytest.mark.parametrize("a, b", [(1.988839743156844, 1.9233413551049203),
                                  (-1.16685593, 0.40004961)])
def test_a_sampled_ball_certificate_contains_the_sup_under_a_zero_column(a, b):
    # D = ((a, 0), (b, 0)) maps x to x_1 (a, b); over ball((-1, -1), 1),
    # |x_1| peaks at 2, so the sup is 2 |(a, b)|.  The samples reach it at
    # (-2, -1), where their rounding put the lower end one ulp above an
    # unwidened sigma_max upper end: an empty certificate.
    D = np.array([[a, 0.0], [b, 0.0]])
    cv = affine_sup_norm(D, np.zeros(2), ClosedSet.balls(E2, [((-1.0, -1.0), 1.0)]))
    with localcontext() as ctx:
        ctx.prec = 60
        exact = 2 * (Decimal(a) ** 2 + Decimal(b) ** 2).sqrt()
    assert Decimal(cv.lo) <= exact <= Decimal(cv.hi.as_float())
    assert cv.width <= 1e-12 * cv.lo


def test_group_distance_frozen_values():
    e = GroupElement.identity(2)
    t = GroupElement.translation((3.0, 4.0))
    d = group_distance(e, t)
    assert d.is_exact and d.lo == 5.0

    # I - R(theta) scales every vector by 2 sin(theta/2)
    r = GroupElement.rotation(0.2)
    d = group_distance(e, r)
    assert d.is_exact and d.lo == pytest.approx(20.0 * math.sin(0.1), abs=1e-12)

    e1 = GroupElement.identity(1)
    s = GroupElement.scaling(2.0, 1)
    assert group_distance(e1, s).lo == pytest.approx(10.0)


def test_ucb_comparison():
    ball = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    e = GroupElement.identity(2)
    r = GroupElement.rotation(0.2)
    sup = 2.0 * math.sin(0.1)  # 0.19966683329365628

    yes = ucb_nbhd_contains(r, ball, e, eps=0.2)
    assert yes.contains and yes.sup.lo == pytest.approx(sup, abs=1e-15)
    no = ucb_nbhd_contains(r, ball, e, eps=0.19)
    assert not no.contains

    with pytest.raises(ValueError):
        ucb_nbhd_contains(r, ball, e, eps=0.0)
    with pytest.raises(ValueError):
        ucb_nbhd_contains(r, ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0)), e, 0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_ucb_refuses_a_threshold_that_is_not_finite_and_positive(eps):
    # a nan eps used to raise Indeterminate ("straddles eps=nan")
    ball = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        ucb_nbhd_contains(GroupElement.rotation(0.2), ball, GroupElement.identity(2), eps)


def test_ucb_indeterminate_straddle():
    ball = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    e = GroupElement.identity(2)
    h = GroupElement(((1.3, 0.4), (0.0, 1.0)), (0.0, 0.0), "shear")
    sup = affine_sup_norm(h._m - np.eye(2), np.zeros(2), ball)
    assert sup.width > 0.0
    eps = sup.lo + 0.5 * sup.width
    with pytest.raises(Indeterminate):
        ucb_nbhd_contains(h, ball, e, eps)


# ---------------------------------------------------------------------------
# joint-continuity probe


def test_probe_translations_do_not_violate():
    A = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    g = GroupElement.identity(2)
    perts = [(GroupElement.translation((d, 0.0)), A) for d in (0.5, 0.05, 0.005)]
    rep = probe_action_continuity(g, A, "H", perts, eps=0.1)
    assert not rep.violation and bool(rep)
    for row, d in zip(rep.rows, (0.5, 0.05, 0.005)):
        assert row.d_group.lo == pytest.approx(d)
        assert row.d_out.hi.as_float() <= d + 1e-9


@pytest.mark.parametrize("bad", [{"eps": math.nan}, {"eps": -0.1},
                                 {"delta_schedule": (1.0, math.nan)},
                                 {"delta_schedule": (-math.inf,)}])
def test_probe_refuses_thresholds_that_no_distance_can_meet(bad):
    A = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    perts = [(GroupElement.translation((0.5, 0.0)), A)]
    with pytest.raises(ValueError):
        probe_action_continuity(GroupElement.identity(2), A, "H", perts, **bad)


def test_probe_rotated_ray_blows_up():
    # arbitrarily small rotations move a ray infinitely far in the
    # unbounded metric: certified violation at every delta
    A = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0))
    g = GroupElement.identity(2)
    perts = [(GroupElement.rotation(d), A) for d in (0.05, 0.005, 0.0005)]
    rep = probe_action_continuity(g, A, "H", perts, eps=0.1)
    assert rep.violation and not bool(rep)
    assert all(r.d_out.lo == math.inf for r in rep.rows)
