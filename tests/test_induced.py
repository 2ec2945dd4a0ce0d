import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypermet.actions import GroupElement, act
from hypermet.errors import AmbientMismatch, UnsupportedPair
from hypermet.hypermetrics import aw_distance, hausdorff
from hypermet.induced import (Affine, ArctanOfDistance, Composed,
                              ConditionsReport, Identity, LinearMatrix,
                              ModulusReport, PiecewiseMonotone1D,
                              PreimageReport, SinReciprocal,
                              _scaled_orthogonal, affine_image,
                              aw_continuity_conditions,
                              check_preimage_boundedness, dist_range,
                              estimate_uniform_modulus, induced_image,
                              metric_by_name, probe_induced_continuity,
                              uniform_continuity_witness)
from hypermet.sets import ClosedSet, dist_to_set
from hypermet.spaces import AmbientSpace

LINE = AmbientSpace.line()
E2 = AmbientSpace.euclidean(2)
HALF_PI = math.pi / 2.0
INF = math.inf


# ---------------------------------------------------------------------------
# images


def test_dist_range():
    assert dist_range(0.0, ClosedSet.intervals(LINE, [(2.0, 5.0)])) == (2.0, 5.0)
    lo, hi = dist_range((0.0, 0.0), ClosedSet.balls(E2, [((3.0, 0.0), 1.0)]))
    assert (lo, hi) == (2.0, 4.0)
    lo, hi = dist_range(0.0, ClosedSet.ray(LINE, 2.0, 1.0))
    assert lo == 2.0 and math.isinf(hi)


def test_affine_images():
    A = ClosedSet.intervals(LINE, [(0.0, 1.0), (2.0, 3.0)])
    f = Affine(-2.0, 1.0)
    img = induced_image(f, A)
    assert img.rep.intervals == ((-5.0, -3.0), (-1.0, 1.0))
    g = Affine(0.0, 7.0)  # constant
    assert induced_image(g, A).rep.points == (7.0,)


def test_rotation_maps_balls_exactly():
    rot = LinearMatrix(((0.0, -1.0), (1.0, 0.0)))
    B = ClosedSet.balls(E2, [((2.0, 0.0), 1.0)])
    img = induced_image(rot, B)
    assert img.rep.balls == (((0.0, 2.0), 1.0),)


def test_signed_scaled_axis_map_keeps_boxes():
    M = LinearMatrix(((0.0, 2.0), (-1.0, 0.0)))  # (x,y) -> (2y, -x)
    box = ClosedSet.boxes(E2, [((0.0, 0.0), (1.0, 2.0))])
    img = induced_image(M, box)
    assert img.rep.boxes == (((0.0, -1.0), (4.0, 0.0)),)
    seg = ClosedSet.segments(E2, [((0.0, 0.0), (1.0, 1.0))])
    assert induced_image(M, seg).rep.segments == (((0.0, 0.0), (2.0, -1.0)),)


def test_shear_on_ball_has_no_exact_form():
    shear = LinearMatrix(((2.0, 1.0), (0.0, 1.0)))
    B = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    with pytest.raises(UnsupportedPair):
        induced_image(shear, B)
    # point sets always work
    P = ClosedSet.points(E2, [(1.0, 1.0)])
    assert induced_image(shear, P).rep.points == ((3.0, 1.0),)


def test_projection_collapses_a_vertical_ray():
    proj = LinearMatrix(((1.0, 0.0),))
    R = ClosedSet.ray(E2, (3.0, 4.0), (0.0, 1.0))
    img = induced_image(proj, R)
    assert img.space.is_one_dimensional
    assert img.rep.points == (3.0,)
    assert not proj.is_injective()
    kx, ky = proj.kernel_vector()
    assert abs(kx) < 1e-12 and abs(abs(ky) - 1.0) < 1e-12


def test_singular_values():
    M = LinearMatrix(((2.0, 1.0), (0.0, 1.0)))
    s = np.linalg.svd(np.array(M.matrix), compute_uv=False)
    assert M.sigma_max() == pytest.approx(float(s[0]), abs=1e-12)
    assert M.sigma_min() == pytest.approx(float(s[-1]), abs=1e-12)
    assert M.is_injective()


def test_sin_reciprocal_images():
    f = SinReciprocal()
    # one full oscillation inside: the image closes up to [-1, 1]
    A = ClosedSet.intervals(f.domain, [(2.0 / (5.0 * math.pi), 2.0 / math.pi)])
    img = induced_image(f, A)
    (lo, hi), = img.rep.intervals
    assert lo == pytest.approx(-1.0, abs=1e-12) and hi == pytest.approx(1.0, abs=1e-12)
    # short monotone stretch: endpoint images only
    B = ClosedSet.intervals(f.domain, [(0.9, 0.95)])
    (lo, hi), = induced_image(f, B).rep.intervals
    assert lo == pytest.approx(math.sin(1.0 / 0.95), abs=1e-12)
    assert hi == pytest.approx(math.sin(1.0 / 0.9), abs=1e-12)
    # a crest without the matching trough pins the top at exactly 1
    C = ClosedSet.intervals(f.domain, [(0.5, 1.0 / 1.2)])
    (lo, hi), = induced_image(f, C).rep.intervals
    assert hi == 1.0
    assert lo == pytest.approx(min(math.sin(2.0), math.sin(1.2)), abs=1e-12)


def test_arctan_images():
    f = ArctanOfDistance(LINE, 3.0)
    R = ClosedSet.ray(LINE, 5.0, 1.0)
    (lo, hi), = induced_image(f, R).rep.intervals
    assert lo == pytest.approx(math.atan(2.0), abs=1e-15) and hi == HALF_PI

    g = ArctanOfDistance(E2, (0.0, 0.0))
    B = ClosedSet.balls(E2, [((5.0, 0.0), 1.0)])
    (lo, hi), = induced_image(g, B).rep.intervals
    assert lo == pytest.approx(math.atan(4.0)) and hi == pytest.approx(math.atan(6.0))

    P = ClosedSet.points(E2, [(3.0, 4.0), (0.0, 0.0)])
    assert induced_image(g, P).rep.points == (0.0, math.atan(5.0))


def test_piecewise_images():
    f = PiecewiseMonotone1D((0.0, 1.0), (0.0, 2.0), left_slope=0.0,
                            right_slope=-1.0)
    assert f.apply(-5.0) == 0.0 and f.apply(0.5) == 1.0 and f.apply(3.0) == 0.0
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    (lo, hi), = induced_image(f, A).rep.intervals
    assert (lo, hi) == (0.0, 2.0)
    R = ClosedSet.ray(LINE, 1.0, 1.0)  # right tail slope -1: image (-inf, 2]
    (lo, hi), = induced_image(f, R).rep.intervals
    assert math.isinf(lo) and lo < 0 and hi == 2.0


@pytest.mark.parametrize("slope, images", [
    # f is 0 at knot 0 and 2 at knot 1, with tails of the given slope on
    # both sides; the sets are (-inf, -5], (-inf, 0.5], [0.5, inf), [3, inf)
    # and the whole line
    (0.0, [(0.0, 0.0), (0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (0.0, 2.0)]),
    (1.0, [(-INF, -5.0), (-INF, 1.0), (1.0, INF), (4.0, INF), (-INF, INF)]),
    (-1.0, [(5.0, INF), (0.0, INF), (-INF, 2.0), (-INF, 0.0), (-INF, INF)]),
], ids=["flat", "rising", "falling"])
def test_piecewise_images_of_unbounded_intervals(slope, images):
    f = PiecewiseMonotone1D((0.0, 1.0), (0.0, 2.0), left_slope=slope, right_slope=slope)
    sets = [ClosedSet.ray(LINE, -5.0, -1.0), ClosedSet.ray(LINE, 0.5, -1.0),
            ClosedSet.ray(LINE, 0.5, 1.0), ClosedSet.ray(LINE, 3.0, 1.0),
            ClosedSet.intervals(LINE, [(-INF, INF)])]
    assert [induced_image(f, A).rep.intervals for A in sets] == [(iv,) for iv in images]


def test_composed_map():
    f = Composed(Affine(2.0, 0.0), Affine(1.0, 3.0))
    assert f.apply(1.0) == 8.0
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    assert induced_image(f, A).rep.intervals == ((6.0, 8.0),)
    assert f.lipschitz_constant() == 2.0


# ---------------------------------------------------------------------------
# the shared affine push-forward


@pytest.mark.parametrize("a", [2.5, -0.75])
def test_one_by_one_forms_give_equal_images(a):
    forms = [lambda A: induced_image(LinearMatrix(((a,),)), A),
             lambda A: induced_image(Affine(a, 0.0), A),
             lambda A: act(GroupElement(((a,),), (0.0,)), A)]
    sets = [ClosedSet.points(LINE, [-3.0, 0.0, 1.5]),
            ClosedSet.intervals(LINE, [(-4.0, -1.0), (2.0, 3.0)]),
            ClosedSet.intervals(LINE, [(-math.inf, -1.0), (2.0, math.inf)]),
            ClosedSet.intervals(LINE, [(0.5, math.inf)]),
            ClosedSet.ray(LINE, 1.0, 1.0),
            ClosedSet.ray(LINE, -2.0, -1.0),
            ClosedSet.cloud(LINE, [-1.0, 4.0], 0.2)]
    for A in sets:
        first, *rest = (form(A) for form in forms)
        assert all(img == first for img in rest), A
    assert forms[0](ClosedSet.cloud(LINE, [0.0], 0.2)).slack == abs(a) * 0.2


def test_one_by_one_matrix_on_line_rays_and_unbounded_intervals():
    flip = LinearMatrix(((-2.0,),))
    img = induced_image(flip, ClosedSet.ray(LINE, 1.0, 1.0))
    assert img.rep.anchor == -2.0 and img.rep.direction == -1.0
    (lo, hi), = induced_image(flip, ClosedSet.intervals(LINE, [(3.0, math.inf)])).rep.intervals
    assert lo == -math.inf and hi == -6.0
    # a zero slope sends the whole line to one point
    zero = LinearMatrix(((0.0,),))
    assert induced_image(zero, ClosedSet.ray(LINE, 1.0, -1.0)).rep.points == (0.0,)
    (lo, hi), = induced_image(zero, ClosedSet.intervals(LINE, [(-math.inf, 2.0)])).rep.intervals
    assert lo == hi == 0.0


def test_one_column_matrix_sends_line_rays_into_the_plane():
    col = LinearMatrix(((1.0,), (-2.0,)))
    img = induced_image(col, ClosedSet.ray(LINE, 1.0, -1.0))
    assert img.rep.anchor == (1.0, -2.0)
    assert img.rep.direction == pytest.approx((-1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)))
    seg = induced_image(col, ClosedSet.intervals(LINE, [(0.0, 1.0)]))
    assert seg.rep.segments == (((0.0, -0.0), (1.0, -2.0)),)
    with pytest.raises(UnsupportedPair):
        induced_image(col, ClosedSet.intervals(LINE, [(0.0, math.inf)]))


def test_one_row_matrix_maps_segments_and_boxes_to_intervals():
    row = LinearMatrix(((1.0, 2.0),))
    seg = ClosedSet.segments(E2, [((0.0, 0.0), (1.0, -1.0)), ((3.0, 1.0), (4.0, 0.0))])
    assert induced_image(row, seg).rep.intervals == ((-1.0, 0.0), (4.0, 5.0))
    box = ClosedSet.boxes(E2, [((0.0, 1.0), (2.0, 3.0))])
    assert induced_image(LinearMatrix(((0.0, -2.0),)), box).rep.intervals == ((-6.0, -2.0),)
    with pytest.raises(UnsupportedPair):
        induced_image(row, box)  # not signed-permutation-diagonal


def test_cloud_resolution_scales_by_mu_or_sigma_max():
    C = ClosedSet.cloud(E2, [(1.0, 0.0)], 0.5)
    assert induced_image(LinearMatrix(((0.0, -3.0), (3.0, 0.0))), C).slack == 1.5
    shear = LinearMatrix(((2.0, 1.0), (0.0, 1.0)))
    assert induced_image(shear, C).slack == shear.sigma_max() * 0.5
    # squares of these slopes under- or overflow; mu must not
    for a in (1e-170, 3e-155, 1e160, -1e-300):
        line_cloud = ClosedSet.cloud(LINE, [1.0], 0.5)
        assert induced_image(Affine(a, 0.0), line_cloud).slack == abs(a) * 0.5
    tiny = LinearMatrix(((0.0, -1e-170), (1e-170, 0.0)))
    (_, r), = induced_image(tiny, ClosedSet.balls(E2, [((1.0, 0.0), 2.0)])).rep.balls
    assert r == 2e-170


# magnitudes over 1e-3..1e4 of both signs: sums of such products round
# differently in any other order of the arithmetic
spread = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                   st.floats(min_value=-3.0, max_value=4.0))


@st.composite
def maps_with_points(draw):
    shape = draw(st.sampled_from(["rotation", "square", "row", "column"]))
    if shape == "rotation":
        th = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        m = ((math.cos(th), -math.sin(th)), (math.sin(th), math.cos(th)))
    else:
        k = draw(st.integers(min_value=1, max_value=4))
        p, n = {"square": (k, k), "row": (1, k), "column": (k, 1)}[shape]
        m = tuple(tuple(draw(st.lists(spread, min_size=n, max_size=n))) for _ in range(p))
    p, n = len(m), len(m[0])
    kinds = ["linear"] + (["group"] if p == n else []) + (["affine"] if p == n == 1 else [])
    kind = draw(st.sampled_from(kinds))
    offset = tuple(draw(st.lists(spread, min_size=p, max_size=p)))
    if kind == "linear":
        f = LinearMatrix(m)
        image = lambda A: induced_image(f, A)
    elif kind == "affine":
        f = Affine(m[0][0], offset[0])
        image = lambda A: induced_image(f, A)
    else:
        try:
            f = GroupElement(m, offset)
        except ValueError:
            assume(False)
        image = lambda A: act(f, A)
    space = LINE if n == 1 else AmbientSpace.euclidean(n)
    pts = draw(st.lists(st.lists(spread, min_size=n, max_size=n), min_size=1, max_size=12))
    return f, image, space, [p[0] if n == 1 else tuple(p) for p in pts]


@settings(max_examples=300, deadline=None)
@given(maps_with_points())
def test_batched_push_equals_per_point_apply(case):
    f, image, space, pts = case
    got = image(ClosedSet.points(space, pts)).rep.points
    assert got == tuple(sorted({f.apply(p) for p in pts}))


def test_image_rejects_wrong_space():
    f = Affine(1.0, 0.0)
    with pytest.raises(AmbientMismatch):
        induced_image(f, ClosedSet.points(E2, [(0.0, 0.0)]))


def test_lipschitz_transfer_to_hyperspace():
    # d_H(f A, f B) <= L d_H(A, B) for every Lipschitz catalog map
    rng = np.random.RandomState(6)
    line_maps = [
        (Identity(LINE), 1.0),
        (Affine(0.5, 3.0), 0.5),
        (Affine(-2.0, 1.0), 2.0),
        (ArctanOfDistance(LINE, 0.0), 1.0),
        (PiecewiseMonotone1D((0.0, 1.0), (0.0, 0.5), 0.3, -0.8), 0.8),
    ]
    for _ in range(60):
        P = [float(p) for p in rng.uniform(-8, 8, rng.randint(1, 5))]
        Q = [float(q) for q in rng.uniform(-8, 8, rng.randint(1, 5))]
        A, B = ClosedSet.points(LINE, P), ClosedSet.points(LINE, Q)
        d = hausdorff(A, B).hi.as_float()
        for f, L in line_maps:
            di = hausdorff(induced_image(f, A), induced_image(f, B))
            assert di.hi.as_float() <= L * d + 1e-9, f.describe()
    rot = LinearMatrix(((0.0, -1.0), (1.0, 0.0)))
    for _ in range(30):
        P = [tuple(p) for p in rng.uniform(-8, 8, (rng.randint(1, 5), 2))]
        Q = [tuple(q) for q in rng.uniform(-8, 8, (rng.randint(1, 5), 2))]
        A, B = ClosedSet.points(E2, P), ClosedSet.points(E2, Q)
        d = hausdorff(A, B).hi.as_float()
        di = hausdorff(induced_image(rot, A), induced_image(rot, B))
        assert di.hi.as_float() <= d + 1e-9


def test_arctan_image_distance_settles_at_half():
    # {0} vs {0,n}: the arctan images are {0} vs {0, atan n}; once
    # 2 - atan n < 1/2 (n >= 15) the window sup is exactly 1/2.
    f = ArctanOfDistance(LINE, 0.0)
    A = ClosedSet.points(LINE, [0.0])
    for n in (15, 100, 1000):
        B = ClosedSet.points(LINE, [0.0, float(n)])
        v = aw_distance(induced_image(f, A), induced_image(f, B))
        assert v.is_exact and v.lo == 0.5


# ---------------------------------------------------------------------------
# preimage boundedness


def test_preimage_affine():
    B = ClosedSet.intervals(LINE, [(3.0, 7.0)])
    rep = check_preimage_boundedness(Affine(2.0, 1.0), B)
    assert rep.verdict == "bounded-within" and rep.radius == 3.0

    const_out = check_preimage_boundedness(Affine(0.0, 9.0), B)
    assert const_out.verdict == "bounded-within" and const_out.radius == 0.0
    const_in = check_preimage_boundedness(Affine(0.0, 5.0), B)
    assert const_in.verdict == "not-applicable"


def test_preimage_arctan_escape():
    f = ArctanOfDistance(LINE, 0.0)
    B = ClosedSet.intervals(LINE, [(0.0, 1.6)])  # reaches past pi/2
    rep = check_preimage_boundedness(f, B)
    assert rep.verdict == "escape-evidence"
    assert len(rep.witnesses) == 3
    for w, r in zip(rep.witnesses, (10.0, 100.0, 1000.0)):
        assert abs(w) >= r
        assert dist_to_set(f.apply(w), B) == 0.0  # witnesses really land


def test_preimage_arctan_bounded():
    f = ArctanOfDistance(LINE, 0.0)
    B = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    rep = check_preimage_boundedness(f, B)
    assert rep.verdict == "bounded-within"
    assert rep.radius == pytest.approx(math.tan(1.0), abs=1e-12)


def test_preimage_projection_escapes_along_kernel():
    proj = LinearMatrix(((1.0, 0.0),))
    B = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    rep = check_preimage_boundedness(proj, B)
    assert rep.verdict == "escape-evidence"
    for w, r in zip(rep.witnesses, (10.0, 100.0, 1000.0)):
        assert math.hypot(*w) >= r
        assert dist_to_set(proj.apply(w), B) <= 1e-9


def test_preimage_injective_linear_bounded():
    M = LinearMatrix(((2.0, 1.0), (0.0, 1.0)))
    B = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    rep = check_preimage_boundedness(M, B)
    assert rep.verdict == "bounded-within"
    assert rep.radius == pytest.approx(1.0 / M.sigma_min())


def test_preimage_flat_tail_escapes():
    f = PiecewiseMonotone1D((0.0, 1.0), (0.0, 2.0), left_slope=0.0,
                            right_slope=-1.0)
    B = ClosedSet.intervals(LINE, [(-0.5, 0.5)])
    rep = check_preimage_boundedness(f, B)
    assert rep.verdict == "escape-evidence"
    for w, r in zip(rep.witnesses, (10.0, 100.0, 1000.0)):
        assert abs(w) >= r and dist_to_set(f.apply(w), B) == 0.0
    steep = PiecewiseMonotone1D((0.0, 1.0), (0.0, 2.0), left_slope=1.0,
                                right_slope=-1.0)
    assert check_preimage_boundedness(steep, B).verdict == "bounded-within"


def test_preimage_rejects_unbounded_target():
    with pytest.raises(ValueError):
        check_preimage_boundedness(Affine(1.0, 0.0), ClosedSet.ray(LINE, 0.0, 1.0))


# ---------------------------------------------------------------------------
# uniform continuity


def test_modulus_affine():
    A = ClosedSet.intervals(LINE, [(0.0, 10.0)])
    rep = estimate_uniform_modulus(Affine(2.0, 0.0), A, eps=0.1)
    assert rep.verdict == "certified" and rep.delta == pytest.approx(0.05)


def test_modulus_sin_counterexample_near_zero():
    f = SinReciprocal()
    A = ClosedSet.intervals(f.domain, [(0.01, 0.9)])
    rep = estimate_uniform_modulus(f, A, eps=0.5)
    assert rep.verdict == "counterexample"
    x, y = rep.pair
    assert 0.01 <= min(x, y) and max(x, y) <= 0.9
    assert rep.gap == pytest.approx(2.0, abs=1e-9)


def test_modulus_sin_certified_away_from_zero():
    f = SinReciprocal()
    A = ClosedSet.intervals(f.domain, [(0.5, 0.9)])
    rep = estimate_uniform_modulus(f, A, eps=0.2)
    assert rep.verdict == "certified"
    assert rep.delta == pytest.approx(0.2 * 0.25)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_modulus_refuses_a_threshold_that_is_not_finite_and_positive(eps):
    # a nan eps used to come back as a certified delta of nan
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        estimate_uniform_modulus(Affine(2.0, 1.0), A, eps)


def test_modulus_finite_set():
    A = ClosedSet.points(LINE, [0.0, 1.0, 5.0])
    rep = estimate_uniform_modulus(Affine(1.0, 0.0), A, eps=0.5)
    assert rep.verdict == "certified" and rep.delta == pytest.approx(0.5)
    far = estimate_uniform_modulus(Affine(1.0, 0.0), A, eps=100.0)
    assert far.verdict == "certified"  # nothing separates by 100


def test_witness_family_for_sin():
    f = SinReciprocal()
    pairs = [f.oscillation_pair(n) for n in range(1, 9)]
    rec = uniform_continuity_witness(f, pairs, m=5)
    assert rec.m == 5
    assert rec.bound_ok and rec.separated
    assert rec.set_distance.hi.as_float() <= rec.pair_distance
    assert abs(rec.image_distance.lo - 1.0) <= 1e-9  # one swapped crest
    with pytest.raises(ValueError):
        uniform_continuity_witness(f, pairs, m=0)
    bad = [pairs[0], (0.1, 0.9)] + pairs[2:]  # 0.8 apart, needs < 1/2
    with pytest.raises(ValueError):
        uniform_continuity_witness(f, bad, m=2)


def test_witness_pair_distances_shrink():
    f = SinReciprocal()
    pairs = [f.oscillation_pair(n) for n in range(1, 26)]
    ds = [uniform_continuity_witness(f, pairs, m=m).pair_distance
          for m in (1, 5, 10, 25)]
    assert all(a > b for a, b in zip(ds, ds[1:]))
    assert all(d < 1.0 / m for d, m in zip(ds, (1, 5, 10, 25)))


# ---------------------------------------------------------------------------
# continuity conditions catalog


def test_conditions_catalog():
    ok = aw_continuity_conditions(Identity(LINE))
    assert (ok.cond1, ok.cond2, ok.overall) == (True, True, True)
    assert aw_continuity_conditions(Affine(3.0, -1.0)).overall is True
    assert aw_continuity_conditions(Affine(0.0, 2.0)).overall is True

    rot = aw_continuity_conditions(LinearMatrix(((0.0, -1.0), (1.0, 0.0))))
    assert rot.overall is True
    proj = aw_continuity_conditions(LinearMatrix(((1.0, 0.0),)))
    assert proj.cond1 is True and proj.cond2 is False and proj.overall is False
    assert proj.cond2_witness is not None

    sin = aw_continuity_conditions(SinReciprocal())
    assert sin.cond1 is False and sin.cond2 is True and sin.overall is False
    a, x = sin.cond1_witness
    assert abs(math.sin(1.0 / a) - math.sin(1.0 / x)) == pytest.approx(2.0, abs=1e-9)

    at = aw_continuity_conditions(ArctanOfDistance(LINE, 0.0))
    assert at.cond1 is True and at.cond2 is False and at.overall is False

    pw_ok = aw_continuity_conditions(
        PiecewiseMonotone1D((0.0, 1.0), (0.0, 1.0), 1.0, 1.0))
    assert pw_ok.overall is True
    pw_flat = aw_continuity_conditions(
        PiecewiseMonotone1D((0.0, 1.0), (0.0, 1.0), 0.0, 1.0))
    assert pw_flat.cond2 is False and pw_flat.overall is False

    comp = aw_continuity_conditions(Composed(Affine(1.0, 0.0), Affine(1.0, 1.0)))
    assert comp.overall is None


# ---------------------------------------------------------------------------
# every analysis of every catalog map

SIN = SinReciprocal()
FIN3 = AmbientSpace.finite(((0.0, 1.0, 2.0), (1.0, 0.0, 1.5), (2.0, 1.5, 0.0)))

# map, preimage target, modulus set, eps, and the three reports
ANALYSES = {
    "identity-line": (
        Identity(LINE), ClosedSet.intervals(LINE, [(1.0, 4.0)]),
        ClosedSet.intervals(LINE, [(0.0, 10.0)]), 0.1,
        PreimageReport("bounded-within", radius=4.0, note="identity"),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, True, True, cond1_note="isometry",
                         cond2_note="preimage is the set itself")),
    "identity-plane": (
        Identity(E2), ClosedSet.balls(E2, [((3.0, 0.0), 1.0)]),
        ClosedSet.points(E2, [(0.0, 0.0), (1.0, 1.0)]), 0.5,
        PreimageReport("bounded-within", radius=4.0, note="identity"),
        ModulusReport("certified", delta=0.5, note="Lipschitz constant 1.0"),
        ConditionsReport(True, True, True, cond1_note="isometry",
                         cond2_note="preimage is the set itself")),
    "affine": (
        Affine(2.0, 1.0), ClosedSet.intervals(LINE, [(3.0, 7.0)]),
        ClosedSet.intervals(LINE, [(0.0, 10.0)]), 0.1,
        PreimageReport("bounded-within", radius=3.0),
        ModulusReport("certified", delta=0.05, note="Lipschitz constant 2.0"),
        ConditionsReport(True, True, True, cond1_note="Lipschitz 2.0",
                         cond2_note="affine rescale of the target")),
    "affine-constant-outside": (
        Affine(0.0, 9.0), ClosedSet.intervals(LINE, [(3.0, 7.0)]),
        ClosedSet.points(LINE, [0.0, 1.0, 5.0]), 0.5,
        PreimageReport("bounded-within", radius=0.0,
                       note="constant value outside the target: empty preimage"),
        ModulusReport("certified", delta=0.5, note="Lipschitz constant 0.0"),
        ConditionsReport(True, True, True, cond1_note="constant",
                         cond2_note="single-point image: vacuous")),
    "affine-constant-inside": (
        Affine(0.0, 5.0), ClosedSet.intervals(LINE, [(3.0, 7.0)]),
        ClosedSet.points(LINE, [0.0, 1.0, 5.0]), 0.5,
        PreimageReport("not-applicable",
                       note="constant map: the target meets the image in one point"),
        ModulusReport("certified", delta=0.5, note="Lipschitz constant 0.0"),
        ConditionsReport(True, True, True, cond1_note="constant",
                         cond2_note="single-point image: vacuous")),
    "linear-injective": (
        LinearMatrix(((2.0, 1.0), (0.0, 1.0))), ClosedSet.balls(E2, [((0.0, 0.0), 1.0)]),
        ClosedSet.balls(E2, [((0.0, 0.0), 1.0)]), 0.1,
        PreimageReport("bounded-within", radius=1.1441228056353687,
                       note="injective, sigma_min=0.874032"),
        ModulusReport("certified", delta=0.0437016024448821,
                      note="Lipschitz constant 2.2882456112707374"),
        ConditionsReport(True, True, True, cond1_note="Lipschitz 2.28825",
                         cond2_note="injective, sigma_min=0.874032")),
    "linear-projection": (
        LinearMatrix(((1.0, 0.0),)), ClosedSet.intervals(LINE, [(0.0, 1.0)]),
        ClosedSet.points(E2, [(0.0, 0.0), (3.0, 4.0)]), 0.1,
        PreimageReport("escape-evidence",
                       witnesses=((0.0, 10.0), (0.0, 100.0), (0.0, 1000.0)),
                       note="kernel direction keeps the image fixed"),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, False, False, cond1_note="Lipschitz 1",
                         cond2_note="kernel direction escapes", cond2_witness=(0.0, 1.0))),
    "linear-singular-point": (
        LinearMatrix(((1.0, 0.0), (0.0, 0.0))), ClosedSet.points(E2, [(1.0, 0.0)]),
        ClosedSet.points(E2, [(0.0, 0.0), (3.0, 4.0)]), 0.1,
        PreimageReport("escape-evidence",
                       witnesses=((1.0, 10.0), (1.0, 100.0), (1.0, 1000.0)),
                       note="kernel direction keeps the image fixed"),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, False, False, cond1_note="Lipschitz 1",
                         cond2_note="kernel direction escapes", cond2_witness=(0.0, 1.0))),
    "sin-near-zero": (
        SinReciprocal(), ClosedSet.intervals(LINE, [(-0.5, 0.5)]),
        ClosedSet.intervals(SIN.domain, [(0.01, 0.9)]), 0.5,
        PreimageReport("bounded-within", radius=0.5, note="bounded domain"),
        ModulusReport("counterexample", pair=(0.010436389710943959, 0.010105075751866371),
                      gap=2.0, note="full oscillations persist at every scale near 0"),
        ConditionsReport(False, True, False,
                         cond1_note="oscillation near 0 defeats every modulus",
                         cond2_note="the whole domain is bounded",
                         cond1_witness=(0.001587580479719654, 0.001579701668405909))),
    "sin-away-from-zero": (
        SinReciprocal(), ClosedSet.intervals(LINE, [(-0.5, 0.5)]),
        ClosedSet.intervals(SIN.domain, [(0.5, 0.9)]), 0.2,
        PreimageReport("bounded-within", radius=0.5, note="bounded domain"),
        ModulusReport("certified", delta=0.05, note="derivative bound 1/a^2 with a=0.5"),
        ConditionsReport(False, True, False,
                         cond1_note="oscillation near 0 defeats every modulus",
                         cond2_note="the whole domain is bounded",
                         cond1_witness=(0.001587580479719654, 0.001579701668405909))),
    "sin-points": (
        SinReciprocal(), ClosedSet.points(LINE, [0.0]),
        ClosedSet.points(SIN.domain, [0.1, 0.2, 0.3]), 0.5,
        PreimageReport("bounded-within", radius=0.5, note="bounded domain"),
        ModulusReport("certified", delta=0.04999999999999999,
                      note="half the closest eps-separated pair distance"),
        ConditionsReport(False, True, False,
                         cond1_note="oscillation near 0 defeats every modulus",
                         cond2_note="the whole domain is bounded",
                         cond1_witness=(0.001587580479719654, 0.001579701668405909))),
    "arctan-line-escape": (
        ArctanOfDistance(LINE, 0.0), ClosedSet.intervals(LINE, [(0.0, 1.6)]),
        ClosedSet.intervals(LINE, [(-3.0, 3.0)]), 0.1,
        PreimageReport("escape-evidence", witnesses=(10.0, 100.0, 1000.0),
                       note="the target reaches the arctan ceiling from below"),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, False, False, cond1_note="1-Lipschitz",
                         cond2_note="targets reaching the arctan ceiling pull back unbounded",
                         cond2_witness=ClosedSet.intervals(LINE, [(0.0, 1.6)]))),
    "arctan-line-bounded": (
        ArctanOfDistance(LINE, 0.0), ClosedSet.intervals(LINE, [(0.0, 1.0)]),
        ClosedSet.intervals(LINE, [(-3.0, 3.0)]), 0.1,
        PreimageReport("bounded-within", radius=1.5574077246549023),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, False, False, cond1_note="1-Lipschitz",
                         cond2_note="targets reaching the arctan ceiling pull back unbounded",
                         cond2_witness=ClosedSet.intervals(LINE, [(0.0, 1.6)]))),
    "arctan-plane-escape": (
        ArctanOfDistance(E2, (1.0, 0.0)), ClosedSet.intervals(LINE, [(1.2, 1.6)]),
        ClosedSet.points(E2, [(0.0, 0.0), (1.0, 1.0)]), 0.1,
        PreimageReport("escape-evidence",
                       witnesses=((11.0, 0.0), (101.0, 0.0), (1001.0, 0.0)),
                       note="the target reaches the arctan ceiling from below"),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, False, False, cond1_note="1-Lipschitz",
                         cond2_note="targets reaching the arctan ceiling pull back unbounded",
                         cond2_witness=ClosedSet.intervals(LINE, [(0.0, 1.6)]))),
    "arctan-open-interval": (
        ArctanOfDistance(AmbientSpace.open_interval(0.0, 2.0), 0.5),
        ClosedSet.intervals(LINE, [(0.0, 1.0)]),
        ClosedSet.intervals(AmbientSpace.open_interval(0.0, 2.0), [(0.5, 1.5)]), 0.1,
        PreimageReport("bounded-within", radius=1.0, note="bounded domain"),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, True, True, cond1_note="1-Lipschitz",
                         cond2_note="bounded domain")),
    "arctan-finite": (
        ArctanOfDistance(FIN3, 1),
        ClosedSet.intervals(LINE, [(0.0, 1.0)]),
        ClosedSet.points(FIN3, [0, 2]), 0.1,
        PreimageReport("bounded-within", radius=2.0, note="finite domain"),
        ModulusReport("certified", delta=0.1, note="Lipschitz constant 1.0"),
        ConditionsReport(True, True, True, cond1_note="1-Lipschitz",
                         cond2_note="bounded domain")),
    "piecewise-flat-tail": (
        PiecewiseMonotone1D((0.0, 1.0), (0.0, 2.0), 0.0, -1.0),
        ClosedSet.intervals(LINE, [(-0.5, 0.5)]),
        ClosedSet.intervals(LINE, [(0.0, 1.0)]), 0.1,
        PreimageReport("escape-evidence", witnesses=(-10.0, -100.0, -1000.0),
                       note="a flat tail sits at a value inside the target"),
        ModulusReport("certified", delta=0.05, note="Lipschitz constant 2.0"),
        ConditionsReport(True, False, False, cond1_note="Lipschitz 2",
                         cond2_note="a flat tail keeps an unbounded preimage available",
                         cond2_witness=0.0)),
    "piecewise-steep": (
        PiecewiseMonotone1D((0.0, 1.0), (0.0, 2.0), 1.0, -1.0),
        ClosedSet.intervals(LINE, [(-0.5, 0.5)]),
        ClosedSet.intervals(LINE, [(0.0, 1.0)]), 0.1,
        PreimageReport("bounded-within", radius=3.5),
        ModulusReport("certified", delta=0.05, note="Lipschitz constant 2.0"),
        ConditionsReport(True, True, True, cond1_note="Lipschitz 2",
                         cond2_note="both tails escape to infinity")),
    "composed-affine": (
        Composed(Affine(2.0, 0.0), Affine(1.0, 3.0)),
        ClosedSet.intervals(LINE, [(0.0, 1.0)]),
        ClosedSet.intervals(LINE, [(0.0, 1.0)]), 0.1,
        PreimageReport("not-applicable",
                       note="no preimage analysis for affine(a=2.0, b=0.0) . affine(a=1.0, b=3.0)"),
        ModulusReport("certified", delta=0.05, note="Lipschitz constant 2.0"),
        ConditionsReport(None, None, None,
                         cond1_note="no catalog analysis for affine(a=2.0, b=0.0) . affine(a=1.0, b=3.0)")),
    "composed-sin": (
        Composed(Affine(1.0, 0.0), SinReciprocal()),
        ClosedSet.intervals(LINE, [(0.0, 0.5)]),
        ClosedSet.intervals(SIN.domain, [(0.1, 0.5)]), 0.1,
        PreimageReport("not-applicable",
                       note="no preimage analysis for affine(a=1.0, b=0.0) . sin-reciprocal"),
        ModulusReport("inconclusive",
                      note="no modulus rule for affine(a=1.0, b=0.0) . sin-reciprocal"),
        ConditionsReport(None, None, None,
                         cond1_note="no catalog analysis for affine(a=1.0, b=0.0) . sin-reciprocal")),
    "composed-sin-points": (
        Composed(Affine(1.0, 0.0), SinReciprocal()),
        ClosedSet.intervals(LINE, [(0.0, 0.5)]),
        ClosedSet.points(SIN.domain, [0.1, 0.2, 0.3]), 0.5,
        PreimageReport("not-applicable",
                       note="no preimage analysis for affine(a=1.0, b=0.0) . sin-reciprocal"),
        ModulusReport("certified", delta=0.04999999999999999,
                      note="half the closest eps-separated pair distance"),
        ConditionsReport(None, None, None,
                         cond1_note="no catalog analysis for affine(a=1.0, b=0.0) . sin-reciprocal")),
}


@pytest.mark.parametrize("case", ANALYSES.values(), ids=ANALYSES)
def test_each_map_answers_its_analyses(case):
    f, B, A, eps, preimage, modulus, conditions = case
    assert check_preimage_boundedness(f, B) == preimage
    assert estimate_uniform_modulus(f, A, eps) == modulus
    assert aw_continuity_conditions(f) == conditions


@pytest.mark.parametrize("f", [case[0] for case in ANALYSES.values()], ids=ANALYSES)
def test_a_map_builds_its_spaces_once(f):
    assert f.domain is f.domain and f.codomain is f.codomain


def test_a_group_element_builds_its_space_once():
    g = GroupElement.rotation(0.5)
    assert g.space is g.space


@pytest.mark.parametrize("f, x", [
    (Identity(LINE), math.nan),
    (Affine(2.0, 1.0), math.nan),
    (LinearMatrix(((1.0, 0.0),)), (math.inf, 0.0)),
    (SIN, 1.5),
    (SIN, 0.0),
    (ArctanOfDistance(LINE, 0.0), math.nan),
    (PiecewiseMonotone1D((0.0, 1.0), (0.0, 1.0), 1.0, 1.0), math.inf),
    (Composed(Affine(1.0, 0.0), SIN), 2.0),
])
def test_apply_refuses_a_point_outside_the_domain(f, x):
    with pytest.raises(ValueError):
        f.apply(x)


@pytest.mark.parametrize("make", [
    lambda: Affine(math.inf, 0.0),
    lambda: Affine(-math.inf, 1.0),
    lambda: Affine(1.0, math.nan),
    lambda: PiecewiseMonotone1D((0.0, math.nan, 2.0), (0.0, 1.0, 2.0)),
    lambda: PiecewiseMonotone1D((0.0, 1.0, math.inf), (0.0, 1.0, 2.0)),
    lambda: PiecewiseMonotone1D((0.0, 1.0), (0.0, math.inf)),
    lambda: PiecewiseMonotone1D((0.0, 1.0), (0.0, 1.0), left_slope=math.nan),
    lambda: PiecewiseMonotone1D((0.0, 1.0), (0.0, 1.0), right_slope=-math.inf),
], ids=["a-inf", "a-neg-inf", "b-nan", "knot-nan", "knot-inf", "value-inf",
        "left-nan", "right-inf"])
def test_a_non_finite_parameter_is_refused_at_construction(make):
    # a NaN knot once certified delta = eps with Lipschitz constant 0.0,
    # and an infinite slope a preimage radius of 0.0
    with pytest.raises(ValueError, match="finite"):
        make()


# ---------------------------------------------------------------------------
# probes


def _trough_family(f, ks):
    return [f.oscillation_pair(k)[1] for k in ks]


def test_probe_finds_sin_violation():
    f = SinReciprocal()
    ks = list(range(1, 16))
    A = ClosedSet.points(f.domain, _trough_family(f, ks))
    perturbations = []
    for swap in (5, 10, 15):
        pts = _trough_family(f, ks)
        pts[swap - 1] = f.oscillation_pair(swap)[0]  # crest instead
        perturbations.append(ClosedSet.points(f.domain, pts))
    rep = probe_induced_continuity(f, A, "H", perturbations, eps=0.1)
    assert rep.violation and not bool(rep)
    assert len(rep.rows) == 3


def test_probe_identity_never_violates():
    f = Identity(LINE)
    A = ClosedSet.points(LINE, [0.0, 1.0])
    perts = [ClosedSet.points(LINE, [0.0, 1.0 + d]) for d in (0.5, 0.05, 0.005)]
    rep = probe_induced_continuity(f, A, "H", perts, eps=0.1)
    assert not rep.violation and bool(rep)


@pytest.mark.parametrize("bad", [{"eps": math.nan}, {"eps": 0.0}, {"eps": math.inf},
                                 {"delta_schedule": (math.nan,)},
                                 {"delta_schedule": (1.0, 0.0)}, {"delta_schedule": ()}])
def test_probe_refuses_thresholds_that_no_distance_can_meet(bad):
    # a NaN eps or delta made every comparison False: "no violation"
    f = Identity(LINE)
    A = ClosedSet.points(LINE, [0.0, 1.0])
    perts = [ClosedSet.points(LINE, [0.0, 1.5])]
    with pytest.raises(ValueError):
        probe_induced_continuity(f, A, "H", perts, **bad)


def test_metric_by_name():
    A = ClosedSet.points(LINE, [0.0])
    B = ClosedSet.points(LINE, [0.0, 4.0])
    assert metric_by_name("H-")(A, B).lo == 0.0
    assert metric_by_name("H+")(A, B).lo == 4.0
    assert metric_by_name("H")(A, B).lo == 4.0
    assert metric_by_name("AW")(A, B).lo == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        metric_by_name("L2")


# ---------------------------------------------------------------------------
# the fresh image of a point set, built from its pushed array


def pushed_one_by_one(m, t, pts):
    out = []
    for p in pts:
        with np.errstate(over="ignore", invalid="ignore"):  # as _pushed: the constructor refuses
            y = m @ np.atleast_1d(np.array(p, dtype=float))
            out.append((y if t is None else y + t).tolist())
    return [v for v, in out] if m.shape[0] == 1 else [tuple(v) for v in out]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_image_is_the_set_of_its_pushed_points(data):
    p, n = data.draw(st.sampled_from([(2, 2), (1, 2), (2, 1), (3, 2), (1, 1)]))
    singular = data.draw(st.booleans())
    entry = st.integers(-3, 3).map(float) if singular else spread
    m = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                    min_size=p, max_size=p)))
    if singular and p > 1 and n > 1:
        m[1] = 2.0 * m[0]  # rank one: distinct points merge
    t = None if data.draw(st.booleans()) else np.array(data.draw(
        st.lists(spread, min_size=p, max_size=p)))
    domain = LINE if n == 1 else AmbientSpace.euclidean(n)
    codomain = LINE if p == 1 else AmbientSpace.euclidean(p)
    grid = st.integers(-4, 4).map(float)
    pt = grid if n == 1 else st.tuples(*[grid if singular else spread] * n)
    A = ClosedSet.points(domain, data.draw(st.lists(pt, min_size=1, max_size=12)))
    image = affine_image(m, t, A, codomain)
    expected = ClosedSet.points(codomain, pushed_one_by_one(m, t, A.rep.points))
    assert image == expected
    assert [type(v) for v in image.rep.points] == [type(v) for v in expected.rep.points]


def test_singular_point_images_merge():
    A = ClosedSet.points(E2, [(1.0, 0.0), (0.0, 0.5), (2.0, -0.5), (3.0, 1.0)])
    image = affine_image(np.array([[1.0, 2.0], [2.0, 4.0]]), None, A, E2)
    assert image.rep.points == ((1.0, 2.0), (5.0, 10.0))
    row = affine_image(np.array([[0.0, 0.0]]), np.array([-1.5]), A, LINE)
    assert row.rep.points == (-1.5,)


@pytest.mark.parametrize("m, codomain", [
    (((1e300, 0.0), (0.0, 1.0)), E2),
    (((1e300, -1e300),), LINE),   # inf - inf: a NaN image
    (((1e300, 1.0),), LINE),
])
def test_point_images_that_overflow_raise_the_constructor_error(m, codomain):
    m = np.array(m)
    A = ClosedSet.points(E2, [(0.0, 1.0), (1e10, 1e10), (-1e10, 2.0)])
    with pytest.raises(ValueError) as fast:
        affine_image(m, None, A, codomain)
    with pytest.raises(ValueError) as slow:
        ClosedSet.points(codomain, pushed_one_by_one(m, None, A.rep.points))
    assert str(fast.value) == str(slow.value)


# ---------------------------------------------------------------------------
# the scaled-orthogonality test: np.allclose with rtol=0, read as one max


def allclose_predicate(g, mu2):
    return bool(np.allclose(g, mu2 * np.eye(len(g)), rtol=0.0, atol=1e-12 * max(1.0, mu2)))


def max_predicate(g, mu2):
    return float(np.abs(g - mu2 * np.eye(len(g))).max()) <= 1e-12 * max(1.0, mu2)


def scaled_orthogonal_with_allclose(m):
    """_scaled_orthogonal as it was written with np.allclose."""
    with np.errstate(over="ignore"):
        g = m.T @ m
    mu2 = float(np.mean(np.diag(g)))
    if not 2.2250738585072014e-308 <= mu2 < math.inf and m.any():
        e = math.frexp(float(np.abs(m).max()))[1]
        mu = scaled_orthogonal_with_allclose(np.ldexp(m, -e))
        return None if mu is None else math.ldexp(mu, e)
    return math.sqrt(mu2) if allclose_predicate(g, mu2) else None


def test_the_max_predicate_agrees_with_allclose():
    rng = np.random.default_rng(7)
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(200):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            scale = 10.0 ** rng.uniform(-3, 3)
            mats = [q, scale * q, rng.normal(size=(n, n)), q + 1e-13 * rng.normal(size=(n, n)),
                    q * 10.0 ** rng.choice([-200.0, 200.0]), rng.normal(size=(n, n)) * 1e200,
                    rng.normal(size=(n, n)) * 1e-200]
            for m in mats:
                with np.errstate(over="ignore", under="ignore"):
                    assert _scaled_orthogonal(m) == scaled_orthogonal_with_allclose(m)
                    g = m.T @ m
                mu2 = float(np.mean(np.diag(g)))
                # an infinite mu2 goes to the rescale path before either
                # predicate (allclose would match inf against inf there)
                if math.isfinite(mu2):
                    assert max_predicate(g, mu2) == allclose_predicate(g, mu2)
                checked += 1
            g = (scale * q).T @ (scale * q)
            for bad in (math.nan, math.inf, -math.inf):
                g_bad = g.copy()
                g_bad[rng.integers(n), rng.integers(n)] = bad
                for mu2 in (float(np.mean(np.diag(g))), math.nan):
                    assert not max_predicate(g_bad, mu2)
                    assert not allclose_predicate(g_bad, mu2)
    assert checked == 4 * 200 * 7


def scaled_orthogonal_by_the_mean(m):
    """_scaled_orthogonal as it was written with np.mean(np.diag(g)) and
    g - mu2 * np.eye(n)."""
    with np.errstate(over="ignore"):
        g = m.T @ m
    mu2 = float(np.mean(np.diag(g)))
    if not 2.2250738585072014e-308 <= mu2 < math.inf and m.any():
        e = math.frexp(float(np.abs(m).max()))[1]
        mu = scaled_orthogonal_by_the_mean(np.ldexp(m, -e))
        return None if mu is None else math.ldexp(mu, e)
    return math.sqrt(mu2) if max_predicate(g, mu2) else None


@st.composite
def maps_near_scaled_orthogonal(draw):
    """Matrices p x n: orthogonal ones, scaled, nudged by a few ulps or
    by 1e-13, and arbitrary ones, with entries near 1, 1e-170 or 1e160."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    kind = draw(st.sampled_from(("orthogonal", "ulps", "nudged", "any", "tall", "zero column")))
    if kind == "ulps":
        m = q * (1.0 + rng.integers(-4, 5, size=(n, n)) * 2.0 ** -52)
    elif kind == "nudged":
        m = q + 1e-13 * rng.normal(size=(n, n))
    elif kind == "any":
        m = rng.normal(size=(n, n))
    elif kind == "tall":
        m = np.vstack([q, rng.normal(size=(draw(st.integers(1, 2)), n))])
    elif kind == "zero column":
        m = q.copy()
        m[:, rng.integers(n)] = 0.0
    else:
        m = q
    scale = draw(st.sampled_from((1.0, 1e-170, 1e160, 2.0 ** -600, 3.0)))
    return m * scale * draw(st.floats(0.5, 2.0))


@settings(max_examples=300, deadline=None)
@given(maps_near_scaled_orthogonal())
def test_scaled_orthogonal_keeps_the_floats_of_the_mean_formula(m):
    with np.errstate(under="ignore"):
        assert _scaled_orthogonal(m) == scaled_orthogonal_by_the_mean(m)


@pytest.mark.parametrize("A", [
    ClosedSet.boxes(E2, [((1e-200, 1e-200), (1.0, 1.0))]),
    ClosedSet.segments(E2, [((1e-200, -1.0), (1e-200, 1.0))]),
    ClosedSet.points(E2, [(0.0, 1e-200), (0.0, 2.0)]),
])
def test_arctan_image_keeps_a_tiny_gap(A):
    # the set never comes within 1e-200 of the anchor, so neither may the image
    lo = ArctanOfDistance(E2, (0.0, 0.0)).image(A).normal_form.lo[0]
    assert lo > 0.0 and lo == math.atan(dist_to_set((0.0, 0.0), A))
