"""Metric checks against independently coded oracles.

Every numeric expectation below is either derived in closed form in a
comment or recomputed here by brute force from raw coordinates — the
oracles never call back into the library's geometry helpers, so each
comparison is a genuine second route to the same number.
"""
import itertools
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypermet.hypermetrics as hm
from hypermet.errors import Indeterminate
from hypermet.geom import _CHUNK_BYTES
from hypermet.hypermetrics import (INF, CertifiedValue, ExtReal, aw_distance,
                                   aw_less_than, excess, ext, hausdorff,
                                   hausdorff_lower, hausdorff_upper, set_gap,
                                   sup_gap_on_ball)
from hypermet.sets import ClosedSet, _rows_per_chunk
from hypermet.spaces import AmbientSpace

LINE = AmbientSpace.line()
E2 = AmbientSpace.euclidean(2)


# ---------------------------------------------------------------------------
# oracles


def d_pts(x, pts):
    return min(abs(x - p) for p in pts)


def d_ivs(x, ivs):
    best = math.inf
    for lo, hi in ivs:
        best = min(best, max(lo - x, x - hi, 0.0))
    return best


def brute_window_gap(dA, dB, j, n=2001):
    """[lo, hi] bracket on sup |dA - dB| over [-j, j]; the gap function
    is 2-Lipschitz, so a grid of spacing h misses the sup by <= h."""
    xs = np.linspace(-j, j, n)
    m = max(abs(dA(float(x)) - dB(float(x))) for x in xs)
    return m, m + 2.0 * j / (n - 1)


def brute_aw(dA, dB, J=48, n=2001):
    """[lo, hi] bracket on sup_j min(1/j, window-j gap)."""
    lo = hi = 0.0
    for j in range(1, J + 1):
        glo, ghi = brute_window_gap(dA, dB, j, n)
        lo = max(lo, min(1.0 / j, glo))
        hi = max(hi, min(1.0 / j, ghi))
    return lo, max(hi, 1.0 / (J + 1))  # tail windows contribute <= 1/(J+1)


def brute_hausdorff_pts(P, Q):
    e1 = max(min(abs(p - q) for q in Q) for p in P)
    e2 = max(min(abs(p - q) for p in P) for q in Q)
    return max(e1, e2)


# ---------------------------------------------------------------------------
# frozen closed-form values (worked by hand, derivations in comments)


def test_window_gap_two_points():
    # A={0}, B={0,10}: the distance functions differ only past x=5,
    # where the gap is 2x-10.  Window 5 sees nothing, window 6 sees 2.
    A = ClosedSet.points(LINE, [0.0])
    B = ClosedSet.points(LINE, [0.0, 10.0])
    g5 = sup_gap_on_ball(A, B, 5.0)
    g6 = sup_gap_on_ball(A, B, 6.0)
    assert g5.is_exact and g5.lo == 0.0
    assert g6.is_exact and g6.lo == 2.0


def test_aw_two_points_separated_by_ten():
    # First window j with gap 2j-10 >= 1/j is j=6, so the sup is 1/6.
    A = ClosedSet.points(LINE, [0.0])
    B = ClosedSet.points(LINE, [0.0, 10.0])
    v = aw_distance(A, B)
    assert v.is_exact and v.lo == 1.0 / 6.0
    blo, bhi = brute_aw(lambda x: d_pts(x, [0.0]), lambda x: d_pts(x, [0.0, 10.0]))
    assert blo - 1e-9 <= v.lo <= bhi + 1e-9


def test_aw_escaping_point_family():
    # A={0}, B={0,n}: first window with 2j-n >= 1/j is j = n//2 + 1,
    # giving exactly 1/(n//2+1) <= 2/n.
    A = ClosedSet.points(LINE, [0.0])
    for n in (3, 4, 5, 6, 7, 10, 1000):
        B = ClosedSet.points(LINE, [0.0, float(n)])
        v = aw_distance(A, B)
        assert v.is_exact
        assert v.lo == 1.0 / (n // 2 + 1)
        assert v.lo <= 2.0 / n


def test_hausdorff_nested_intervals():
    # [0,1] vs [0,4]: farthest point of the big interval is 4, at
    # distance 3 from [0,1]; the other excess is 0.
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    B = ClosedSet.intervals(LINE, [(0.0, 4.0)])
    h = hausdorff(A, B)
    assert h.is_exact and h.lo == 3.0
    assert hausdorff_lower(A, B).lo == 0.0  # excess of A into B
    assert hausdorff_upper(A, B).lo == 3.0  # excess of B into A
    assert set_gap(A, B) == 0.0


def test_aw_exact_in_plane_via_window_exit():
    # Same two-point picture rotated into the plane: gap appears at
    # window 3 with value 2 >= 1/3, so the sup is exactly 1/3 and the
    # certificate collapses to a point despite the grid backend.
    A = ClosedSet.points(E2, [(0.0, 0.0)])
    B = ClosedSet.points(E2, [(0.0, 0.0), (4.0, 0.0)])
    v = aw_distance(A, B)
    assert v.is_exact
    assert v.lo == 1.0 / 3.0


def test_aw_saturating_subspace():
    # On (0,1) every window past radius 1/2 is the whole space, so the
    # sup freezes at the full-space gap sup|d(x,{.1}) - d(x,{.9})| = 0.8.
    OI = AmbientSpace.open_interval(0.0, 1.0)
    A = ClosedSet.points(OI, [0.1])
    B = ClosedSet.points(OI, [0.9])
    v = aw_distance(A, B)
    assert v.is_exact
    assert abs(v.lo - 0.8) < 1e-12


def test_cloud_resolution_widens_certificates():
    A = ClosedSet.cloud(LINE, [0.0], 0.1)
    B = ClosedSet.points(LINE, [0.0, 3.0])
    v = aw_distance(A, B)  # sample-level answer is 0.5 (={0} vs {0,3})
    assert v.method.endswith("+cloud")
    assert v.lo == pytest.approx(0.4) and v.hi.as_float() == pytest.approx(0.6)
    e = excess(ClosedSet.points(LINE, [3.0]), A)
    assert e.lo == pytest.approx(2.9) and e.hi.as_float() == pytest.approx(3.1)


def test_ray_excess_is_infinite_but_aw_is_not():
    R = ClosedSet.ray(LINE, 0.0, 1.0)
    P = ClosedSet.points(LINE, [0.0])
    e = excess(R, P)
    assert e.is_infinite and e.hi is INF
    assert excess(P, R).lo == 0.0
    assert hausdorff(R, P).is_infinite
    v = aw_distance(R, P)
    assert not v.is_infinite and v.hi.as_float() <= 1.0


# ---------------------------------------------------------------------------
# brute-force cross-checks on random corpora


def _random_point_pairs(seed, trials, span=20.0):
    rng = np.random.RandomState(seed)
    for _ in range(trials):
        P = sorted(rng.uniform(-span, span, rng.randint(1, 5)))
        Q = sorted(rng.uniform(-span, span, rng.randint(1, 5)))
        yield [float(p) for p in P], [float(q) for q in Q]


def test_aw_matches_brute_envelope_on_line():
    for P, Q in _random_point_pairs(7, 40):
        A = ClosedSet.points(LINE, P)
        B = ClosedSet.points(LINE, Q)
        v = aw_distance(A, B)
        assert v.is_exact
        blo, bhi = brute_aw(lambda x: d_pts(x, P), lambda x: d_pts(x, Q))
        assert blo - 1e-9 <= v.lo <= bhi + 1e-9


def test_window_gap_matches_brute_envelope():
    rng = np.random.RandomState(8)
    for P, Q in _random_point_pairs(9, 25):
        A = ClosedSet.points(LINE, P)
        B = ClosedSet.points(LINE, Q)
        j = float(rng.randint(1, 12))
        g = sup_gap_on_ball(A, B, j)
        blo, bhi = brute_window_gap(lambda x: d_pts(x, P),
                                    lambda x: d_pts(x, Q), j, n=4001)
        assert blo - 1e-9 <= g.lo <= bhi + 1e-9


def test_excess_on_interval_unions_matches_dense_sampling():
    rng = np.random.RandomState(10)
    for _ in range(25):
        ivsA = _random_intervals(rng)
        ivsB = _random_intervals(rng)
        A = ClosedSet.intervals(LINE, ivsA)
        B = ClosedSet.intervals(LINE, ivsB)
        e = excess(A, B)
        # sample each component of A densely; d(., B) is 1-Lipschitz
        lo, hi = 0.0, 0.0
        for a, b in A.rep.intervals:
            xs = np.linspace(a, b, 2001)
            m = max(d_ivs(float(x), ivsB) for x in xs)
            lo = max(lo, m)
            hi = max(hi, m + (b - a) / 2000.0 / 2.0)
        assert lo - 1e-9 <= e.lo <= hi + 1e-9


def _random_intervals(rng):
    out = []
    for _ in range(rng.randint(1, 4)):
        a = float(rng.uniform(-15, 15))
        out.append((a, a + float(rng.uniform(0.1, 6))))
    return out


def test_excess_ball_to_ball_closed_form():
    # sup_{a in B(c1,r1)} d(a, B(c2,r2)) = max(0, |c1-c2| + r1 - r2)
    rng = np.random.RandomState(11)
    for _ in range(50):
        c1 = tuple(rng.uniform(-10, 10, 2))
        c2 = tuple(rng.uniform(-10, 10, 2))
        r1, r2 = rng.uniform(0.1, 5, 2)
        A = ClosedSet.balls(E2, [(c1, float(r1))])
        B = ClosedSet.balls(E2, [(c2, float(r2))])
        want = max(0.0, math.dist(c1, c2) + r1 - r2)
        e = excess(A, B)
        assert e.lo == pytest.approx(want, abs=1e-9)
        assert e.is_exact


def test_hausdorff_point_clouds_in_plane():
    rng = np.random.RandomState(12)
    for _ in range(50):
        P = [tuple(rng.uniform(-10, 10, 2)) for _ in range(rng.randint(1, 6))]
        Q = [tuple(rng.uniform(-10, 10, 2)) for _ in range(rng.randint(1, 6))]
        A = ClosedSet.points(E2, P)
        B = ClosedSet.points(E2, Q)
        e1 = max(min(math.dist(p, q) for q in Q) for p in P)
        e2 = max(min(math.dist(p, q) for p in P) for q in Q)
        h = hausdorff(A, B)
        assert h.lo == pytest.approx(max(e1, e2), abs=1e-12)


def test_aw_grid_certificate_brackets_brute_value():
    # Plane pair with no exact shortcut: the certified interval and the
    # brute-force bracket must overlap.
    A = ClosedSet.points(E2, [(0.0, 0.0), (2.0, 1.0)])
    B = ClosedSet.points(E2, [(1.0, -1.0)])
    v = aw_distance(A, B, tol=1e-3)
    lo = hi = 0.0
    for j in range(1, 9):
        xs = np.linspace(-j, j, 161)
        X, Y = np.meshgrid(xs, xs)
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        dA = np.minimum(np.hypot(pts[:, 0], pts[:, 1]),
                        np.hypot(pts[:, 0] - 2, pts[:, 1] - 1))
        dB = np.hypot(pts[:, 0] - 1, pts[:, 1] + 1)
        m = float(np.max(np.abs(dA - dB)))
        cell = 2.0 * j / 160.0 * math.sqrt(2) / 2.0  # covering radius
        lo = max(lo, min(1.0 / j, m))
        hi = max(hi, min(1.0 / j, m + 2.0 * cell))
    hi = max(hi, 1.0 / 9.0)
    assert v.lo <= hi + 1e-9 and lo - 1e-9 <= v.hi.as_float()
    assert v.width <= 0.05  # grid mode should still be reasonably tight


# ---------------------------------------------------------------------------
# metric axioms (property-based)

finite_pts = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(finite_pts, finite_pts)
def test_symmetry_is_bit_exact(P, Q):
    A = ClosedSet.points(LINE, P)
    B = ClosedSet.points(LINE, Q)
    h1, h2 = hausdorff(A, B), hausdorff(B, A)
    assert h1.lo == h2.lo and h1.hi == h2.hi
    v1, v2 = aw_distance(A, B), aw_distance(B, A)
    assert v1.lo == v2.lo and v1.hi == v2.hi


@settings(max_examples=60, deadline=None)
@given(finite_pts)
def test_identity(P):
    A = ClosedSet.points(LINE, P)
    assert hausdorff(A, A).lo == 0.0 and hausdorff(A, A).hi == ext(0.0)
    assert aw_distance(A, A).lo == 0.0


@settings(max_examples=60, deadline=None)
@given(finite_pts, finite_pts, finite_pts)
def test_triangle_inequalities(P, Q, R):
    A, B, C = (ClosedSet.points(LINE, S) for S in (P, Q, R))
    hAC, hAB, hBC = hausdorff(A, C), hausdorff(A, B), hausdorff(B, C)
    assert hAC.lo <= hAB.lo + hBC.lo + 1e-9
    aAC, aAB, aBC = aw_distance(A, C), aw_distance(A, B), aw_distance(B, C)
    assert aAC.lo <= aAB.hi.as_float() + aBC.hi.as_float() + 1e-9


@settings(max_examples=60, deadline=None)
@given(finite_pts, finite_pts)
def test_aw_range_and_hausdorff_cap(P, Q):
    A = ClosedSet.points(LINE, P)
    B = ClosedSet.points(LINE, Q)
    v = aw_distance(A, B)
    assert 0.0 <= v.lo <= v.hi.as_float() <= 1.0
    h = hausdorff(A, B)
    assert v.lo <= min(1.0, h.hi.as_float()) + 1e-9
    # brute cross-check inside the property test as well
    assert v.lo == pytest.approx(v.hi.as_float())
    assert set_gap(A, B) <= excess(A, B).hi.as_float() + 1e-12
    assert brute_hausdorff_pts(P, Q) == pytest.approx(h.lo, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(finite_pts, finite_pts,
       st.floats(min_value=0.5, max_value=10), st.floats(min_value=0, max_value=10))
def test_window_gap_monotone_in_radius(P, Q, r1, dr):
    A = ClosedSet.points(LINE, P)
    B = ClosedSet.points(LINE, Q)
    g1 = sup_gap_on_ball(A, B, r1)
    g2 = sup_gap_on_ball(A, B, r1 + dr)
    assert g1.lo <= g2.lo + 1e-12


# ---------------------------------------------------------------------------
# threshold decisions


def test_aw_less_than_frozen_cases():
    A = ClosedSet.points(LINE, [0.0])
    B = ClosedSet.points(LINE, [0.0, 10.0])
    assert aw_less_than(A, B, 0.2) is True       # value is 1/6
    assert aw_less_than(A, B, 0.1) is False
    C = ClosedSet.points(LINE, [0.0, 3.0])
    assert aw_less_than(A, C, 0.5) is False      # strict comparison at 1/2
    assert aw_less_than(A, C, 0.51) is True


def test_aw_less_than_rejects_bad_eps():
    A = ClosedSet.points(LINE, [0.0])
    B = ClosedSet.points(LINE, [1.0])
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            aw_less_than(A, B, eps)


def test_aw_less_than_agrees_with_certified_distance():
    rng = np.random.RandomState(13)
    disagreements = 0
    for P, Q in _random_point_pairs(14, 200):
        A = ClosedSet.points(LINE, P)
        B = ClosedSet.points(LINE, Q)
        eps = float(rng.uniform(0.01, 0.99))
        v = aw_distance(A, B)  # exact on the line
        try:
            ans = aw_less_than(A, B, eps)
        except Indeterminate:  # cannot happen with exact windows
            disagreements += 1
            continue
        if ans != (v.lo < eps):
            disagreements += 1
    assert disagreements == 0


def test_aw_less_than_indeterminate_straddle():
    # A unit ball against a ball of radius 0.8 shifted by 0.71: the
    # window-1 certificate at tol 0.02 stays near [0.8935, 0.9122], which
    # straddles 0.9 however early the decision search may stop.
    A = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    B = ClosedSet.balls(E2, [((0.71, 0.0), 0.8)])
    with pytest.raises(Indeterminate, match="straddles eps=0.9"):
        aw_less_than(A, B, 0.9, tol=0.02, node_cap=200_000)
    # {(0.25,0)} vs {(0,0), (0.9,0)}: the window-1 sup is 0.65, approached
    # at the window's edge (1, 0).  A threshold just below it is refused
    # within 40 evaluations and decided within 100; one well below it is
    # decided within 40, as soon as a gap above it is found.
    P = ClosedSet.points(E2, [(0.25, 0.0)])
    Q = ClosedSet.points(E2, [(0.0, 0.0), (0.9, 0.0)])
    with pytest.raises(Indeterminate, match="straddles"):
        aw_less_than(P, Q, 0.649, tol=1e-3, node_cap=40)
    assert aw_less_than(P, Q, 0.649, tol=1e-3, node_cap=100) is False
    assert aw_less_than(P, Q, 0.6, tol=1e-3, node_cap=40) is False


def test_aw_less_than_decides_a_sup_the_pair_bound_pins():
    # The window-1 sup of {(0,0)} vs {(0.6,0)} is 0.6, the points'
    # Hausdorff distance, attained at the base point: 40 evaluations pin
    # it to within the rounding allowance.
    A = ClosedSet.points(E2, [(0.0, 0.0)])
    B = ClosedSet.points(E2, [(0.6, 0.0)])
    assert aw_less_than(A, B, 0.6005, node_cap=40) is True
    assert aw_less_than(A, B, 0.59, node_cap=40) is False


# ---------------------------------------------------------------------------
# certificate plumbing


def test_ext_real_arithmetic():
    assert ext(3.0) < INF
    assert not (INF < ext(3.0))
    assert INF == INF and ext(2.0) == ext(2.0)
    assert ext(3.0) + ext(4.0) == 7.0
    assert INF + 1.0 == math.inf and INF - 1.0 == math.inf
    assert ext(math.inf) is INF and ext(-math.inf) is INF and ext(INF) is INF
    assert INF.is_inf and not ext(5.0).is_inf
    assert ext(5.0).as_float() == 5.0 and type(ext(5.0).as_float()) is float
    assert INF.as_float() == math.inf
    assert repr(INF) == "inf" and repr(ext(0.1)) == repr(0.1) == str(ext(0.1))


def test_certified_value_invariants():
    p = CertifiedValue.point(2.0, "finite-max")
    assert p.is_exact and p.width == 0.0 and not p.is_infinite
    iv = CertifiedValue.interval(1.0, 2.0, "grid(h=0.1)")
    assert not iv.is_exact and iv.width == 1.0
    inf_cv = CertifiedValue.infinite("ray-closed-form")
    assert inf_cv.is_infinite and inf_cv.is_exact and inf_cv.width == 0.0
    ub = CertifiedValue.interval(1.0, INF, "h-bound")
    assert not ub.is_infinite and ub.hi.is_inf
    with pytest.raises(ValueError):
        CertifiedValue.interval(2.0, 1.0, "grid")
    with pytest.raises(ValueError):
        CertifiedValue.interval(-1.0, 1.0, "grid")
    with pytest.raises(ValueError):
        CertifiedValue(math.inf, ext(3.0), "bad")


@pytest.mark.parametrize("lo, hi", [(math.nan, math.nan), (1.0, math.nan), (math.nan, 2.0),
                                    (math.nan, math.inf)])
def test_a_certificate_with_a_nan_end_is_refused(lo, hi):
    with pytest.raises(ValueError, match="empty certificate"):
        CertifiedValue.interval(lo, hi, "grid")


def test_every_upper_end_is_stored_as_an_ext_real():
    assert CertifiedValue.interval(1.0, math.inf, "h-bound").hi is INF
    for cv in (CertifiedValue.point(np.float64(2.5), "finite-max"),
               CertifiedValue(0.5, 0.75, "grid")):
        assert type(cv.hi) is ExtReal and cv.hi == float(cv.hi)
    assert CertifiedValue.interval(1.0, math.inf, "h-bound").to_plain()["hi"] == "inf"
    assert type(CertifiedValue.point(2.5, "m").to_plain()["hi"]) is float
    assert CertifiedValue.infinite("m").to_plain() == {"lo": "inf", "hi": "inf", "method": "m"}


# ---------------------------------------------------------------------------
# budgets are checked where they enter


FINITE = AmbientSpace.finite(((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0)))
BUDGET_PAIRS = {
    "line": (ClosedSet.points(LINE, [0.0, 1.0]), ClosedSet.points(LINE, [0.0, 3.0])),
    "finite": (ClosedSet.points(FINITE, [0]), ClosedSet.points(FINITE, [0, 2])),
    "R^2": (ClosedSet.points(E2, [(0.0, 0.0)]), ClosedSet.points(E2, [(0.0, 0.0), (3.0, 0.0)])),
}
BUDGET_CALLS = {
    "sup_gap_on_ball radius": lambda A, B, v: sup_gap_on_ball(A, B, v),
    "sup_gap_on_ball tol": lambda A, B, v: sup_gap_on_ball(A, B, 1.0, tol=v),
    "sup_gap_on_ball node_cap": lambda A, B, v: sup_gap_on_ball(A, B, 1.0, node_cap=v),
    "aw_distance tol": lambda A, B, v: aw_distance(A, B, tol=v),
    "aw_distance node_cap": lambda A, B, v: aw_distance(A, B, node_cap=v),
    "aw_less_than tol": lambda A, B, v: aw_less_than(A, B, 0.3, tol=v),
    "aw_less_than node_cap": lambda A, B, v: aw_less_than(A, B, 0.3, node_cap=v),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(BUDGET_CALLS))
@pytest.mark.parametrize("ambient", sorted(BUDGET_PAIRS))
def test_bad_budgets_are_refused(ambient, call, bad):
    # unchecked, an infinite radius gave 0.0 on the line (the exact value
    # is 2.0), tol=0 divided by zero in R^2 and a NaN tol failed in int()
    A, B = BUDGET_PAIRS[ambient]
    with pytest.raises(ValueError, match="must be"):
        BUDGET_CALLS[call](A, B, bad)


@pytest.mark.parametrize("cap", [True, 2.0e5, "200000"])
def test_node_cap_must_be_an_int(cap):
    A, B = BUDGET_PAIRS["R^2"]
    with pytest.raises(ValueError, match="node_cap must be an int"):
        aw_distance(A, B, node_cap=cap)


def test_a_positive_cap_below_the_coarsest_grid_stays_indeterminate():
    A, B = BUDGET_PAIRS["R^2"]
    with pytest.raises(Indeterminate, match="node_cap=5"):
        sup_gap_on_ball(A, B, 1.0, node_cap=5)
    assert sup_gap_on_ball(*BUDGET_PAIRS["line"], 1.0e6).lo == 2.0


def test_pair_hausdorff_of_a_large_pair_stays_within_the_budget():
    # 2000 x 2000 pieces: a dense matrix over both sets' pieces would take
    # 128 MB; past the budget the pair bound goes without H
    rng = np.random.default_rng(0)
    A, B = (ClosedSet.points(E2, [tuple(p) for p in rng.uniform(-3.0, 3.0, (2000, 2))])
            for _ in range(2))
    cap = 1000
    assert hm._GapBound(A, B, 4.0, max_rows=cap).H is None
    assert hm._GapBound(A, ClosedSet.points(E2, [(0.0, 0.0)]), 4.0, max_rows=cap).H is None
    small = ClosedSet.points(E2, [(0.0, 0.0), (1.0, 0.0)])
    assert hm._GapBound(small, small, 4.0, max_rows=cap).H.shape == (2, 2)
    tracemalloc.start()
    try:
        cv = sup_gap_on_ball(A, B, 1.0, tol=1e-2, node_cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6
    S = np.random.default_rng(1).uniform(-0.7, 0.7, (400, 2))
    gap = np.abs(oracle_dist(S, A) - oracle_dist(S, B))
    assert float(gap.max()) <= cv.hi.as_float()


# ---------------------------------------------------------------------------
# the n-D branch-and-bound: cube bound, certificates and rounding allowance

SET_KINDS = ("points", "balls", "boxes", "segments", "ray")
unit_coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
small_int = st.integers(-9, 9).map(float)
spread = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
                   st.floats(min_value=-3.0, max_value=4.0))


@st.composite
def piece_sets(draw, n, coord=unit_coord, kinds=SET_KINDS, most=3):
    """A set of one to `most` pieces of one kind, as (kind, pieces)."""
    kind = draw(st.sampled_from(kinds))
    pt = st.tuples(*[coord] * n)
    if kind == "ray":
        u = draw(pt.filter(lambda v: math.hypot(*v) > 0.1 * max(1.0, max(map(abs, v)))))
        return kind, [(draw(pt), u)]
    k = draw(st.integers(1, most))
    if kind == "points":
        return kind, draw(st.lists(pt, min_size=k, max_size=k))
    if kind == "balls":
        size = st.floats(min_value=0.0, max_value=1.5) if coord is unit_coord else coord.map(abs)
        return kind, draw(st.lists(st.tuples(pt, size), min_size=k, max_size=k))
    pairs = draw(st.lists(st.tuples(pt, pt), min_size=k, max_size=k))
    if kind == "boxes":
        pairs = [(tuple(map(min, p, q)), tuple(map(max, p, q))) for p, q in pairs]
    return kind, pairs


def build_set(space, kind, pieces):
    if kind == "ray":
        return ClosedSet.ray(space, *pieces[0])
    return getattr(ClosedSet, kind)(space, pieces)


def oracle_dist(X, S):
    """Distance from each row of X to S, from the raw coordinates."""
    best = np.full(len(X), np.inf)
    for kind, data in S.components():
        if kind == "point":
            d = np.sqrt(((X - np.array(data)) ** 2).sum(axis=1))
        elif kind == "ball":
            d = np.maximum(np.sqrt(((X - np.array(data[0])) ** 2).sum(axis=1)) - data[1], 0.0)
        elif kind == "box":
            lo, hi = np.array(data[0]), np.array(data[1])
            d = np.sqrt((np.maximum(lo - X, 0.0) ** 2 + np.maximum(X - hi, 0.0) ** 2).sum(axis=1))
        else:
            p, v = np.array(data[0]), np.array(data[1])
            if kind == "segment":
                v = v - p
                t = np.clip((X - p) @ v / (v @ v), 0.0, 1.0) if v @ v > 0 else 0.0 * X[:, 0]
            else:
                t = np.maximum((X - p) @ v, 0.0)
            d = np.sqrt(((X - p - t[:, None] * v) ** 2).sum(axis=1))
        best = np.minimum(best, d)
    return best


def cube_sample(c, s, per_side):
    ticks = np.linspace(-s, s, per_side)
    n = len(c)
    return c + np.stack(np.meshgrid(*[ticks] * n, indexing="ij"), axis=-1).reshape(-1, n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cube_bound_covers_the_gap_over_the_cube(data):
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    A = build_set(X, *data.draw(piece_sets(n)))
    B = build_set(X, *data.draw(piece_sets(n)))
    c = np.array(data.draw(st.tuples(*[unit_coord] * n)))
    s = data.draw(st.floats(min_value=0.01, max_value=1.5))
    # a window that may cut the cube: the bound covers the cube within it
    x0 = np.array(data.draw(st.tuples(*[unit_coord] * n)))
    R = float(np.linalg.norm(c - x0)) + data.draw(st.floats(min_value=-0.5, max_value=3.0)) * s
    S = cube_sample(c, s, 41 if n == 2 else 13)
    S = S[np.linalg.norm(S - x0, axis=1) < R]
    assume(len(S) > 0)
    gap = hm._GapBound(A, B, float(np.abs(x0).max()) + R)
    C = c[None, :]
    P, D, G, f, _ = gap.probe(C, x0, R)
    bound = float(gap.bound(C, P, D, G, f, s, x0, R)[0]) + 3.0 * gap.alpha  # with the allowance
    assert float(np.abs(oracle_dist(S, A) - oracle_dist(S, B)).max()) <= bound + 1e-12


def side_bound(a, DP, GP, FP, DQ, GQ, H, r, win):
    """max over q of min over p of U(p, q), a bound on sup d_P - d_Q, in a
    pass of its own: pair arrays shaped (p, q, point)."""
    ip, dp, gp, fp, _ = hm._nearest(DP, GP, FP)
    iq, dq, gq, _, dq_next = hm._nearest(DQ, GQ, DQ)
    up = np.minimum(dp + r, fp)
    pen_p = r * np.where(dp > 5.0 * a, 4.0 * a / (dp - a), 2.0)
    flat = dq <= 5.0 * a
    gq = np.where(flat, 0.0, gq)
    pen_q = np.where(flat, 6.0 * a, r * 4.0 * a / np.where(flat, 1.0, dq - a))
    last = up[:, None, :] - (dq - hm._support(-gq, win) - pen_q)[None, :, :]
    near = dp - a - r
    curv = np.divide(r * r * (1.0 + 32.0 * hm._U), 2.0 * near,
                     out=np.full_like(near, np.inf), where=near > 0.0)
    lin = hm._support(gp[:, :, None, :] - gq[:, None, :, :], win) + pen_p[:, None, :] + pen_q
    U = np.minimum((dp + curv)[:, None, :] - dq + lin, last)
    if H is not None:
        U = np.minimum(U, H[ip[:, None, :], iq[None, :, :]])
    side = U.min(axis=0).max(axis=0)
    if dq_next is not None:
        side = np.maximum(side, up.min(axis=0) - dq_next + r)
    return side


def two_pass_bound(gap, C, P, D, G, f, s, x0, radius):
    """The cube bound with each side of the pair bound in its own pass."""
    e = np.ascontiguousarray((C - P).T)
    r = (s * math.sqrt(gap.n) + np.sqrt((e * e).sum(axis=0))) * (1.0 + 4.0 * hm._U)
    F = hm._far(C, s, x0, radius, gap.pieces)
    win = (e, np.ascontiguousarray((x0 - P).T), s, radius)
    A, B, H = slice(None, gap.mA), slice(gap.mA, None), gap.H
    return np.minimum(f + 2.0 * r, np.maximum(
        side_bound(gap.alpha, D[A], G[:, A], F[A], D[B], G[:, B], H, r, win),
        side_bound(gap.alpha, D[B], G[:, B], F[B], D[A], G[:, A],
                   None if H is None else H.T, r, win)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_one_pass_pair_bound_is_the_two_pass_bound_bit_for_bit(data):
    # more than _NEAREST pieces, mA != mB, B = A, centres on a piece (flat
    # entries, d <= 5 alpha), large cubes (d - alpha - r <= 0), no H, and
    # windows that move evaluation points off the centres
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    A = build_set(X, *data.draw(piece_sets(n, most=9)))
    B = A if data.draw(st.booleans()) else build_set(X, *data.draw(piece_sets(n, most=9)))
    C = np.array(data.draw(st.lists(st.tuples(*[unit_coord] * n), min_size=1, max_size=6)))
    kind, piece = data.draw(st.sampled_from(A.components() + B.components()))
    if data.draw(st.booleans()):  # a centre on a point, a ball's centre or a vertex
        C[0] = piece if kind == "point" else piece[0]
    s = data.draw(st.floats(min_value=0.01, max_value=1.5))
    x0 = np.array(data.draw(st.tuples(*[unit_coord] * n)))
    R = data.draw(st.floats(min_value=0.5, max_value=6.0))
    gap = hm._GapBound(A, B, float(np.abs(x0).max()) + R,
                       max_rows=data.draw(st.sampled_from((0, math.inf))))
    P, D, G, f, _ = gap.probe(C, x0, R)
    one = gap.bound(C, P, D, G, f, s, x0, R)
    two = two_pass_bound(gap, C, P, D, G, f, s, x0, R)
    assert np.array_equal(one.view(np.uint64), two.view(np.uint64))


@pytest.mark.parametrize("pieces", [5, 12, 40])
@pytest.mark.parametrize("n", [2, 3])
def test_a_chunk_of_cube_bounds_stays_near_the_chunk_budget(n, pieces):
    # row_bytes prices both sides' pair tables and the joined _support
    # input, so a chunk of rows peaks near _CHUNK_BYTES, not twice past it
    X = AmbientSpace.euclidean(n)
    rng = np.random.default_rng(pieces + n)
    A = ClosedSet.points(X, [tuple(v) for v in rng.uniform(-2.0, 2.0, (pieces, n))])
    B = ClosedSet.balls(X, [(tuple(v), 0.2) for v in rng.uniform(-2.0, 2.0, (pieces, n))])
    x0, R = np.zeros(n), 3.0
    gap = hm._GapBound(A, B, R)
    C = rng.uniform(-1.5, 1.5, (_rows_per_chunk(gap.row_bytes()), n))
    P, D, G, f, _ = gap.probe(C, x0, R)
    tracemalloc.start()
    try:
        gap.bound(C, P, D, G, f, 0.01, x0, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * _CHUNK_BYTES


SMALL_TOL, SMALL_CAP = 1e-3, 100_000


@settings(max_examples=60, deadline=None, derandomize=True)  # its tol claim is a budget claim
@given(st.data())
def test_bnb_certificate_brackets_a_dense_sample_and_meets_tol(data):
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    small = dict(kinds=("points", "balls"), most=2)
    A = build_set(X, *data.draw(piece_sets(n, **small)))
    B = build_set(X, *data.draw(piece_sets(n, **small)))
    R = data.draw(st.floats(min_value=0.5, max_value=3.0))
    cv = sup_gap_on_ball(A, B, R, tol=SMALL_TOL, node_cap=SMALL_CAP)
    S = cube_sample(np.zeros(n), R, 201 if n == 2 else 41)
    cover = 2.0 * R / (200 if n == 2 else 40) * math.sqrt(n) / 2.0
    rad = np.sqrt((S ** 2).sum(axis=1))
    gap = np.abs(oracle_dist(S, A) - oracle_dist(S, B))
    assert float(gap[rad < R].max()) <= cv.hi.as_float() + 1e-12
    assert cv.lo <= float(gap[rad <= R + cover].max()) + 2.0 * cover + 1e-12
    # the pair bound converges well within this budget; a bound that only
    # sees f(c) + 2 rho does not
    assert cv.width <= SMALL_TOL + 1e-9


def exact_sq_dist(x, kind, data):
    """Exact squared distance from x to one piece (for a ball, to its centre)."""
    x = [Fraction(v) for v in x]
    if kind in ("point", "ball"):
        p = data if kind == "point" else data[0]
        return sum((a - Fraction(b)) ** 2 for a, b in zip(x, p))
    if kind == "box":
        return sum(max(Fraction(l) - a, a - Fraction(h), Fraction(0)) ** 2
                   for a, l, h in zip(x, *data))
    p = [Fraction(v) for v in data[0]]
    v = [Fraction(b) - a for a, b in zip(p, data[1])] if kind == "segment" else \
        [Fraction(b) for b in data[1]]
    vv = sum(b * b for b in v)
    t = sum((a - b) * c for a, b, c in zip(x, p, v)) / vv if vv else Fraction(0)
    t = max(t, Fraction(0)) if kind == "ray" else min(max(t, Fraction(0)), Fraction(1))
    return sum((a - b - t * c) ** 2 for a, b, c in zip(x, p, v))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_distances_lie_within_the_rounding_allowance(data):
    n = data.draw(st.sampled_from((2, 3)))
    coord = data.draw(st.sampled_from((small_int, spread)))
    S = build_set(AmbientSpace.euclidean(n), *data.draw(piece_sets(n, coord=coord)))
    Q = np.array(data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=6)))
    pieces = hm._Pieces(S.components())
    alpha = Fraction(hm._allowance(n, max(pieces.scale, float(np.abs(Q).max()))))
    D, _ = hm._kernel(Q, pieces)
    for x, row in zip(Q, D.T):
        for (kind, piece), d in zip(S.components(), row):
            d, sq = Fraction(float(d)), exact_sq_dist(x, kind, piece)
            r = Fraction(piece[1]) if kind == "ball" else Fraction(0)
            # squares compare the exact distance with d -+ alpha (a ball's
            # distance is the one to its centre less the radius)
            assert sq <= (d + alpha + r) ** 2
            if d - alpha > 0:
                assert sq >= (d - alpha + r) ** 2


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-300, 1e150, 1e200])
def test_window_certificates_bracket_the_sup_at_every_scale(scale):
    # {0} vs {0, p} with p = (q, q): the gap max(0, |x| - |x - p|) peaks
    # on the window's edge towards p, at 2 R - |p| = 2 R - q sqrt(2).  The
    # search squares no offset of this scale, so nothing under- or overflows.
    R, q = scale, 1.2 * scale
    A = ClosedSet.points(E2, [(0.0, 0.0)])
    B = ClosedSet.points(E2, [(0.0, 0.0), (q, q)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cv = sup_gap_on_ball(A, B, R, tol=1e-2 * scale, node_cap=20_000)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = 2 * Decimal(R) - Decimal(q) * Decimal(2).sqrt()
    assert Decimal(cv.lo) <= exact <= Decimal(cv.hi.as_float())
    assert cv.width <= 1e-2 * scale


def test_a_short_segment_far_from_the_window_scale_keeps_its_certificates():
    # the segment is 1e-300 long at 1e9 from the base point, the point at
    # -1e9: on the window of radius 2.5e9 the gap reaches the Hausdorff
    # distance 2e9 at (-2.5e9, 0); near the base point it is about 2 |x_1|,
    # so the window-1 gap is about 2, its term is 1, and so is the distance
    A = ClosedSet.segments(E2, [((1e9, 0.0), (1e9, 1e-300))])
    B = ClosedSet.points(E2, [(-1e9, 0.0)])
    cv = sup_gap_on_ball(A, B, 2.5e9, tol=1.0)
    assert cv.lo <= 2e9 <= cv.hi
    cv = aw_distance(A, B, tol=0.05)
    assert cv.lo <= 1.0 <= cv.hi
    assert aw_less_than(A, B, 0.5, tol=0.05) is False


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_segment_of_any_length_keeps_the_window_certificate_above_its_samples(data):
    # a segment 2^-p long (down to the least subnormal) anchored 10^q from
    # the base point on a coordinate axis, so that its other coordinates
    # keep the short offset, against a point or a box at the same scale
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    p, q = data.draw(st.integers(0, 1074)), data.draw(st.integers(0, 12))
    far = 10.0 ** q
    axis = data.draw(st.integers(0, n - 1))
    anchor = tuple(data.draw(st.sampled_from((-far, far))) if i == axis else 0.0 for i in range(n))
    unit = st.floats(min_value=-1.0, max_value=1.0)
    u = np.array(data.draw(st.tuples(*[unit] * n).filter(lambda v: max(map(abs, v)) > 0.1)))
    u = np.ldexp(u / np.linalg.norm(u), -p)
    A = ClosedSet.segments(X, [(anchor, tuple(float(v) for v in np.array(anchor) + u))])
    lo = far * np.array(data.draw(st.tuples(*[unit] * n)))
    if data.draw(st.booleans()):
        B, corners = ClosedSet.points(X, [tuple(lo)]), [lo]
    else:
        hi = lo + np.abs(lo[::-1])
        B = ClosedSet.boxes(X, [(tuple(lo), tuple(hi))])
        corners = list(itertools.product(*zip(lo, hi)))
    # the sets' own vertices and the base point
    S = np.array([anchor, np.array(anchor) + u, *corners, np.zeros(n)], dtype=float)
    R = 2.0 * float(np.sqrt((S * S).sum(axis=1)).max())
    cv = sup_gap_on_ball(A, B, R, tol=0.1 * far)
    sample = float(np.abs(oracle_dist(S, A) - oracle_dist(S, B)).max())
    assert cv.hi.as_float() >= sample - 4.0 * hm._allowance(n, R)


# ---------------------------------------------------------------------------
# early stops: a threshold decision, a window at 1/j, nested windows

DECIDE_TOL, DECIDE_CAP = 0.02, 20_000


def deciding_window(eps):
    """The window aw_less_than reads for eps: 1/(j + 1) < eps <= 1/j."""
    j = 1
    while 1.0 / (j + 1) >= eps:
        j += 1
    return j


def check_decision(data, A, B):
    """aw_less_than against a full certificate of its window at the same
    tol (min(DECIDE_TOL, eps / 4) = DECIDE_TOL for eps >= 1/4) and cap."""
    j = data.draw(st.integers(1, 3))
    eps = 1.0 / (j + 1) + data.draw(st.floats(min_value=0.01, max_value=0.99)) / (j * (j + 1))
    full = sup_gap_on_ball(A, B, float(j), tol=DECIDE_TOL, node_cap=DECIDE_CAP)
    lo, hi = full.lo, full.hi.as_float()
    # thresholds at or next to the certificate's ends straddle it or just clear it
    near = data.draw(st.sampled_from((None, lo, hi, 0.5 * (lo + hi))))
    if near is not None:
        near += data.draw(st.sampled_from((-1e-9, 0.0, 1e-9)))
        if 1.0 / (j + 1) < near <= 1.0 / j and near < 1.0:
            eps = near
    try:
        verdict = aw_less_than(A, B, eps, tol=DECIDE_TOL, node_cap=DECIDE_CAP)
    except Indeterminate:
        # only where the full certificate straddles eps or a budget stopped it
        assert lo < eps <= hi or full.width > DECIDE_TOL
        return
    assert (lo < eps) if verdict else (hi >= eps)
    if hi < eps or lo >= eps:
        assert verdict is (hi < eps)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_aw_less_than_never_contradicts_the_full_window_certificate(data):
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    check_decision(data, build_set(X, *data.draw(piece_sets(n))),
                   build_set(X, *data.draw(piece_sets(n))))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_cloud_decision_never_contradicts_the_full_window_certificate(data):
    # the cloud's resolution moves the cut and the stop by its slack
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    pts = data.draw(st.lists(st.tuples(*[unit_coord] * n), min_size=1, max_size=4))
    A = ClosedSet.cloud(X, pts, data.draw(st.floats(min_value=0.0, max_value=0.2)))
    check_decision(data, A, build_set(X, *data.draw(piece_sets(n))))


def test_the_decision_search_stops_only_once_its_certificate_clears_eps():
    # the gap at the base point is 0.25 exactly, and the window-4 sup is at
    # least 0.65: a gap equal to eps does not settle "not below eps" until
    # the rounding allowance is cleared as well
    P = ClosedSet.points(E2, [(0.25, 0.0)])
    Q = ClosedSet.points(E2, [(0.0, 0.0), (0.9, 0.0)])
    assert aw_less_than(P, Q, 0.25) is False
    # the same for the window-1 term: the base point's gap is 1 exactly,
    # and the window reaches gaps near 1.9, so the term is exactly 1
    A = ClosedSet.points(E2, [(0.0, 0.0), (0.9, 0.0)])
    B = ClosedSet.balls(E2, [((-2.0, 0.0), 1.0)])
    cv = aw_distance(A, B, tol=0.02)
    assert cv.lo == cv.hi.as_float() == 1.0


def test_a_cube_within_the_allowance_of_eps_stays_open():
    # far from both points the first cube's bound is loose (0.94, the sup
    # is 0.33); a threshold just above it must split that cube, not close it
    # at a bound whose allowance reaches eps
    A = ClosedSet.points(E2, [(3.0, 0.5)])
    B = ClosedSet.points(E2, [(3.0, -0.5)])
    x0 = np.zeros(2)
    gap = hm._GapBound(A, B, 1.0)
    C = x0[None, :]
    P, D, G, f, _ = gap.probe(C, x0, 1.0)
    b = float(gap.bound(C, P, D, G, f, 1.0, x0, 1.0)[0])
    eps = b + gap.alpha
    assert 0.5 < eps < 1.0 and sup_gap_on_ball(A, B, 1.0, tol=0.02).hi < eps
    assert aw_less_than(A, B, eps, tol=0.02) is True


def test_a_nan_cube_bound_leaves_the_gap_unbounded(monkeypatch):
    # a NaN bound fails every comparison, so it closes its cube; the
    # certificate must then refuse to bound the gap, not drop the cube
    monkeypatch.setattr(hm._GapBound, "bound", lambda self, C, *args, **kw: np.full(len(C), np.nan))
    A = ClosedSet.points(E2, [(3.0, 0.5)])
    B = ClosedSet.points(E2, [(3.0, -0.5)])
    cv = sup_gap_on_ball(A, B, 1.0, tol=0.02)
    assert cv.hi.is_inf and math.isfinite(cv.lo)


def test_a_pair_bound_scales_its_pieces_once_per_power_of_two():
    # the windows of one search share a pair bound: each sets its own
    # allowance on the copy scaled by its power of two
    B = ClosedSet.balls(E2, [((3.0, -0.5), 0.25)])
    for A in (ClosedSet.points(E2, [(3.0, 0.5)]),
              # a segment 1e-310 long: its power of two, 2^1030, is no float
              ClosedSet.segments(E2, [((3.0, 0.5), (4.0, 0.5)), ((3.0, 0.0), (3.0, 1e-310))])):
        gap = hm._GapBound(A, B, 1.0)
        small = gap.scaled(-3, 4.0)
        alpha = small.alpha
        assert gap.scaled(-3, 6.0) is small and small.alpha > alpha
        assert gap.scaled(-4, 6.0) is not small
        x = np.zeros((1, 2))
        assert (hm._kernel(x, small.pieces)[0] == np.ldexp(hm._kernel(x, gap.pieces)[0], -3)).all()


@pytest.mark.parametrize("cap", [40, 1000, 200_000])
@pytest.mark.parametrize("n", [2, 3])
def test_the_decision_search_evaluates_no_more_rows_than_the_tol_search(n, cap, monkeypatch):
    # every row the distance kernel sees, as in the node_cap test
    X = AmbientSpace.euclidean(n)
    rng = np.random.RandomState(n)
    rows = []
    kernel = hm._kernel
    monkeypatch.setattr(hm, "_kernel", lambda P, pieces: (rows.append(len(P)), kernel(P, pieces))[1])
    fewer = 0
    for _ in range(4):
        A, B = (ClosedSet.points(X, [tuple(p) for p in rng.uniform(-2.0, 2.0, (3, n))])
                for _ in range(2))
        for eps in rng.uniform(0.1, 0.9, 4):
            rows.clear()
            sup_gap_on_ball(A, B, float(deciding_window(eps)), tol=min(DECIDE_TOL, eps / 4.0),
                            node_cap=cap)
            full = sum(rows)
            rows.clear()
            try:
                aw_less_than(A, B, eps, tol=DECIDE_TOL, node_cap=cap)
            except Indeterminate:
                pass
            assert 0 < sum(rows) <= min(full, cap)
            fewer += sum(rows) < full
    assert fewer > 0


AW_TOL, AW_CAP = 0.02, 100_000


@settings(max_examples=40, deadline=None, derandomize=True)  # its tol claim is a budget claim
@given(st.data())
def test_aw_certificate_brackets_a_dense_sample_and_meets_tol(data):
    # seeded, stopped and plain windows alike: the windowed distance lies
    # in the certificate, and the certificate is tol wide
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    A = build_set(X, *data.draw(piece_sets(n)))
    B = build_set(X, *data.draw(piece_sets(n)))
    cv = aw_distance(A, B, tol=AW_TOL, node_cap=AW_CAP)
    J, per_side = 6, (121 if n == 2 else 31)
    S = cube_sample(np.zeros(n), float(J), per_side)
    cover = J / (per_side - 1) * math.sqrt(n)  # covering radius of the sample
    rad = np.sqrt((S ** 2).sum(axis=1))
    gap = np.abs(oracle_dist(S, A) - oracle_dist(S, B))
    lo, hi = 0.0, 1.0 / (J + 1)  # windows past J add terms <= 1/(J + 1)
    for j in range(1, J + 1):
        lo = max(lo, min(1.0 / j, float(gap[rad < j].max())))
        hi = max(hi, min(1.0 / j, float(gap[rad < j + cover].max()) + 2.0 * cover))
    assert lo <= cv.hi.as_float() + 1e-12 and cv.lo <= hi + 1e-12
    assert cv.width <= AW_TOL + 1e-12


# ---------------------------------------------------------------------------
# the n-D window loop: a finite Hausdorff tail from the pair table, and the
# loop without it as a reference

dyadic = st.integers(-24, 24).map(lambda k: k / 8.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_pair_table_bounds_the_exact_hausdorff_distance_of_point_sets(data):
    n = data.draw(st.sampled_from((2, 3)))
    P, Q = (data.draw(st.lists(st.tuples(*[dyadic] * n), min_size=1, max_size=6))
            for _ in range(2))
    X = AmbientSpace.euclidean(n)
    bound = hm._GapBound(ClosedSet.points(X, P), ClosedSet.points(X, Q), 0.0).hausdorff()

    def sq(p, q):
        return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))

    h2 = max(max(min(sq(p, q) for q in Q) for p in P), max(min(sq(p, q) for p in P) for q in Q))
    assert Fraction(bound) ** 2 >= h2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_pair_table_bound_lies_above_a_dense_sample_of_ball_and_box_unions(data):
    # e(A, B) >= d(x, B) for every sample x inside A, and likewise for B;
    # the pieces reach at most 6 from the origin
    n = data.draw(st.sampled_from((2, 3)))
    X = AmbientSpace.euclidean(n)
    A, B = (build_set(X, *data.draw(piece_sets(n, coord=dyadic, kinds=("balls", "boxes"),
                                               most=4)))
            for _ in range(2))
    bound = hm._GapBound(A, B, 0.0).hausdorff()
    S = cube_sample(np.zeros(n), 6.0, 121 if n == 2 else 25)
    dA, dB = oracle_dist(S, A), oracle_dist(S, B)
    sample = max(dB[dA == 0.0].max(initial=0.0), dA[dB == 0.0].max(initial=0.0))
    assert sample <= bound + 1e-12


def test_the_shifted_boxes_settle_in_one_window(monkeypatch):
    # 30 boxes of side 0.3 against the same boxes moved by (0.04, 0.04):
    # hausdorff refuses the pair, but the pair table bounds H near
    # 0.04 sqrt(2), so window 1 already pins the distance.  With an
    # infinite tail the loop ran 13 windows to push 1/(j+1) down.
    radii = []
    bnb = hm._sup_gap_bnb
    monkeypatch.setattr(hm, "_sup_gap_bnb",
                        lambda *args, **kw: (radii.append(args[3]), bnb(*args, **kw))[1])
    c = np.random.default_rng(3).uniform(-3.0, 3.0, (30, 2))
    A = ClosedSet.boxes(E2, [(tuple(p), tuple(p + 0.3)) for p in c])
    B = ClosedSet.boxes(E2, [(tuple(p + 0.04), tuple(p + 0.34)) for p in c])
    cv = aw_distance(A, B, tol=0.02)
    assert len(radii) <= 2
    assert cv.lo <= 0.04 * math.sqrt(2.0) <= cv.hi.as_float() and cv.width <= 0.02


def ref_aw_distance(A, B, tol, node_cap):
    """aw_distance by the window loop without a finite tail for pairs that
    hausdorff refuses: every window searched to tol / 2 without a cut, the
    upper end the running max of min(1/j, hi of window j), the tail
    min(1/(j+1), hausdorff hi).  Returns (lo, hi, the last window)."""
    try:
        hb = hausdorff(A, B).hi.as_float()
    except hm.UnsupportedPair:
        hb = math.inf
    top = min(1.0, hb)
    if hb <= tol:
        return 0.0, top, 0
    lo = hi = 0.0
    seed = None
    j_cap = min(math.ceil(1.0 / tol) + 1, 512)
    gap = hm._pair_bound(A, B, 0.0, node_cap)
    for j in itertools.count(1):
        G, seed = hm._sup_gap_bnb(A.space, A, B, float(j), tol / 2.0, node_cap, gap, seed,
                                  stop=1.0 / j)
        lo, hi = max(lo, min(1.0 / j, G.lo)), max(hi, min(1.0 / j, G.hi.as_float()))
        if G.lo >= 1.0 / j:
            return min(lo, top), min(max(hi, lo), top), j
        tail = min(1.0 / (j + 1), hb)
        if tail <= lo:
            return min(lo, top), min(hi, top), j
        if max(hi, tail) - lo <= tol or j >= j_cap:
            return min(lo, top), min(max(hi, tail), top), j


def loop_corpus(seed, count):
    """Pairs of point, ball, box, segment and ray sets of 1 to 6 pieces in
    R^2 and R^3: half of them a set and a copy moved by 0.01 to 0.5, half
    two sets drawn apart."""
    rng = np.random.default_rng(seed)
    kinds = ("points", "balls", "boxes", "segments", "ray")

    def draw(X, kind, k, base=None, move=0.0):
        n = X.dim
        if base is None:
            base = (rng.uniform(-3.0, 3.0, (k, n)), rng.uniform(-1.0, 1.0, (k, n)),
                    rng.uniform(0.0, 1.0, k))
        P, Q, r = base[0] + move * rng.normal(size=base[0].shape), base[1], base[2]
        if kind == "ray":
            return ClosedSet.ray(X, tuple(P[0]), tuple(Q[0])), base
        if kind == "points":
            return ClosedSet.points(X, [tuple(p) for p in P]), base
        if kind == "balls":
            return ClosedSet.balls(X, [(tuple(p), float(s)) for p, s in zip(P, r)]), base
        if kind == "boxes":
            return ClosedSet.boxes(X, [(tuple(p), tuple(p + np.abs(q))) for p, q in zip(P, Q)]), base
        return ClosedSet.segments(X, [(tuple(p), tuple(p + q)) for p, q in zip(P, Q)]), base

    for i in range(count):
        X = AmbientSpace.euclidean(2 + i % 2)
        kind = kinds[rng.integers(5)]
        A, base = draw(X, kind, int(rng.integers(1, 7)))
        if rng.integers(2):
            B, _ = draw(X, kind, 0, base, float(10.0 ** rng.uniform(-2.0, -0.3)))
        else:
            B, _ = draw(X, kinds[rng.integers(5)], int(rng.integers(1, 7)))
        yield A, B


def test_the_window_loop_meets_the_loop_without_a_finite_tail():
    # every certificate intersects the reference's and lies above a dense
    # sample; it is tol wide wherever the reference is, and its hi exceeds
    # the reference's by rounding only, or as far as its own tol stop lets
    # it (a finite tail can stop the loop windows earlier); aw_less_than
    # never contradicts it
    changed = 0
    for A, B in loop_corpus(1, 200):
        n = A.space.dim
        cv = aw_distance(A, B, tol=AW_TOL, node_cap=AW_CAP)
        lo, hi = cv.lo, cv.hi.as_float()
        ref_lo, ref_hi, J = ref_aw_distance(A, B, AW_TOL, AW_CAP)
        alpha = hm._allowance(n, max(hm._GapBound(A, B, 0.0).pieces.scale, J + 1.0))
        assert lo <= ref_hi and ref_lo <= hi
        assert hi <= max(ref_hi, lo + AW_TOL) + 4.0 * alpha
        if ref_hi - ref_lo <= AW_TOL:
            assert hi - lo <= AW_TOL
        changed += (lo, hi) != (ref_lo, ref_hi)
        S = cube_sample(np.zeros(n), 6.0, 61 if n == 2 else 17)
        rad = np.sqrt((S ** 2).sum(axis=1))
        gap = np.abs(oracle_dist(S, A) - oracle_dist(S, B))
        assert max(min(1.0 / j, float(gap[rad < j].max())) for j in range(1, 7)) <= hi + 1e-12
        for eps in {lo, hi, 0.5 * (lo + hi)} - {0.0, 1.0}:
            try:
                verdict = aw_less_than(A, B, eps, tol=AW_TOL, node_cap=AW_CAP)
            except Indeterminate:
                continue
            assert (lo < eps) if verdict else (hi >= eps)
    assert changed > 0
