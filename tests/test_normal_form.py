"""The 1-D interval normal form against brute-force references.

The references below are the per-component scans and the one-window-
at-a-time walk that the normal form replaced.  Every answer must match
them exactly: the same value, method and witness, ties included.
"""

import itertools
import math
import sys
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypermet.geom as geom
import hypermet.hypermetrics as hm
from hypermet import AmbientSpace, ClosedSet
from hypermet.errors import Indeterminate
from hypermet.hitmiss import OpenSetRep, canonical_neighborhoods, subset_of
from hypermet.hypermetrics import aw_distance, excess, hausdorff, set_gap, sup_gap_on_ball
from hypermet.induced import ArctanOfDistance, dist_range
from hypermet.sets import IntervalUnion, bounding_radius, dist_to_set, truncate
from test_piece_rules import ref_components

LINE = AmbientSpace.line()
E1 = AmbientSpace.euclidean(1)
OPEN = AmbientSpace.open_interval(-2.0e4, 2.0e4, 0.0)


# ---------------------------------------------------------------------------
# brute-force references


def _x(p):
    return p[0] if isinstance(p, tuple) else p


def ref_dist_components(x, S):
    best = math.inf
    for kind, data in ref_components(S):
        best = min(best, abs(x - data) if kind == "point"
                   else max(data[0] - x, x - data[1], 0.0))
    return best


def ref_dist(x, ivs):
    best = math.inf
    for lo, hi in ivs:
        best = min(best, max(lo - x, x - hi, 0.0))
    return best


def ref_merged(S):
    ivs = sorted((d, d) if k == "point" else d for k, d in ref_components(S))
    merged = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def ref_gap(ia, ib):
    return min(max(0.0, lo2 - hi1, lo1 - hi2) for lo1, hi1 in ia for lo2, hi2 in ib)


def ref_far(x, ivs):
    return max(max(abs(x - lo), abs(x - hi)) for lo, hi in ivs)


def ref_mids(ivs):
    return [0.5 * (h1 + l2) for (_, h1), (l2, _) in zip(ivs, ivs[1:])]


def ref_excess(A, B):
    if hasattr(A.rep, "points"):
        best, wit = -1.0, None
        for p in A.rep.points:
            d = ref_dist_components(_x(p), B)
            if d > best:
                best, wit = d, p
        return best, best, "finite-max", wit
    ia, ib = ref_merged(A), ref_merged(B)
    if ia[-1][1] == math.inf and ib[-1][1] != math.inf:
        return math.inf, math.inf, "exact-1d", ("escape", +1.0)
    if ia[0][0] == -math.inf and ib[0][0] != -math.inf:
        return math.inf, math.inf, "exact-1d", ("escape", -1.0)
    # A's finite ends, every lower end before every upper end, then B's
    # gap midpoints inside A
    cands = [v for ends in zip(*ia) for v in ends if math.isfinite(v)]
    cands += [m for m in ref_mids(ib) if any(lo <= m <= hi for lo, hi in ia)]
    best, wit = 0.0, None
    for c in cands:
        d = ref_dist(c, ib)
        if d > best:
            best, wit = d, c
    return best, best, "exact-1d", wit


def _ref_window(space, x0, radius):
    lo, hi = x0 - radius, x0 + radius
    if space.bounds is not None:
        lo, hi = max(lo, space.bounds[0]), min(hi, space.bounds[1])
    return lo, hi


def ref_candidates(ivs):
    """A set's finite ends, interval by interval, then its gap midpoints."""
    return [v for iv in ivs for v in iv if math.isfinite(v)] + ref_mids(ivs)


def ref_sup_gap(space, A, B, radius):
    ia, ib = ref_merged(A), ref_merged(B)
    lo_w, hi_w = _ref_window(space, _x(space.base_point), radius)
    best, wit = 0.0, lo_w
    for c in ref_candidates(ia) + ref_candidates(ib) + [lo_w, hi_w]:
        if lo_w <= c <= hi_w:
            d = abs(ref_dist(c, ia) - ref_dist(c, ib))
            if d > best:
                best, wit = d, c
    return best, best, "exact-1d", wit


def ref_aw_walk(space, A, B):
    """The window walk: every window from the first positive gap on.

    Returns the value and whether the rounded gaps g(j) it visited were
    nondecreasing, as they are in exact arithmetic."""
    ia, ib = ref_merged(A), ref_merged(B)
    x0 = _x(space.base_point)

    def delta(x):
        return abs(ref_dist(x, ia) - ref_dist(x, ib))

    pairs = sorted((abs(c - x0), delta(c)) for c in ref_candidates(ia) + ref_candidates(ib))
    radii = [r for r, _ in pairs]
    prefix = list(itertools.accumulate((v for _, v in pairs), max)) or [0.0]
    if space.bounds is not None:
        a, b = space.bounds
        max_rad = max(x0 - a, b - x0)
        g_inf = max(prefix[-1], delta(a), delta(b))
    else:
        max_rad = radii[-1] if radii else 0.0
        up = (ia[-1][1] == math.inf, ib[-1][1] == math.inf)
        dn = (ia[0][0] == -math.inf, ib[0][0] == -math.inf)
        if up[0] != up[1] or dn[0] != dn[1]:
            g_inf = None
        else:
            right = 0.0 if up[0] else abs(ia[-1][1] - ib[-1][1])
            left = 0.0 if dn[0] else abs(ia[0][0] - ib[0][0])
            g_inf = max(prefix[-1], left, right)

    def g(j):
        lo_w, hi_w = _ref_window(space, x0, float(j))
        i = bisect_right(radii, float(j))
        return max(prefix[i - 1] if i else 0.0, delta(lo_w), delta(hi_w))

    j_sat = int(math.ceil(max_rad)) + 1
    if g(j_sat) == 0.0:
        return (0.0 if g_inf == 0.0 else min(g_inf, 1.0 / (j_sat + 1))), True
    lo_j, hi_j = 1, j_sat  # the first window with a positive gap
    while lo_j < hi_j:
        mid = (lo_j + hi_j) // 2
        if g(mid) > 0.0:
            hi_j = mid
        else:
            lo_j = mid + 1
    best = prev = 0.0
    monotone = True
    for j in itertools.count(lo_j):
        gj = g(j)
        monotone = monotone and gj >= prev
        prev = gj
        best = max(best, min(1.0 / j, gj))
        if gj >= 1.0 / j:
            return best, monotone
        if j >= j_sat and g_inf is not None:
            return max(best, min(1.0 / (j + 1), g_inf)), monotone


def ref_aw(space, A, B):
    v, monotone = ref_aw_walk(space, A, B)
    v = min(v, 1.0)
    h = max(ref_excess(A, B)[1], ref_excess(B, A)[1])
    if h < v:
        v = h
    return (v, v, "exact-1d", None), monotone


# coordinates and window radii in these tests stay below 2^15
ROUNDING = 4 * math.ulp(2.0 ** 15)


def same(cv, ref):
    """Equal value, method and witness; the witness also by repr, so the
    sign of a zero counts."""
    lo, hi, method, wit = ref
    assert (cv.lo, cv.hi.as_float(), cv.method) == (lo, hi, method)
    assert cv.witness == wit and type(cv.witness) is type(wit)
    assert repr(cv.witness) == repr(wit)


# ---------------------------------------------------------------------------
# strategies: magnitudes over 1e-3..1e4 of both signs, and a coarse grid
# whose sets tie on many candidates


spread = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                   st.floats(min_value=-3.0, max_value=4.0))
coarse = st.integers(min_value=-24, max_value=24).map(lambda k: k / 4.0)
coord = st.one_of(spread, coarse)


@st.composite
def one_d_sets(draw, space):
    kinds = ["points", "intervals"] + (["ray"] if space.bounds is None else [])
    kind = draw(st.sampled_from(kinds))
    wrap = (lambda x: (x,)) if space.kind == "euclidean" else (lambda x: x)
    if kind == "points":
        xs = draw(st.lists(coord, min_size=1, max_size=8))
        return ClosedSet.points(space, [wrap(x) for x in xs])
    if kind == "intervals":
        ends = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
        return ClosedSet.intervals(space, [tuple(sorted(e)) for e in ends])
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return ClosedSet.ray(space, wrap(draw(coord)), wrap(sign))


@st.composite
def e1_solids(draw):
    """Ball, box and segment unions on E^1; their pieces may overlap."""
    kind = draw(st.sampled_from(["balls", "boxes", "segments"]))
    ends = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    if kind == "balls":
        return ClosedSet.balls(E1, [((a,), abs(b)) for a, b in ends])
    if kind == "boxes":
        return ClosedSet.boxes(E1, [((min(a, b),), (max(a, b),)) for a, b in ends])
    return ClosedSet.segments(E1, [((a,), (b,)) for a, b in ends])


@st.composite
def pairs(draw):
    space = draw(st.sampled_from([LINE, E1, OPEN]))
    return space, draw(one_d_sets(space)), draw(one_d_sets(space))


@st.composite
def pairs_with_solids(draw):
    sets = st.one_of(one_d_sets(E1), e1_solids())
    return draw(st.one_of(pairs(), st.tuples(st.just(E1), sets, sets)))


@settings(max_examples=200, deadline=None)
@given(pairs(), coord)
def test_dist_to_set_matches_component_scan(pair, x):
    space, A, _ = pair
    p = (x,) if space.kind == "euclidean" else x
    assert dist_to_set(p, A) == ref_dist_components(x, A)


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_excess_matches_candidate_scan(pair):
    _, A, B = pair
    same(excess(A, B), ref_excess(A, B))
    same(excess(B, A), ref_excess(B, A))


@settings(max_examples=200, deadline=None)
@given(pairs(), st.sampled_from([0.25, 1.0, 3.0, 7.5, 40.0, 1.0e3, 3.0e4]))
def test_sup_gap_matches_candidate_scan(pair, radius):
    space, A, B = pair
    same(sup_gap_on_ball(A, B, radius), ref_sup_gap(space, A, B, radius))


@settings(max_examples=200, deadline=None)
@given(pairs(), st.sampled_from([0.25, 1.0, 3.0, 7.5, 40.0, 1.0e3, 3.0e4]))
def test_a_positive_sup_gap_is_witnessed_where_the_gap_attains_it(pair, radius):
    # the witness is a point of the window with the certificate's gap; it
    # is a window edge only when no candidate of either set attains it
    space, A, B = pair
    cv = sup_gap_on_ball(A, B, radius)
    if cv.lo == 0.0:
        return
    ia, ib = ref_merged(A), ref_merged(B)
    lo_w, hi_w = _ref_window(space, _x(space.base_point), radius)

    def gap(x):
        return abs(ref_dist(x, ia) - ref_dist(x, ib))

    w = cv.witness
    assert lo_w <= w <= hi_w and gap(w) == cv.lo
    own = [c for c in ref_candidates(ia) + ref_candidates(ib) if lo_w <= c <= hi_w]
    if w not in own:
        assert w in (lo_w, hi_w) and all(gap(c) < cv.lo for c in own)


@settings(max_examples=150, deadline=None)
@given(pairs())
@example((LINE, ClosedSet.intervals(LINE, [(-0.5232991146814947, 100.0)]),
          ClosedSet.ray(LINE, -0.5623413251903491, 1.0)))
def test_aw_distance_matches_window_walk(pair):
    space, A, B = pair
    ref, monotone = ref_aw(space, A, B)
    cv = aw_distance(A, B)
    if monotone:
        same(cv, ref)
    else:
        # Where the gap is flat in exact arithmetic, rounding at the window
        # edges can make the float g(j) dip.  The walk kept the largest of
        # the rounded values it visited; the search reads g(J-1) only.
        assert cv.method == "exact-1d" and cv.is_exact
        assert abs(cv.lo - ref[0]) <= ROUNDING


@settings(max_examples=300, deadline=None)
@given(pairs_with_solids(), coord)
def test_gap_and_distance_ranges_match_the_merged_intervals(pair, x):
    space, A, B = pair
    ia, ib = ref_merged(A), ref_merged(B)
    assert set_gap(A, B) == set_gap(B, A) == ref_gap(ia, ib)
    assert bounding_radius(A) == ref_far(_x(space.base_point), ia)
    p = (x,) if space.kind == "euclidean" else x
    assert dist_range(p, A) == (ref_dist(x, ia), ref_far(x, ia))


def test_e1_sets_answer_like_the_same_intervals_on_the_line():
    # each call below raised TypeError while E^1 queries went through
    # float-point shapes
    on_e1 = [ClosedSet.segments(E1, [((3.0,), (1.0,)), ((5.0,), (6.0,))]),
             ClosedSet.balls(E1, [((2.0,), 1.0), ((5.5,), 0.5)]),
             ClosedSet.boxes(E1, [((1.0,), (3.0,)), ((5.0,), (6.0,))])]
    S = ClosedSet.intervals(LINE, [(1.0, 3.0), (5.0, 6.0)])
    T, T1 = ClosedSet.points(LINE, [0.0, 4.5]), ClosedSet.points(E1, [(0.0,), (4.5,)])
    for A in on_e1:
        assert list(A.normal_form.intervals) == [(1.0, 3.0), (5.0, 6.0)]
        assert dist_to_set((4.0,), A) == dist_to_set(4.0, S) == 1.0
        assert repr(hausdorff(A, T1)) == repr(hausdorff(S, T)) == "<2.25 by exact-1d|finite-max>"
        assert repr(aw_distance(A, T1)) == repr(aw_distance(S, T))
        assert set_gap(A, T1) == set_gap(S, T) == 0.5
        assert bounding_radius(A) == bounding_radius(S) == 6.0
        assert dist_range((2.0,), A) == dist_range(2.0, S) == (0.0, 4.0)
        assert (ArctanOfDistance(E1, (2.0,)).image(A)
                == ArctanOfDistance(LINE, 2.0).image(S)
                == ClosedSet.intervals(LINE, [(0.0, math.atan(1.0)),
                                              (math.atan(3.0), math.atan(4.0))]))
    assert dist_range((2.0,), T1) == (2.0, 2.5)
    ray = ClosedSet.ray(E1, (1.0,), (-1.0,))
    assert ArctanOfDistance(E1).image(ray) == ClosedSet.intervals(LINE, [(0.0, math.pi / 2)])


# two gaps whose ends sum past the float range
FAR_A = [(1e308, 1.1e308), (1.5e308, 1.7e308)]
FAR_B = [(1e308, 1.7e308)]


def test_enlargement_keeps_point_centres_near_the_float_range():
    A = ClosedSet.points(LINE, [-1.5e308, 1e308])
    (contain,) = canonical_neighborhoods(A, "upperV", 1.0)
    assert contain.open_set.balls == ((-1.5e308, 1.0), (1e308, 1.0))
    # an interval whose ends sum past the float range
    B = ClosedSet.intervals(LINE, FAR_B)
    (contain,) = canonical_neighborhoods(B, "upperV", 1e307)
    (c, r), = contain.open_set.balls
    lo, hi = Fraction(1e308), Fraction(1.7e308)
    assert c == float((lo + hi) / 2) and r == float((hi - lo) / 2) + 1e307
    assert contain.satisfied_by(B)


@pytest.mark.parametrize("F", [2.0 ** 53, 1e16, 1e100, 1e300, 1e308, sys.float_info.max])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_a_ray_against_its_far_stretch_has_distance_one_over_f_plus_one(F, side):
    # ray(0, +-1) and +-[0, F] agree on every window up to radius F; the
    # window-j gap is j - F past it, so the first term that 1/j caps is at
    # j = F + 1, and the distance is 1/(F + 1)
    A = ClosedSet.ray(LINE, 0.0, side)
    B = ClosedSet.intervals(LINE, [tuple(sorted((0.0, side * F)))])
    cv = aw_distance(A, B)
    assert cv.lo == cv.hi.as_float()
    assert abs(Fraction(cv.lo) * (Fraction(F) + 1) - 1) <= 4 * Fraction(2) ** -52


def test_gap_midpoints_past_half_the_float_range_stay_finite():
    # d_A peaks at the midpoint of A's gap, half its width from both ends,
    # where d_B is 0; the value is read at the rounded midpoint, a few ulps
    # of the coordinates from the exact half
    A, B = ClosedSet.intervals(LINE, FAR_A), ClosedSet.intervals(LINE, FAR_B)
    half = (Fraction(1.5e308) - Fraction(1.1e308)) / 2
    assert A.normal_form.midpoints.tolist() == [1.3e308]
    X = AmbientSpace.line(1.3e308)
    near = ClosedSet.intervals(X, FAR_A), ClosedSet.intervals(X, FAR_B)
    for cv in (hausdorff(A, B), excess(B, A), sup_gap_on_ball(*near, 4e307)):
        assert cv.lo == cv.hi.as_float()
        assert abs(Fraction(cv.lo) - half) <= 4 * Fraction(2) ** -52 * half
    # the first window the gap caps at 1/j reaches just past 1.1e308
    cv = aw_distance(A, B)
    assert cv.lo == cv.hi.as_float() and math.isclose(cv.lo, 1.0 / 1.1e308, rel_tol=1e-12)


def test_one_d_gaps_and_ranges_never_use_the_n_d_shapes(monkeypatch):
    def refuse(*shapes):
        raise AssertionError(f"geom.gap{shapes}")

    monkeypatch.setattr(geom, "gap", refuse)
    for space in (LINE, E1, OPEN):
        wrap = (lambda x: (x,)) if space.kind == "euclidean" else (lambda x: x)
        sets = [ClosedSet.points(space, [wrap(-3.0), wrap(0.5), wrap(9.0)]),
                ClosedSet.intervals(space, [(-8.0, -2.0), (1.0, 4.0)])]
        if space.bounds is None:
            sets.append(ClosedSet.ray(space, wrap(2.5), wrap(1.0)))
        for A, B in itertools.product(sets, repeat=2):
            set_gap(A, B)
            dist_range(wrap(7.0), A)
            bounding_radius(A)


def ref_covered(ivs, balls):
    """Every closed interval inside one component of the union of the
    open intervals (c - r, c + r)."""
    comps = []
    for a, b in sorted((c - r, c + r) for c, r in balls):
        if comps and a < comps[-1][1]:
            comps[-1][1] = max(comps[-1][1], b)
        else:
            comps.append([a, b])
    return all(any(a < lo and hi < b for a, b in comps) for lo, hi in ivs)


@settings(max_examples=200, deadline=None)
@given(pairs_with_solids(), st.sampled_from([0.5, 3.0, 40.0, 1.0e4]),
       st.lists(st.tuples(coord, st.sampled_from([0.5, 2.0, 1.0e3])),
                min_size=1, max_size=3))
def test_truncate_and_cover_match_the_merged_intervals(pair, L, balls):
    space, A, _ = pair
    ivs = ref_merged(A)
    x0 = _x(space.base_point)
    clipped = [(max(lo, x0 - L), min(hi, x0 + L)) for lo, hi in ivs]
    clipped = [(lo, hi) for lo, hi in clipped if lo <= hi]
    T = truncate(A, L)
    assert (T is None and not clipped) or list(T.normal_form.intervals) == clipped
    if T is not None and not hasattr(A.rep, "points"):
        assert isinstance(T.rep, IntervalUnion)
    wrap = (lambda x: (x,)) if space.kind == "euclidean" else (lambda x: x)
    U = OpenSetRep.ball_union(space, [(wrap(c), r) for c, r in balls])
    assert subset_of(A, U) == ref_covered(ivs, balls)


def test_e1_balls_and_boxes_cut_by_the_window_are_intervals():
    # both raised UnsupportedPair while E^1 solids were cut as n-D shapes
    ball = truncate(ClosedSet.balls(E1, [((0.0,), 2.0)]), 1.0)
    box = truncate(ClosedSet.boxes(E1, [((0.5,), (3.0,)), ((-5.0,), (-4.0,))]), 1.0)
    assert ball == ClosedSet.intervals(E1, [(-1.0, 1.0)])
    assert box == ClosedSet.intervals(E1, [(0.5, 1.0)])


def test_tied_candidates_keep_the_scan_witness():
    # symmetric sets: both window edges and several breakpoints tie
    A = ClosedSet.points(LINE, [-3.0, 0.0, 3.0])
    B = ClosedSet.points(LINE, [-2.0, 2.0])
    for r in (1.0, 2.5, 5.0):
        same(sup_gap_on_ball(A, B, r), ref_sup_gap(LINE, A, B, r))
    same(excess(A, B), ref_excess(A, B))
    ref, monotone = ref_aw(LINE, A, B)
    assert monotone
    same(aw_distance(A, B), ref)


def test_ties_between_distinct_candidates_keep_the_scan_witness():
    # one maximising value: B's point 0.5, which is also A's gap midpoint
    A, B = ClosedSet.points(LINE, [-2.0, 3.0]), ClosedSet.points(LINE, [0.5])
    same(sup_gap_on_ball(A, B, 1.0), (2.5, 2.5, "exact-1d", 0.5))
    # outside both sets the gap is flat: A's outer end 0 ties with A's gap
    # midpoint 2.5, B's point 1 and the window edge -3; A's ends come first
    A, B = ClosedSet.points(LINE, [0.0, 5.0]), ClosedSet.points(LINE, [1.0])
    same(sup_gap_on_ball(A, B, 3.0), (1.0, 1.0, "exact-1d", 0.0))
    same(sup_gap_on_ball(A, B, 3.0), ref_sup_gap(LINE, A, B, 3.0))
    # A's upper end 12 and B's gap midpoint 4 tie; the scan reads A's ends
    # before B's midpoints
    A, B = ClosedSet.intervals(LINE, [(0.0, 12.0)]), ClosedSet.points(LINE, [0.0, 8.0])
    same(excess(A, B), (4.0, 4.0, "exact-1d", 12.0))
    same(excess(A, B), ref_excess(A, B))
    # A's ends 1 and 3 tie (and B's midpoints 1 and 3); every lower end
    # comes before every upper end
    A = ClosedSet.intervals(LINE, [(0.0, 1.0), (3.0, 4.0)])
    B = ClosedSet.points(LINE, [0.0, 2.0, 4.0])
    same(excess(A, B), (1.0, 1.0, "exact-1d", 3.0))
    same(excess(A, B), ref_excess(A, B))


@pytest.mark.parametrize("swap", [False, True])
def test_a_zero_witness_keeps_the_sign_of_the_first_zero(swap):
    # the gap peaks at 0 alone, where A has the point -0.0 and B the gap
    # midpoint 0.0; the scan reads the first set's candidates first
    A, B = ClosedSet.points(LINE, [-0.0]), ClosedSet.points(LINE, [-1.0, 1.0])
    if swap:
        A, B = B, A
    cv = sup_gap_on_ball(A, B, 0.5)
    same(cv, ref_sup_gap(LINE, A, B, 0.5))
    assert repr(cv.witness) == ("0.0" if swap else "-0.0")


@pytest.mark.parametrize("radius", [1.7e308, 1.6e308])
def test_a_window_edge_past_the_float_range_from_both_sets_reads_no_nan(radius):
    # the edge -radius lies more than the float range from both sets, so
    # both distances there overflow to inf and their difference is NaN;
    # the gap peaks at A's gap midpoint
    A, B = ClosedSet.intervals(LINE, FAR_A), ClosedSet.intervals(LINE, FAR_B)
    cv = sup_gap_on_ball(A, B, radius)
    assert repr(cv) == "<1.9999999999999992e+307 by exact-1d>" and cv.witness == 1.3e308
    assert cv.lo == hausdorff(A, B).lo
    assert repr(aw_distance(A, B)) == "<9.090909090909087e-309 by exact-1d>"


def test_a_window_past_the_float_range_from_both_sets_reads_their_outer_ends():
    # every candidate in the window has two overflowed distances; past
    # both sets the gap is the distance between their lower ends
    X = AmbientSpace.line(-1.7e308)
    A, B = ClosedSet.intervals(X, [(1e308, 1.1e308)]), ClosedSet.intervals(X, [(1.05e308, 1.2e308)])
    same(sup_gap_on_ball(A, B, 1.0), (1.05e308 - 1e308, 1.05e308 - 1e308, "exact-1d", -1.7e308))


def test_a_window_edge_that_overflows_to_inf_reads_the_sets_past_it():
    # the window [0, 2e308] has the edge inf: past both sets the gap is
    # the distance between their upper ends, 0 where both are rays
    X = AmbientSpace.line(1e308)
    A, B = ClosedSet.intervals(X, [(0.0, 1.0)]), ClosedSet.intervals(X, [(0.0, 2.0)])
    same(sup_gap_on_ball(A, B, 1e308), (1.0, 1.0, "exact-1d", 2.0))
    A, B = ClosedSet.ray(X, 0.0, 1.0), ClosedSet.ray(X, 1.0, 1.0)
    same(sup_gap_on_ball(A, B, 1e308), (1.0, 1.0, "exact-1d", 0.0))


@pytest.mark.parametrize("D", [1.0e4, 1.0e12])
def test_far_pair_matches_window_walk(D):
    A = ClosedSet.points(LINE, [0.0, D])
    B = ClosedSet.points(LINE, [0.0, D * (1 + 1e-12)])
    ref, monotone = ref_aw(LINE, A, B)
    assert monotone
    same(aw_distance(A, B), ref)
    same(sup_gap_on_ball(A, B, D), ref_sup_gap(LINE, A, B, D))


@pytest.mark.parametrize("D", [1.0e6, 1.0e12])
def test_far_pair_window_count_is_logarithmic(monkeypatch, D):
    # the gap is positive but below 1/j from j = D/2 on; a walk over the
    # windows would evaluate about D/2 of them
    calls = []
    family = hm._window_gap_family

    def counted(space, A, B):
        g, j_sat, g_inf = family(space, A, B)

        def g_counted(j):
            calls.append(j)
            return g(j)
        return g_counted, j_sat, g_inf

    monkeypatch.setattr(hm, "_window_gap_family", counted)
    A = ClosedSet.points(LINE, [0.0, D])
    B = ClosedSet.points(LINE, [0.0, D * (1 + 1e-12)])
    v = aw_distance(A, B)
    assert v.is_exact and 0.0 < v.lo < 1.0
    assert len(calls) <= 2 * math.log2(D) + 8


# ---------------------------------------------------------------------------
# the branch-and-bound's evaluation budget (node_cap once counted grid nodes)


@pytest.mark.parametrize("cap", [40, 200_000, 1_500_000])
@pytest.mark.parametrize("n", range(2, 13))
def test_grid_nodes_stay_within_node_cap(n, cap, monkeypatch):
    # every row the distance kernel sees counts against node_cap; tol is
    # far below what the budget can reach, so the budget is what stops
    X = AmbientSpace.euclidean(n)
    A = ClosedSet.points(X, [(0.0,) * n, (0.5,) + (0.0,) * (n - 1)])
    B = ClosedSet.balls(X, [((0.0,) * (n - 1) + (0.25,), 0.125)])
    rows = []
    kernel = hm._kernel

    def counting(P, pieces):
        rows.append(len(P))
        return kernel(P, pieces)

    monkeypatch.setattr(hm, "_kernel", counting)
    if 3 ** n > cap:
        with pytest.raises(Indeterminate, match=f"node_cap={cap} "):
            sup_gap_on_ball(A, B, 1.0, tol=1e-12, node_cap=cap)
        assert not rows
        return
    cv = sup_gap_on_ball(A, B, 1.0, tol=1e-12, node_cap=cap)
    assert 0 < sum(rows) <= cap
    assert 0.0 < cv.lo <= cv.hi.as_float()


def test_piece_vertices_count_against_a_small_cap(monkeypatch):
    # 400 points need 400 kernel rows for the pair Hausdorff bounds; a cap
    # that cannot hold them is spent on the cubes instead
    rng = np.random.RandomState(1)
    X = AmbientSpace.euclidean(2)
    A, B = (ClosedSet.points(X, [tuple(p) for p in rng.uniform(-3, 3, (200, 2))])
            for _ in range(2))
    rows = []
    kernel = hm._kernel
    monkeypatch.setattr(hm, "_kernel", lambda P, pieces: (rows.append(len(P)), kernel(P, pieces))[1])
    for cap in (40, 400, 1000):
        rows.clear()
        cv = sup_gap_on_ball(A, B, 3.0, tol=1e-3, node_cap=cap)
        assert 0 < sum(rows) <= cap and cv.lo <= cv.hi.as_float()
