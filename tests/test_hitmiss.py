import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermet import hitmiss, sets
from hypermet.errors import AmbientMismatch, GeneratorFault, UnsupportedPair
from hypermet.hitmiss import (Constraint, ConstraintEntry, ConvergenceReport,
                              OpenSetRep, _ball_batch, canonical_neighborhoods, converges,
                              hits, misses, neighborhood, subset_of)
from hypermet.hypermetrics import excess, set_gap
from hypermet.sets import ClosedSet, dist_to_set
from hypermet.spaces import AmbientSpace

LINE = AmbientSpace.line()
E2 = AmbientSpace.euclidean(2)


def iv(a, b):
    # open interval (a, b) as a hit/containment ball on the line
    return ((a + b) / 2.0, (b - a) / 2.0)


# ---------------------------------------------------------------------------
# hits / misses / subset_of


def test_hits_any_ball():
    A = ClosedSet.points(LINE, [5.0])
    assert hits(A, OpenSetRep.ball_union(LINE, [(0.0, 1.0), (4.9, 0.5)]))
    assert not hits(A, OpenSetRep.ball_union(LINE, [(0.0, 1.0)]))
    # open balls: touching the boundary is not a hit
    B = ClosedSet.points(LINE, [1.0])
    assert not hits(B, OpenSetRep.ball_union(LINE, [(0.0, 1.0)]))


def test_hits_complement():
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    K = ClosedSet.intervals(LINE, [(0.4, 0.6)])
    assert hits(A, OpenSetRep.complement(K))  # A sticks out of K
    inside = ClosedSet.points(LINE, [0.5])
    assert not hits(inside, OpenSetRep.complement(K))


def test_misses_needs_positive_gap():
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    assert misses(A, ClosedSet.points(LINE, [2.0]))
    assert not misses(A, ClosedSet.points(LINE, [1.0]))  # touching
    assert not misses(A, ClosedSet.points(LINE, [0.5]))
    with pytest.raises(ValueError):
        misses(A, ClosedSet.ray(LINE, 2.0, 1.0))  # obstacle not compact


@pytest.mark.parametrize("ray", [ClosedSet.ray(LINE, 2.0, 1.0),
                                 ClosedSet.ray(E2, (2.0, 2.0), (1.0, 0.0))])
def test_an_unbounded_miss_obstacle_is_refused_where_it_is_built(ray):
    # a scan gathers its exact obstacles without testing them again
    A = ClosedSet.points(ray.space, [0.0] if ray.space == LINE else [(0.0, 0.0)])
    message = r"miss obstacles must be compact \(bounded closed\)"
    with pytest.raises(ValueError, match=message):
        Constraint.miss(ray)
    with pytest.raises(ValueError, match=message):
        canonical_neighborhoods(A, "fell", 0.25, miss_compacts=[ray])
    with pytest.raises(ValueError, match=message):
        misses(A, ray)


def test_cloud_slack_margins():
    U = OpenSetRep.ball_union(LINE, [(0.0, 1.0)])
    assert hits(ClosedSet.cloud(LINE, [0.5], 0.1), U)
    assert not hits(ClosedSet.cloud(LINE, [2.0], 0.1), U)
    with pytest.raises(UnsupportedPair):
        hits(ClosedSet.cloud(LINE, [0.95], 0.1), U)  # inside the margin

    K = ClosedSet.points(LINE, [0.3])
    assert misses(ClosedSet.cloud(LINE, [0.0], 0.1), K)
    with pytest.raises(UnsupportedPair):
        misses(ClosedSet.cloud(LINE, [0.0], 0.5), K)  # gap below resolution
    with pytest.raises(UnsupportedPair):
        subset_of(ClosedSet.cloud(LINE, [0.0], 0.1),
                  OpenSetRep.ball_union(LINE, [(0.0, 5.0)]))


def test_subset_sweep_on_line():
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    covered = OpenSetRep.ball_union(LINE, [iv(-0.5, 0.6), iv(0.5, 1.5)])
    assert subset_of(A, covered)
    # consecutive pieces that only meet at 0.6 leave that point exposed
    gapped = OpenSetRep.ball_union(LINE, [iv(-0.5, 0.6), iv(0.6, 1.5)])
    assert not subset_of(A, gapped)
    # strict at the ends too
    assert not subset_of(A, OpenSetRep.ball_union(LINE, [iv(0.0, 1.5)]))
    assert subset_of(ClosedSet.points(LINE, [0.2, 0.9]), gapped)


def test_subset_in_plane():
    ball = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    assert subset_of(ball, OpenSetRep.ball_union(E2, [((0.0, 0.0), 1.5)]))
    assert not subset_of(ball, OpenSetRep.ball_union(E2, [((0.0, 0.0), 1.0)]))
    box = ClosedSet.boxes(E2, [((0.0, 0.0), (1.0, 1.0))])
    assert subset_of(box, OpenSetRep.ball_union(E2, [((0.5, 0.5), 0.8)]))
    seg = ClosedSet.segments(E2, [((0.0, 0.0), (2.0, 0.0))])
    assert subset_of(seg, OpenSetRep.ball_union(E2, [((1.0, 0.0), 1.1)]))
    ray = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0))
    assert not subset_of(ray, OpenSetRep.ball_union(E2, [((0.0, 0.0), 9.0)]))


def test_subset_multi_ball_cover_is_not_certified():
    box = ClosedSet.boxes(E2, [((0.0, 0.0), (4.0, 1.0))])
    two = OpenSetRep.ball_union(E2, [((1.0, 0.5), 2.2), ((3.0, 0.5), 2.2)])
    with pytest.raises(UnsupportedPair):
        subset_of(box, two)  # genuinely needs both balls


def test_complement_subset_equals_miss():
    rng = np.random.RandomState(3)
    for _ in range(50):
        A = ClosedSet.points(LINE, list(rng.uniform(-5, 5, 3)))
        K = ClosedSet.intervals(LINE, [tuple(sorted(rng.uniform(-5, 5, 2)))])
        assert subset_of(A, OpenSetRep.complement(K)) == misses(A, K)


# ---------------------------------------------------------------------------
# canonical neighborhoods


def test_lower_vietoris_family():
    A = ClosedSet.points(LINE, [0.0, 1.0])
    fam = canonical_neighborhoods(A, "lowerV", 0.25)
    assert len(fam) == 2 and all(c.tag == "hit" for c in fam)
    assert all(c.satisfied_by(A) for c in fam)


def test_upper_vietoris_enlargement_is_strict():
    A = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    (c,) = canonical_neighborhoods(A, "upperV", 0.5)
    assert c.tag == "contain"
    assert c.satisfied_by(ClosedSet.intervals(LINE, [(-0.4, 1.4)]))
    assert not c.satisfied_by(ClosedSet.intervals(LINE, [(-0.5, 1.0)]))


def test_fell_family_validates_obstacles():
    A = ClosedSet.points(LINE, [0.0])
    K = ClosedSet.intervals(LINE, [(0.5, 1.0)])
    fam = canonical_neighborhoods(A, "fell", 0.1, miss_compacts=[K])
    assert {c.tag for c in fam} == {"hit", "miss"}
    touching = ClosedSet.intervals(LINE, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        canonical_neighborhoods(A, "fell", 0.1, miss_compacts=[touching])


def test_vietoris_contains_itself():
    A = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    fam = canonical_neighborhoods(A, "vietoris", 0.3, m=4)
    assert all(c.satisfied_by(A) for c in fam)


def test_canonical_validation():
    A = ClosedSet.points(LINE, [0.0])
    with pytest.raises(ValueError):
        canonical_neighborhoods(A, "lowerV", 0.0)
    with pytest.raises(ValueError):
        canonical_neighborhoods(A, "lowerV", 0.5, m=0)
    with pytest.raises(ValueError):
        canonical_neighborhoods(A, "both", 0.5)
    with pytest.raises(UnsupportedPair):
        canonical_neighborhoods(ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0)),
                                "upperV", 0.5)
    with pytest.raises(ValueError):
        neighborhood()


# ---------------------------------------------------------------------------
# convergence scans


def test_reciprocal_family_settles():
    seq = lambda k: ClosedSet.points(LINE, [1.0 / k])
    spec = neighborhood(
        Constraint.hit(OpenSetRep.ball_union(LINE, [(0.0, 0.1)])),
        Constraint.miss(ClosedSet.intervals(LINE, [(0.5, 1.0)])),
    )
    rep = converges(seq, spec, horizon=100)
    assert rep.passed and bool(rep)
    hit_entry, miss_entry = rep.entries
    assert hit_entry.settles_at == 11 and hit_entry.witness == 1  # 1/11 < 0.1
    assert miss_entry.settles_at == 3 and miss_entry.witness == 1  # 1/3 clears


def test_escaping_family_fails_with_witness():
    seq = lambda k: ClosedSet.points(LINE, [float(k)])
    spec = neighborhood(Constraint.hit(OpenSetRep.ball_union(LINE, [(0.0, 0.5)])))
    rep = converges(seq, spec, horizon=50)
    assert not rep.passed
    (entry,) = rep.entries
    assert entry.witness == 1 and entry.settles_at is None


def test_constant_family_settles_immediately():
    A = ClosedSet.points(LINE, [0.0, 1.0])
    rep = converges(lambda k: A, canonical_neighborhoods(A, "vietoris", 0.5),
                    horizon=20)
    assert rep.passed
    assert all(e.settles_at == 1 and e.witness is None for e in rep.entries)


def test_generator_fault_carries_index():
    def seq(k):
        if k == 5:
            raise RuntimeError("boom")
        return ClosedSet.points(LINE, [0.0])

    spec = neighborhood(Constraint.hit(OpenSetRep.ball_union(LINE, [(0.0, 1.0)])))
    with pytest.raises(GeneratorFault) as err:
        converges(seq, spec, horizon=10)
    assert err.value.index == 5


def test_converges_validation():
    A = ClosedSet.points(LINE, [0.0])
    spec = neighborhood(Constraint.hit(OpenSetRep.ball_union(LINE, [(0.0, 1.0)])))
    with pytest.raises(ValueError):
        converges(lambda k: A, spec, horizon=0)
    with pytest.raises(ValueError):
        converges(lambda k: A, (), horizon=10)


# ---------------------------------------------------------------------------
# structural properties on randomized corpora


def test_shrinking_excess_implies_lower_vietoris():
    # If e(A, A_k) -> 0, every hit-ball around a point of A is
    # eventually met; scan a jittered corpus and demand clean passes.
    rng = np.random.RandomState(4)
    for _ in range(20):
        anchors = [float(a) for a in rng.uniform(-10, 10, rng.randint(1, 6))]
        jit = [float(j) for j in rng.uniform(-1, 1, len(anchors))]
        A = ClosedSet.points(LINE, anchors)
        seq = lambda k: ClosedSet.points(
            LINE, [a + j / k for a, j in zip(anchors, jit)])
        rep = converges(seq, canonical_neighborhoods(A, "lowerV", 0.05),
                        horizon=100)
        assert rep.passed
        assert all(e.settles_at <= 21 for e in rep.entries)  # |jit|/k < .05


def test_containment_bounds_excess():
    # Passing the scale-r containment constraint certifies that the
    # candidate's excess over A stays within r.
    rng = np.random.RandomState(5)
    A = ClosedSet.intervals(LINE, [(0.0, 2.0)])
    r = 0.5
    (contain,) = canonical_neighborhoods(A, "upperV", r)
    checked = 0
    for _ in range(200):
        pts = [float(p) for p in rng.uniform(-1, 3, rng.randint(1, 5))]
        S = ClosedSet.points(LINE, pts)
        if contain.satisfied_by(S):
            checked += 1
            assert excess(S, A).hi.as_float() <= r + 1e-12
    assert checked >= 20  # the corpus must actually exercise the pass branch


def test_vietoris_scale_separates_stuck_family():
    A = ClosedSet.points(LINE, [0.0, 1.0])
    good = lambda k: ClosedSet.points(LINE, [0.5 / k, 1.0 - 0.5 / k])
    stuck = lambda k: ClosedSet.points(LINE, [0.0, 1.02 + 0.3 / k])
    for r in (1.0, 0.1, 0.01):
        fam = canonical_neighborhoods(A, "vietoris", r)
        assert converges(good, fam, horizon=200).passed
    for r in (1.0, 0.1):
        fam = canonical_neighborhoods(A, "vietoris", r)
        assert converges(stuck, fam, horizon=200).passed
    # at scale 0.01 the 0.02 offset is finally visible
    rep = converges(stuck, canonical_neighborhoods(A, "vietoris", 0.01),
                    horizon=200)
    assert not rep.passed
    assert any(e.witness == 1 and not e.passed for e in rep.entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_open_balls_need_a_finite_positive_radius(bad):
    with pytest.raises(ValueError):
        OpenSetRep.ball_union(E2, [((0.0, 0.0), bad)])


# ---------------------------------------------------------------------------
# the batched scan against a scan that asks one constraint at a time


def ref_hits(A, U):
    """hits, one ball at a time, with the strict rule written out."""
    U.space.require_same(A.space)
    if U.complement_of is not None:
        return hits(A, U)
    undecided = False
    for c, r in U.balls:
        d = dist_to_set(c, A)
        if d < r - A.slack:
            return True
        if d < r + A.slack:
            undecided = True
    if undecided:
        raise UnsupportedPair("cloud resolution straddles a hit-ball boundary")
    return False


def ref_converges(seq, nbhds, horizon):
    first, last = [None] * len(nbhds), [None] * len(nbhds)
    for k in range(1, horizon + 1):
        term = seq(k)
        for i, c in enumerate(nbhds):
            ok = (ref_hits(term, c.open_set) if c.tag == "hit"
                  else subset_of(term, c.open_set) if c.tag == "contain"
                  else misses(term, c.obstacle))
            if not ok:
                last[i] = k
                first[i] = first[i] or k
    entries = tuple(
        ConstraintEntry(c.describe(), True, settles_at=1) if last[i] is None
        else ConstraintEntry(c.describe(), True, settles_at=last[i] + 1, witness=first[i])
        if last[i] < horizon else ConstraintEntry(c.describe(), False, witness=first[i])
        for i, c in enumerate(nbhds))
    return ConvergenceReport(all(e.passed for e in entries), horizon, entries)


def outcome(scan, terms, nbhds):
    """The scan's report, or the exception it raised and the term it read last."""
    seen = []

    def seq(k):
        seen.append(k)
        return terms[k - 1]

    try:
        return scan(seq, nbhds, len(terms))
    except (AmbientMismatch, UnsupportedPair) as exc:
        return type(exc), str(exc), seen[-1]


# dyadic coordinates, so that terms often sit exactly on a ball's boundary
# (at distance r, r - h or r + h from its centre for radius r, resolution h)
eighths = st.integers(-24, 24).map(lambda i: i / 8.0)

# a finite space: a cycle of eight points 1/8 apart, and a ninth point at
# distance 2 from each of them; its distances are dyadic too
CYCLE = AmbientSpace.finite([[2.0 if (i == 8) != (j == 8) else min(abs(i - j), 8 - abs(i - j)) / 8.0
                              for j in range(9)] for i in range(9)])


def families(draw, limit, obstacles):
    """A family around limit of one of the canonical topologies (Fell with
    the given miss obstacles), or the misses of the obstacles alone."""
    topology = draw(st.sampled_from(("lowerV", "upperV", "vietoris", "fell", "misses")))
    if topology == "misses":
        return [Constraint.miss(K) for K in obstacles]
    return list(canonical_neighborhoods(limit, topology, 0.25, m=4, miss_compacts=obstacles))


@st.composite
def scan_cases(draw):
    space = draw(st.sampled_from((LINE, E2, CYCLE)))
    plane, finite = space == E2, space == CYCLE
    pt = st.tuples(eighths, eighths) if plane else st.integers(0, 7) if finite else eighths
    limit = ClosedSet.points(space, draw(st.lists(pt, min_size=1, max_size=4)))
    far = ClosedSet.balls(E2, [((6.0, 6.0), 1.0)]) if plane else \
        ClosedSet.points(CYCLE, [8]) if finite else ClosedSet.intervals(LINE, [(6.0, 7.0)])
    obstacles = [far]
    p, q = draw(pt), draw(pt)
    if finite:
        # in the finite space, as point sets
        near = [ClosedSet.points(CYCLE, draw(st.lists(pt, min_size=1, max_size=3)))
                for _ in range(2)]
    elif plane:
        # obstacles among the terms, as a ball union and as a box, kept
        # when they miss the limit
        balls = draw(st.lists(st.tuples(pt, st.integers(0, 4).map(lambda i: i / 8.0)),
                              min_size=1, max_size=3))
        near = [ClosedSet.balls(E2, balls),
                ClosedSet.boxes(E2, [(tuple(map(min, p, q)), tuple(map(max, p, q)))])]
    else:
        # on the line, as an interval, a point set and a cloud
        near = [ClosedSet.intervals(LINE, [(min(p, q), max(p, q))]),
                ClosedSet.points(LINE, draw(st.lists(pt, min_size=1, max_size=3))),
                ClosedSet.cloud(LINE, draw(st.lists(pt, min_size=1, max_size=3)),
                                draw(st.integers(1, 3)) / 8.0)]
    obstacles += [K for K in near if set_gap(limit, K) > 0.0]
    nbhds = draw(st.permutations(families(draw, limit, obstacles)))
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        # a finite space carries only point sets; its terms may reach the far point
        kind = draw(st.sampled_from(("points", "cloud") if finite else
                                    ("points", "balls", "cloud", "ray")))
        pts = draw(st.lists(st.integers(0, 8) if finite else pt, min_size=1, max_size=4))
        if kind == "points":
            terms.append(ClosedSet.points(space, pts))
        elif kind == "cloud":
            terms.append(ClosedSet.cloud(space, pts, draw(st.integers(0, 3)) / 8.0))
        elif kind == "ray":
            terms.append(ClosedSet.ray(space, pts[0], draw(st.sampled_from(
                ((1.0, 0.0), (0.0, -1.0), (-0.6, 0.8)) if plane else (-1.0, 1.0)))))
        elif plane:
            terms.append(ClosedSet.balls(space, [(p, draw(st.integers(0, 2)) / 8.0) for p in pts]))
        else:
            terms.append(ClosedSet.intervals(space, [(p, p + draw(st.integers(0, 2)) / 8.0)
                                                     for p in pts]))
    return tuple(nbhds), terms, draw(block_budgets)


# the memory budget as a number of pieces (intervals on the line, points
# on the finite space) measured from every gathered centre and obstacle
# piece: 0 closes a block at every deferred term, None leaves the budget
# as it is (one block for the whole scan)
block_budgets = st.sampled_from((0, 1, 4, 8, None))


def scan_with_budget(nbhds, terms, pieces):
    """outcome of converges and of ref_converges, with the block budget set
    to the given number of pieces."""
    with pytest.MonkeyPatch.context() as mp:
        if pieces is not None:
            space = terms[0].space
            one_d = space.is_one_dimensional
            # the rows that converges counts: every gathered centre, and each
            # gathered obstacle's pieces (its intervals on the line)
            owned, _, centres, _ = _ball_batch(nbhds)
            rows = len(centres) + sum(
                len(K.normal_form.lo) if one_d else len(K.components())
                for K in (nbhds[i].obstacle for i in owned if nbhds[i].tag == "miss"))
            row_bytes = 8 * rows * ((1 if one_d else space.dim) + 2)
            mp.setattr(sets, "_CHUNK_BYTES", max(1, pieces * row_bytes))
        return outcome(converges, terms, nbhds), outcome(ref_converges, terms, nbhds)


@settings(max_examples=400, deadline=None)
@given(scan_cases())
def test_batched_scan_matches_the_per_constraint_scan(case):
    got, ref = scan_with_budget(*case)
    assert got == ref


@pytest.mark.parametrize("other", [ClosedSet.points(LINE, [0.5]),
                                   ClosedSet.cloud(LINE, [0.5], 0.125)], ids=["exact", "cloud"])
def test_a_term_in_another_ambient_raises_where_the_per_constraint_scan_does(other):
    # the miss of a cloud obstacle on the line is read per term and comes
    # first; the gathered constraints live in R^2, so the term of the line
    # passes the first and the first gathered one raises at it
    first = Constraint.miss(ClosedSet.cloud(LINE, [3.0], 0.125))
    gathered = [Constraint.hit(OpenSetRep.ball_union(E2, [((0.0, 0.0), 1.0)])),
                Constraint.miss(ClosedSet.balls(E2, [((4.0, 4.0), 1.0)]))]
    for nbhds in ((first, *gathered), (first, gathered[1], gathered[0])):
        terms = [ClosedSet.points(LINE, [1.0]), other]
        got = outcome(converges, terms, nbhds)
        assert got == outcome(ref_converges, terms, nbhds)
        assert got == (AmbientMismatch, "operands live in different ambient spaces", 1)


E3 = AmbientSpace.euclidean(3)


@st.composite
def nd_scan_cases(draw):
    """Scans in R^2 or R^3 whose terms mix exact sets of every kind with
    clouds, against families with obstacles of every kind, and a kernel
    budget that closes a block of deferred terms at every term, every few
    terms or only at the end of the scan."""
    space = draw(st.sampled_from((E2, E3)))
    pt = st.tuples(*[eighths] * space.dim)
    limit = ClosedSet.points(space, draw(st.lists(pt, min_size=1, max_size=4)))
    obstacles = [ClosedSet.balls(space, [((6.0,) * space.dim, 1.0)])]
    balls = draw(st.lists(st.tuples(pt, st.integers(0, 4).map(lambda i: i / 8.0)),
                          min_size=1, max_size=3))
    p, q = draw(pt), draw(pt)
    # a cloud obstacle has slack, so its miss is read per term and may raise
    near = [ClosedSet.balls(space, balls),
            ClosedSet.boxes(space, [(tuple(map(min, p, q)), tuple(map(max, p, q)))]),
            ClosedSet.segments(space, draw(st.lists(st.tuples(pt, pt), min_size=1, max_size=2))),
            ClosedSet.points(space, draw(st.lists(pt, min_size=1, max_size=3))),
            ClosedSet.cloud(space, draw(st.lists(pt, min_size=1, max_size=3)),
                            draw(st.integers(1, 3)) / 8.0)]
    obstacles += [K for K in near if set_gap(limit, K) > 0.0]
    nbhds = draw(st.permutations(families(draw, limit, obstacles)))
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("points", "balls", "boxes", "segments", "ray", "cloud")))
        pts = draw(st.lists(pt, min_size=1, max_size=4))
        if kind == "points":
            terms.append(ClosedSet.points(space, pts))
        elif kind == "balls":
            terms.append(ClosedSet.balls(space, [(c, draw(st.integers(0, 2)) / 8.0) for c in pts]))
        elif kind == "boxes":
            terms.append(ClosedSet.boxes(space, [(c, tuple(x + 0.125 for x in c)) for c in pts]))
        elif kind == "segments":
            terms.append(ClosedSet.segments(space, [(c, tuple(reversed(c))) for c in pts]))
        elif kind == "ray":
            terms.append(ClosedSet.ray(space, pts[0], (1.0,) + (0.0,) * (space.dim - 1)))
        else:
            terms.append(ClosedSet.cloud(space, pts, draw(st.integers(0, 3)) / 8.0))
    return tuple(nbhds), terms, draw(block_budgets)


@settings(max_examples=400, deadline=None)
@given(nd_scan_cases())
def test_deferred_blocks_match_the_per_constraint_scan(case):
    got, ref = scan_with_budget(*case)
    assert got == ref


def test_exact_nd_terms_are_measured_in_one_kernel_call_per_block(monkeypatch):
    # the sets of each call: a block's terms, or the one term read per term
    sets_of = {"_dists": lambda X, A: [A], "_dists_each": lambda X, stack: stack.sets,
               "_far_dists": lambda X, sets_: sets_, "_gaps_each": lambda stack, K: stack.sets,
               "misses": lambda A, K: [A]}
    calls = {name: [] for name in sets_of}
    for name, of in sets_of.items():
        monkeypatch.setattr(hitmiss, name, lambda *args, fn=getattr(hitmiss, name), of=of,
                            name=name: calls[name].append(of(*args)) or fn(*args))

    def blocks(name):
        return [len(sets_) for sets_ in calls[name]]

    def every_fifth_a_cloud(space, point, far):
        def seq(k):
            pts = [point(1.0 / k), far]
            return ClosedSet.cloud(space, pts, 0.01) if k % 5 == 0 else ClosedSet.points(space, pts)
        return seq

    # in R^2 and on the line, against a ball and an interval obstacle; the
    # budget is 4 pieces from 3 rows in R^2 (two hit centres and the ball's
    # centre) and from 2 rows on the line, where the interval's one piece
    # is a third row, so blocks close every second exact term in R^2 and
    # at every exact term on the line
    for space, width, rows, point, far, obstacle, sizes in (
            (E2, 2, 3, lambda x: (x, 0.0), (1.0, 1.0), ClosedSet.balls(E2, [((4.0, 4.0), 1.0)]),
             [2] * 8),
            (LINE, 1, 2, float, 2.0, ClosedSet.intervals(LINE, [(3.0, 5.0)]), [1] * 16)):
        for args in calls.values():
            args.clear()
        A = ClosedSet.points(space, [point(0.0), far])
        nbhds = canonical_neighborhoods(A, "fell", 0.25, m=2, miss_compacts=[obstacle])
        seq = every_fifth_a_cloud(space, point, far)
        report = converges(seq, nbhds, horizon=20)
        assert report == ref_converges(seq, nbhds, 20) and report.entries[0].settles_at == 5
        # the four clouds one query per hit and one miss each, the 16 exact
        # terms in one block
        assert blocks("_dists") == [1] * 8 and [S.slack for (S,) in calls["misses"]] == [0.01] * 4
        assert blocks("_dists_each") == [16] == blocks("_gaps_each")
        for args in calls.values():
            args.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sets, "_CHUNK_BYTES", 4 * 8 * rows * (width + 2))
            assert converges(seq, nbhds, horizon=20) == report
        assert len(calls["_dists"]) == 8 and blocks("_dists_each") == sizes == blocks("_gaps_each")
    # against a box obstacle the exact terms make no misses call either
    for args in calls.values():
        args.clear()
    A = ClosedSet.points(E2, [(0.0, 0.0), (1.0, 1.0)])
    nbhds = canonical_neighborhoods(A, "fell", 0.25, m=2, miss_compacts=[
        ClosedSet.boxes(E2, [((3.0, 3.0), (5.0, 5.0))])])
    seq = every_fifth_a_cloud(E2, lambda x: (x, 0.0), (1.0, 1.0))
    assert converges(seq, nbhds, horizon=20) == ref_converges(seq, nbhds, 20)
    assert [S.slack for (S,) in calls["misses"]] == [0.01] * 4
    assert blocks("_gaps_each") == [16]
    # the contain constraint of a Vietoris family is decided in the same
    # block, from one farthest-distance table
    for args in calls.values():
        args.clear()
    A = ClosedSet.points(E2, [(0.0, 0.0), (1.0, 1.0)])
    nbhds = canonical_neighborhoods(A, "vietoris", 0.25, m=2)

    def exact(k):
        return ClosedSet.points(E2, [(1.0 / k, 0.0), (1.0, 1.0 + 1.0 / k)])

    report = converges(exact, nbhds, horizon=20)
    assert blocks("_dists_each") == [20] == blocks("_far_dists")
    assert not calls["_dists"]
    assert report == ref_converges(exact, nbhds, 20) and report.entries[2].settles_at == 5


def test_exact_finite_terms_are_read_in_one_matrix_pass_per_block(monkeypatch):
    sets_of = {"_dists": lambda X, A: [A], "_dists_each": lambda X, stack: stack.sets,
               "_far_dists": lambda X, sets_: sets_, "_gaps_each": lambda stack, K: stack.sets,
               "misses": lambda A, K: [A], "subset_of": lambda A, U: [A]}
    calls = {name: [] for name in sets_of}
    for name, of in sets_of.items():
        monkeypatch.setattr(hitmiss, name, lambda *args, fn=getattr(hitmiss, name), of=of,
                            name=name: calls[name].append(of(*args)) or fn(*args))

    def blocks(name):
        return [len(sets_) for sets_ in calls[name]]

    def seq(k):  # two points each, every fifth a cloud for Fell; {0, 4} from k = 5
        pts = [0, 4] if k > 4 else [k, k + 4]
        return ClosedSet.cloud(CYCLE, pts, 0.01) if k % 5 == 0 and fell else \
            ClosedSet.points(CYCLE, pts)

    A = ClosedSet.points(CYCLE, [0, 4])
    for fell, exact, sizes in ((True, 16, [2] * 8), (False, 20, [4] * 5)):
        nbhds = canonical_neighborhoods(A, "fell" if fell else "vietoris", 0.25, m=2,
                                        miss_compacts=[ClosedSet.points(CYCLE, [8])])
        ref = ref_converges(seq, nbhds, 20)
        for args in calls.values():
            args.clear()
        report = converges(seq, nbhds, horizon=20)
        assert report == ref and report.entries[0].settles_at == 5
        # the clouds one query per hit (two hits), the exact terms in one block
        assert blocks("_dists") == [1] * 2 * (20 - exact) and blocks("_dists_each") == [exact]
        if fell:
            assert [S.slack for (S,) in calls["misses"]] == [0.01] * 4
            assert blocks("_gaps_each") == [16] and not calls["_far_dists"]
        else:  # the contain of every term from one farthest-distance table
            assert blocks("_far_dists") == [20] and not calls["subset_of"]
        # a budget of 4 (Fell) or 8 (Vietoris) points from every centre and
        # obstacle point (three rows for Fell: two hit centres and the
        # obstacle; four for Vietoris: two hit and two contain centres)
        # closes a block every second or every fourth exact term
        rows = 3 if fell else 4
        for args in calls.values():
            args.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sets, "_CHUNK_BYTES", sizes[0] * 2 * 8 * rows * 3)
            assert converges(seq, nbhds, horizon=20) == report
        assert len(calls["_dists"]) == 2 * (20 - exact) and blocks("_dists_each") == sizes


def test_a_term_on_a_hit_ball_boundary_does_not_hit():
    A = ClosedSet.points(E2, [(0.0, 0.0)])
    nbhds = canonical_neighborhoods(A, "lowerV", 0.25, m=1)
    terms = [ClosedSet.points(E2, [(0.25, 0.0)]), ClosedSet.cloud(E2, [(0.375, 0.0)], 0.125),
             ClosedSet.points(E2, [(0.125, 0.0)])]
    rep = converges(lambda k: terms[k - 1], nbhds, horizon=3)
    assert rep == ref_converges(lambda k: terms[k - 1], nbhds, 3)
    assert rep.entries[0].settles_at == 3 and rep.entries[0].witness == 1


@pytest.mark.parametrize("cover", ["balls", "complement"])
@pytest.mark.parametrize("contain_first", [True, False])
def test_a_straddling_cloud_raises_in_constraint_order(cover, contain_first):
    hit = Constraint.hit(OpenSetRep.ball_union(E2, [((0.0, 0.0), 0.5)]))
    contain = Constraint.contain(
        OpenSetRep.ball_union(E2, [((0.0, 0.0), 2.0)]) if cover == "balls"
        else OpenSetRep.complement(ClosedSet.balls(E2, [((6.0, 6.0), 1.0)])))
    nbhds = (contain, hit) if contain_first else (hit, contain)
    near = ClosedSet.points(E2, [(0.125, 0.0)])
    terms = [near, near, ClosedSet.cloud(E2, [(0.375, 0.0)], 0.25), near]
    got = outcome(converges, terms, nbhds)
    assert got == outcome(ref_converges, terms, nbhds)
    message = ("coverage of a sampled cloud cannot be certified"
               if cover == "balls" and contain_first
               else "cloud resolution straddles a hit-ball boundary")
    assert got == (UnsupportedPair, message, 3)


@pytest.mark.parametrize("obstacle", [
    ClosedSet.balls(E2, [((1.0, 0.0), 0.375), ((4.0, 4.0), 1.0)]),
    ClosedSet.boxes(E2, [((0.625, -1.0), (1.0, 1.0))]),
])
@pytest.mark.parametrize("miss_first", [True, False])
def test_a_cloud_straddling_an_obstacle_gap_raises_in_constraint_order(obstacle, miss_first):
    # the cloud certainly hits the first ball, straddles the boundary of
    # the second, and sits 0.125 < its resolution 0.25 from the obstacle
    hit = Constraint.hit(OpenSetRep.ball_union(E2, [((0.0, 0.0), 2.0)]))
    edge = Constraint.hit(OpenSetRep.ball_union(E2, [((0.5, 1.0), 0.875)]))
    miss = Constraint.miss(obstacle)
    nbhds = (hit, miss, edge) if miss_first else (hit, edge, miss)
    near = ClosedSet.points(E2, [(0.0, 0.0)])
    terms = [near, near, ClosedSet.cloud(E2, [(0.5, 0.0)], 0.25), near]
    got = outcome(converges, terms, nbhds)
    assert got == outcome(ref_converges, terms, nbhds)
    message = ("cloud resolution straddles an obstacle gap" if miss_first
               else "cloud resolution straddles a hit-ball boundary")
    assert got == (UnsupportedPair, message, 3)


@pytest.mark.parametrize("term_kind", ["points", "balls"])
@pytest.mark.parametrize("miss_first", [True, False])
def test_a_per_term_constraint_before_the_gathered_ones_raises_at_its_term(term_kind, miss_first):
    # a miss of a cloud obstacle is read per term, in index order, also on
    # the exact terms whose gathered hits wait for a block; the third term
    # sits 0.125 from the cloud, within its resolution 0.25, so it raises
    # there, before or after the hit, whether the term is thin or not
    hit = Constraint.hit(OpenSetRep.ball_union(E2, [((0.0, 0.0), 2.0)]))
    miss = Constraint.miss(ClosedSet.cloud(E2, [(0.625, 0.0)], 0.25))
    nbhds = (miss, hit) if miss_first else (hit, miss)
    if term_kind == "points":
        far, near = ClosedSet.points(E2, [(0.0, 0.0)]), ClosedSet.points(E2, [(0.5, 0.0)])
    else:
        far, near = (ClosedSet.balls(E2, [((x, 0.0), 0.25)]) for x in (-0.25, 0.25))
    terms = [far, far, near, far]
    got = outcome(converges, terms, nbhds)
    assert got == outcome(ref_converges, terms, nbhds)
    assert got == (UnsupportedPair, "cloud resolution straddles an obstacle gap", 3)
