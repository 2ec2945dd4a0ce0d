"""Answers at extreme magnitudes.

Scaling every coordinate, radius and resolution by a power of two is
exact on floats, so truncate and affine_sup_norm must commute with it at
every scale whose data stay normal floats: no square may under- or
overflow on the way.  truncate at a set's own bounding radius must keep
the set, since both read the same distance table.  The overflow and
underflow cases that came out inf, NaN or 0 are pinned one by one.
"""

import json
import math
import warnings
from dataclasses import astuple
from itertools import chain

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermet.actions import GroupElement, affine_sup_norm, group_distance, ucb_nbhd_contains
from hypermet.cli import main
from hypermet.errors import UnsupportedPair
from hypermet.hitmiss import canonical_neighborhoods
from hypermet.hypermetrics import hausdorff
from hypermet.sets import (ClosedSet, bounding_radius, dist_to_set, representative_points,
                           truncate)
from hypermet.spaces import AmbientSpace
from test_piece_rules import matrices, nd_sets

E2 = AmbientSpace.euclidean(2)

# quarters in [-8, 8]: every 2^k multiple below, k in [-900, 900], is a
# normal float, and so is every sum, product and square root of them
dyadic = st.integers(-32, 32).map(lambda i: i / 4.0)
powers = st.integers(-900, 900)


@st.composite
def specs(draw, n):
    """A set of R^n on dyadic data, as (kind, base point, data, resolution),
    which build makes at any scale."""
    pt = st.tuples(*[dyadic] * n)
    kind = draw(st.sampled_from(["points", "cloud", "segments", "boxes", "balls", "ray"]))
    if kind in ("points", "cloud"):
        data = draw(st.lists(pt, min_size=1, max_size=5))
    elif kind == "ray":
        data = (draw(pt), draw(pt.filter(any)))
    else:
        data = draw(st.lists(st.tuples(pt, pt), min_size=1, max_size=4))
    return kind, draw(pt), data, draw(st.sampled_from([0.0, 0.25, 3.0]))


def _times(x, k):
    """x, a float or nested tuples of floats, with every float times 2^k."""
    return tuple(_times(v, k) for v in x) if isinstance(x, tuple) else math.ldexp(x, k)


def build(spec, k):
    """The set of spec with its base point, coordinates, radii and
    resolution times 2^k; a ray keeps its direction."""
    kind, base, data, res = spec
    space = AmbientSpace.euclidean(len(base), _times(base, k))
    if kind == "points":
        return ClosedSet.points(space, _times(tuple(data), k))
    if kind == "cloud":
        return ClosedSet.cloud(space, _times(tuple(data), k), math.ldexp(res, k))
    if kind == "ray":
        return ClosedSet.ray(space, _times(data[0], k), data[1])
    if kind == "segments":
        return ClosedSet.segments(space, _times(tuple(data), k))
    if kind == "boxes":
        return ClosedSet.boxes(space, [_times((tuple(map(min, p, q)), tuple(map(max, p, q))), k)
                                       for p, q in data])
    return ClosedSet.balls(space, [(_times(p, k), math.ldexp(abs(q[0]), k)) for p, q in data])


def _truncated(spec, L, k):
    """truncate of spec's set at 2^k scale by 2^k L: its representation
    type and fields, None, or the refusal's message."""
    try:
        T = truncate(build(spec, k), math.ldexp(L, k))
    except UnsupportedPair as exc:
        return str(exc)
    return None if T is None else (type(T.rep).__name__, astuple(T.rep))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(specs), st.integers(0, 48).map(lambda i: i / 4.0), powers)
def test_truncate_commutes_with_powers_of_two(spec, L, k):
    ref = _truncated(spec, L, 0)
    if isinstance(ref, tuple):
        ref = (ref[0], _times(ref[1], k))
    # piece for piece, in the order truncate gives them; repr tells -0.0 apart
    assert repr(_truncated(spec, L, k)) == repr(ref)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
           lambda n: st.tuples(specs(n), matrices(n), st.tuples(*[dyadic] * n))), powers)
def test_affine_sup_norm_commutes_with_powers_of_two(case, k):
    spec, D, c = case
    ref = affine_sup_norm(D, c, build(spec, 0))
    got = affine_sup_norm(D, _times(c, k), build(spec, k))
    assert got.method == ref.method
    assert repr((got.lo, got.hi.as_float())) == repr(
        (math.ldexp(ref.lo, k), math.ldexp(ref.hi.as_float(), k)))


bounded = ("points", "cloud", "segments", "boxes", "balls")


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.sampled_from([2, 3]).flatmap(lambda n: nd_sets(n, kinds=bounded)),
    st.tuples(st.sampled_from([2, 3]).flatmap(specs).filter(lambda s: s[0] != "ray"), powers)
    .map(lambda case: build(*case))))
def test_truncating_at_the_bounding_radius_keeps_the_set(A):
    assert truncate(A, bounding_radius(A)) is A


# ---------------------------------------------------------------------------
# single cases that came out inf, NaN or 0


def test_a_ray_cut_far_out_is_a_finite_segment():
    T = truncate(ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0)), 1e160)
    assert T.rep.segments == (((0.0, 0.0), (1e160, 0.0)),)


def test_a_segment_beyond_a_huge_window_is_dropped():
    assert truncate(ClosedSet.segments(E2, [((1e200, 0.0), (1e200, 1.0))]), 1e199) is None


def test_a_tiny_segment_is_cut_to_its_chord():
    T = truncate(ClosedSet.segments(E2, [((1e-170, 0.0), (2e-170, 0.0))]), 1.5e-170)
    ((p, q),) = T.rep.segments
    assert p == (1e-170, 0.0) and q[1] == 0.0
    assert math.isclose(q[0], 1.5e-170, rel_tol=1e-15) and q[0] <= 1.5e-170


def test_a_far_translation_is_a_finite_group_distance():
    d = group_distance(GroupElement.translation((1e200, 0.0)), GroupElement.identity(2))
    assert not d.is_infinite and d.lo == d.hi.as_float() == 1e200


def test_a_tiny_offset_has_a_nonzero_sup_norm():
    sup = affine_sup_norm(np.eye(2), np.zeros(2), ClosedSet.points(E2, [(1e-200, 1e-200)]))
    assert sup.lo == sup.hi.as_float()
    assert math.isclose(sup.lo, math.sqrt(2.0) * 1e-200, rel_tol=1e-15)
    cmp = ucb_nbhd_contains(GroupElement.translation((1e-200, 1e-200)),
                            ClosedSet.points(E2, [(0.0, 0.0)]), GroupElement.identity(2), 1.2e-200)
    assert cmp.contains is False


def test_the_centre_of_a_box_near_the_float_range_is_finite():
    B = ClosedSet.boxes(E2, [((1e308, 1e308), (1.7e308, 1.7e308))])
    pts = representative_points(B, 20)
    assert (1.35e308, 1.35e308) in pts and all(map(math.isfinite, chain(*pts)))
    # one hit ball at each sample point (the default 8 of them)
    assert [c.open_set.balls[0][0] for c in canonical_neighborhoods(B, "lowerV", 1.0)] == pts


def _cli(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return {r["name"]: r.get("value") for r in json.loads(result.output)["results"]}


def test_the_tilted_ray_scenario_passes_far_out():
    vals = _cli(["scenario", "run", "tilted-ray", "--param", "radii=(1e200,)",
                 "--param", "angles=(0.5,)"])
    assert vals["scenario passed"] is True


def test_the_action_probe_measures_a_far_translation():
    vals = _cli(["probe-action", "--element", "translation:v=(1e200,0)",
                 "--perturb", "identity:n=2 ; {(0,0)}", "{(0,0)}"])
    d = vals["perturbation-1"]["d_group"]
    assert d["lo"] == d["hi"] == 1e200


# ---------------------------------------------------------------------------
# pieces whose own arithmetic passes the float range are refused or skipped


def test_a_segment_longer_than_the_float_range_is_refused():
    S = ClosedSet.segments(E2, [((-1e308, 0.0), (1e308, 0.0))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: dist_to_set((0.0, 1.0), S), lambda: truncate(S, 1.0)):
            with pytest.raises(UnsupportedPair, match="longer than the float range"):
                call()


def test_the_cli_refuses_a_segment_longer_than_the_float_range():
    result = CliRunner().invoke(main, ["dist", "--metric", "H", "--space", "euclidean:n=2",
                                       "segment((-1e308,0),(1e308,0))", "{(0,1)}"])
    assert result.exit_code == 2 and "NaN" not in result.output
    assert "segment ((-1e+308, 0.0), (1e+308, 0.0)) is longer than the float range" \
        in result.output


def test_the_cli_refuses_an_infinite_index_into_a_finite_space():
    # malformed input exits 2, where int(inf)'s OverflowError exited 1
    result = CliRunner().invoke(main, ["dist", "--space", "finite:[[0,1],[1,0]]", "{1e999}", "{0}"])
    assert result.exit_code == 2 and "Traceback" not in result.output
    assert "inf is not a valid index into this finite space" in result.output


def test_a_segment_of_e1_past_the_float_range_keeps_its_normal_form():
    E1 = AmbientSpace.euclidean(1)
    S = ClosedSet.segments(E1, [((-1e308,), (1e308,))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hausdorff(S, ClosedSet.points(E1, [(0.0,)])).lo == 1e308


def test_a_ray_chord_whose_parameter_passes_the_float_range_is_refused():
    R = ClosedSet.ray(E2, (-1.7e308, 0.0), (1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedPair, match="float range"):
            truncate(R, 1.7e308)


def test_a_ball_sample_past_the_float_range_is_dropped():
    c, r = (1.7e308, 0.0), 1e308
    B = ClosedSet.balls(E2, [(c, r)])
    pts = representative_points(B, 10)
    assert len(pts) == 4 and all(map(math.isfinite, chain(*pts)))
    assert c in pts and (1.7e308 - 1e308, 0.0) in pts
    hits = canonical_neighborhoods(B, "lowerV", 1.0)
    centres = [h.open_set.balls[0][0] for h in hits]
    assert centres == pts
    # every centre lies in the ball: its offset from c is 0 or r on one axis
    assert all(math.hypot((x - c[0]) / r, (y - c[1]) / r) <= 1.0 for x, y in centres)
