import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from hypermet.cli import main

TROUGH_5 = 0.027679120537720932   # oscillation pair 5, bottom
TROUGH_10 = 0.01480511098529259   # oscillation pair 10, bottom
CREST_10 = 0.015527311521160523   # oscillation pair 10, top


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, code=0):
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    return result


def by_name(output):
    doc = json.loads(output)
    return doc, {r["name"]: r.get("value") for r in doc["results"]}


# ---------------------------------------------------------------------------
# dist


def test_dist_aw_json(runner):
    res = invoke(runner, ["dist", "--metric", "AW", "{0}", "{0, 10}"])
    doc, vals = by_name(res.output)
    assert doc["version"] == "1"
    assert doc["command"] == "dist"
    assert doc["seed"] == 24301
    assert doc["config_echo"]["metric"] == "AW"
    val = vals["AW(A, B)"]
    assert val["lo"] == 1.0 / 6.0 and val["hi"] == 1.0 / 6.0
    assert val["method"] == "exact-1d"


def test_dist_hausdorff_intervals(runner):
    _, vals = by_name(invoke(runner, ["dist", "[0,1]", "[0,4]"]).output)
    assert vals["H(A, B)"]["lo"] == 3.0


def test_dist_infinite_value_serializes(runner):
    res = invoke(runner, ["dist", "--metric", "H-",
                          "--space", "euclidean:n=2",
                          "ray((0,0), (1,0))", "{(0,0)}"])
    _, vals = by_name(res.output)
    assert vals["H-(A, B)"]["hi"] == "inf"


def _strict(token):
    raise ValueError(f"{token} is not strict JSON")


def test_an_infinite_lower_end_serializes_as_strict_json(runner):
    # H(ray(0, 1), {0}) is proven infinite: both ends read "inf", as the
    # upper end always has, and no bare Infinity reaches the output
    res = invoke(runner, ["dist", "--metric", "H", "ray(0, 1)", "{0}"])
    val = json.loads(res.output, parse_constant=_strict)["results"][0]["value"]
    assert val == {"lo": "inf", "hi": "inf", "method": val["method"]}


def test_dist_tilted_rays_are_infinitely_far_apart(runner):
    rays = ["--space", "euclidean:n=2", "ray((0,0),(1,1e-7))", "ray((0,0),(1,0))"]
    _, vals = by_name(invoke(runner, ["dist", "--metric", "H-", *rays]).output)
    assert vals["H-(A, B)"]["hi"] == "inf"
    # the window-j gap is about j * 1e-7, which meets 1/j near j = 3162
    _, vals = by_name(invoke(runner, ["dist", "--metric", "AW", "--tol", "0.02", *rays]).output)
    assert 0.0 < vals["AW(A, B)"]["lo"] <= vals["AW(A, B)"]["hi"]


def test_dist_plane_sets(runner):
    res = invoke(runner, ["dist", "--metric", "AW", "--space", "euclidean:n=2",
                          "{(0,0)}", "{(0,0),(4,0)}"])
    _, vals = by_name(res.output)
    assert vals["AW(A, B)"]["lo"] == pytest.approx(1.0 / 3.0, abs=0)


def test_dist_rejects_tol_for_exact_metric(runner):
    invoke(runner, ["dist", "--metric", "H", "--tol", "0.1", "{0}", "{1}"],
           code=2)


def test_bad_literal_is_usage_error(runner):
    res = invoke(runner, ["dist", "{0", "{1}"], code=2)
    assert "Error" in res.output


def test_json_output_is_reproducible(runner):
    args = ["dist", "--metric", "AW", "{0}", "{0, 3}"]
    a = invoke(runner, args).output
    b = invoke(runner, args).output
    assert a == b  # byte-identical for identical config and seed
    c = invoke(runner, ["--seed", "7"] + args).output
    assert c != a  # the echoed seed changes the document


def test_csv_output(runner):
    res = invoke(runner, ["--format", "csv", "dist", "--metric", "AW",
                          "{0}", "{0, 10}"])
    lines = res.output.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "value.lo" in header and "value.method" in header
    assert lines[1].startswith("dist,24301")


def test_out_file(runner, tmp_path):
    target = tmp_path / "out.json"
    invoke(runner, ["--out", str(target), "dist", "{0}", "{1}"])
    _, vals = by_name(target.read_text())
    assert vals["H(A, B)"]["lo"] == 1.0


# ---------------------------------------------------------------------------
# aw-lt


def test_aw_lt_true_false(runner):
    _, vals = by_name(invoke(runner, ["aw-lt", "{0}", "{0, 10}", "0.2"]).output)
    assert vals["AW(A, B) < 0.2"] is True
    _, vals = by_name(invoke(runner, ["aw-lt", "{0}", "{0, 10}", "0.1"]).output)
    assert vals["AW(A, B) < 0.1"] is False


def test_aw_lt_bad_eps(runner):
    invoke(runner, ["aw-lt", "{0}", "{1}", "1.5"], code=2)


def test_aw_lt_indeterminate_exits_one(runner):
    # the window-1 certificate of these balls at tol 0.02 is about
    # [0.8935, 0.9122], which straddles eps
    res = invoke(runner, ["aw-lt", "--space", "euclidean:n=2", "--tol", "0.02",
                          "--node-cap", "200000",
                          "ball((0,0),1)", "ball((0.71,0),0.8)", "0.9"], code=1)
    doc, vals = by_name(res.output)
    assert vals["AW(A, B) < 0.9"] == "indeterminate"
    assert "straddles" in doc["results"][0]["detail"]
    # the window-1 sup of these points is 0.65: 40 evaluations cannot
    # settle 0.649, and they do settle 0.6
    argv = ["aw-lt", "--space", "euclidean:n=2", "--node-cap", "40",
            "{(0.25,0)}", "{(0,0), (0.9,0)}"]
    _, vals = by_name(invoke(runner, argv + ["0.649"], code=1).output)
    assert vals["AW(A, B) < 0.649"] == "indeterminate"
    assert by_name(invoke(runner, argv + ["0.6"]).output)[1]["AW(A, B) < 0.6"] is False


def test_aw_lt_decides_in_the_plane_with_a_small_cap(runner):
    # the window-1 sup is 0.6 exactly (at the base point), which the pair
    # bound pins with 40 evaluations
    for eps, want in (("0.6005", True), ("0.59", False)):
        res = invoke(runner, ["aw-lt", "--space", "euclidean:n=2", "--node-cap", "40",
                              "{(0,0)}", "{(0.6,0)}", eps])
        assert by_name(res.output)[1][f"AW(A, B) < {eps}"] is want


# ---------------------------------------------------------------------------
# converge


def test_converge_reciprocal(runner):
    res = invoke(runner, ["converge", "--family", "reciprocal",
                          "--hit", "ball(0, 0.1)", "--miss", "[0.5,1]",
                          "--horizon", "100"])
    _, vals = by_name(res.output)
    assert vals["overall"] is True
    entries = [v for k, v in vals.items() if k != "overall"]
    assert {e["settles_at"] for e in entries} == {11, 3}


def test_converge_escaping_fails(runner):
    res = invoke(runner, ["converge", "--family", "escaping",
                          "--hit", "ball(0, 0.5)", "--horizon", "30"], code=1)
    _, vals = by_name(res.output)
    assert vals["overall"] is False
    entry = next(v for k, v in vals.items() if k.startswith("hit"))
    assert entry["witness"] == 1 and entry["passed"] is False


def test_converge_scans_misses_alone(runner):
    res = invoke(runner, ["converge", "--family", "reciprocal", "--miss", "[0.3,0.4]",
                          "--horizon", "20"])
    _, vals = by_name(res.output)
    assert vals == {"miss(IntervalUnion(intervals=((0.3, 0.4),)))":
                    {"passed": True, "settles_at": 4, "witness": 3}, "overall": True}


def test_converge_refuses_an_unbounded_miss_obstacle(runner):
    res = invoke(runner, ["converge", "--family", "reciprocal", "--miss", "ray(0.3,1)"], code=2)
    assert "Error: miss obstacles must be compact (bounded closed)" in res.output


def test_converge_needs_a_constraint(runner):
    invoke(runner, ["converge", "--family", "reciprocal"], code=2)


# ---------------------------------------------------------------------------
# induce / action


def test_induce_reports_image_and_conditions(runner):
    res = invoke(runner, ["induce", "--map", "affine:a=2:b=1", "[0,1]"])
    _, vals = by_name(res.output)
    assert vals["image"]["kind"] == "IntervalUnion"
    assert "(1.0, 3.0)" in vals["image"]["rep"]
    assert vals["conditions"]["overall"] is True
    assert vals["conditions"]["uniform_on_bounded"] is True


def test_induce_sin_conditions(runner):
    res = invoke(runner, ["induce", "--map", "sin-reciprocal", "[0.1, 0.2]"])
    _, vals = by_name(res.output)
    assert vals["conditions"]["uniform_on_bounded"] is False
    assert vals["conditions"]["overall"] is False


def test_action_with_target(runner):
    res = invoke(runner, ["action", "--element", "translation:v=(1,0)",
                          "--into", "ball((1,0), 1.5)", "ball((0,0),1)"])
    _, vals = by_name(res.output)
    assert vals["maps_into"] is True
    assert vals["image"]["kind"] == "BallUnion"


def test_action_into_a_tilted_ray_is_decided(runner):
    res = invoke(runner, ["action", "--element", "identity:n=2", "--space", "euclidean:n=2",
                          "--into", "ray((0,0),(1,0))", "ray((0,0),(1,1e-7))"])
    _, vals = by_name(res.output)
    assert vals["maps_into"] is False


def test_probe_induced_violation_exits_one(runner):
    base = "{%r, %r}" % (TROUGH_5, TROUGH_10)
    pert = "{%r, %r}" % (TROUGH_5, CREST_10)  # one trough swapped for a crest
    res = invoke(runner, [
        "probe-induced", "--map", "sin-reciprocal",
        "--perturb", pert, "--eps", "0.5", "--deltas", "0.001", base,
    ], code=1)
    _, vals = by_name(res.output)
    assert vals["violation"] is True
    assert vals["perturbation-1"]["d_out"]["lo"] == pytest.approx(2.0, abs=1e-9)


def test_probe_action_ok(runner):
    res = invoke(runner, [
        "probe-action", "--element", "identity:n=2",
        "--perturb", "translation:v=(0.05,0) ; ball((0,0),1)",
        "ball((0,0),1)",
    ])
    _, vals = by_name(res.output)
    assert vals["violation"] is False
    assert vals["perturbation-1"]["d_group"]["lo"] == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_list(runner):
    _, vals = by_name(invoke(runner, ["scenario", "list"]).output)
    assert "oscillating-tail" in vals
    assert len(vals) == 7


def test_scenario_run_with_param(runner):
    res = invoke(runner, ["scenario", "run", "oscillating-tail",
                          "--param", "k_max=3"])
    doc, vals = by_name(res.output)
    assert vals["scenario passed"] is True
    assert doc["config_echo"]["params"]["k_max"] == 3
    assert len(vals["table"]) == 3


def test_scenario_unknown_param_is_usage_error(runner):
    invoke(runner, ["scenario", "run", "oscillating-tail",
                    "--param", "bogus=1"], code=2)


def test_scenario_unknown_name_is_usage_error(runner):
    invoke(runner, ["scenario", "run", "missing-scenario"], code=2)


# ---------------------------------------------------------------------------
# the recorded bytes and the refused inputs

# Full stdout and exit code of exact-path invocations (1-D and finite
# ambients only: grid and SVD outputs can vary in the last bits across
# numpy builds), recorded from the CLI before its commands shared one
# pipeline.  Default output is schema v1 and must not move.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i:02d}" for i in range(len(GOLDEN))])
def test_output_matches_the_recorded_bytes(runner, case):
    res = runner.invoke(main, case["argv"])
    assert (res.exit_code, res.stdout) == (case["exit_code"], case["stdout"])


PERTURB = ["--perturb", "translation:v=(0.05,0) ; ball((0,0),1)", "ball((0,0),1)"]
# each of these but the last ended in a traceback (the last reached exit 2
# only by catching TypeError); a name is the indeterminate answer's
CRASHES = [
    (["dist", "--metric", "AW", "--space", "euclidean:n=2", "--node-cap", "5",
      "{(0,0)}", "{(1,0)}"], "AW(A, B)"),
    (["probe-action", "--element", "identity:n=2", "--metric", "AW",
      "--node-cap", "5", *PERTURB], "violation"),
    (["scenario", "run", "windowed-action", "--param", "node_cap=2"], "scenario passed"),
    (["dist", "--metric", "AW", "--space", "euclidean:n=2", "--tol", "0",
      "{(0,0)}", "{(1,0)}"], None),
    (["dist", "--metric", "AW", "--tol", "nan", "{0}", "{1}"], None),
    (["action", "--element", "rotation", "{(1,0)}"], None),
    (["action", "--element", "scaling:n=2", "{(1,0)}"], None),
    (["action", "--element", "isometry:q=[[1,0],[0,1]]", "{(1,0)}"], None),
    (["action", "--element", "rotation:theta=(1,2)", "{(1,0)}"], None),
    (["induce", "--map", "linear:[1,2]", "{(1,0)}"], None),
    (["induce", "--map", "piecewise:knots=1:values=2", "[0,1]"], None),
    (["dist", "--space", "euclidean", "{0}", "{1}"], None),
    (["dist", "[0,None]", "{1}"], None),
    (["converge", "--family", "reciprocal", "--hit", "ball(0,None)"], None),
    (["probe-action", "--element", "identity:n=2", "--metric", "H", "--tol", "0.1",
      *PERTURB], None),
    (["probe-induced", "--map", "identity", "--perturb", "{0}", "--eps", "nan", "{0}"], None),
    (["scenario", "run", "oscillating-tail", "--param", "k_max=3.0"], None),
    # these three ran: a NaN or zero delta answered "no violation", and a
    # zero separation divided by zero
    (["probe-induced", "--map", "identity", "--perturb", "{0}", "--deltas", "nan", "{0}"], None),
    (["probe-action", "--element", "identity:n=2", "--metric", "H", "--deltas", "1,0",
      *PERTURB], None),
    (["scenario", "run", "escaping-pair", "--param", "separations=[0]"], None),
    # an infinite matrix entry sent the scaled-orthogonal test into endless recursion
    (["induce", "--map", "linear:[[1e309,0],[0,1]]", "--space", "euclidean:n=2",
      "cloud(0.5; (1,0))"], None),
    # a non-finite slope or knot is refused where the map is built
    (["induce", "--map", "affine:a=1e999", "[0,1]"], None),
    (["induce", "--map", "piecewise:knots=[0,1e999]:values=[0,1]", "[0,1]"], None),
]


@pytest.mark.parametrize("argv,answer", CRASHES, ids=[f"{i:02d}" for i in range(len(CRASHES))])
def test_refused_and_indeterminate_inputs_exit_cleanly(runner, argv, answer):
    res = runner.invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if answer is None:
        assert res.exit_code == 2 and "Error:" in res.output and res.stdout == ""
        return
    assert res.exit_code == 1
    doc, vals = by_name(res.stdout)
    assert vals == {answer: "indeterminate"} and doc["results"][0]["detail"]
