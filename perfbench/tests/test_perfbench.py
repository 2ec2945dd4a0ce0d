"""Self-tests of the benchmark: input determinism, the checkers, and the
metric names against BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hypermet  # noqa: E402
import hypermet.cli  # noqa: E402,F401
import oracles  # noqa: E402
import workloads  # noqa: E402
from hypermet.hypermetrics import CertifiedValue  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(workload):
    a = workloads.digest(workloads.generate(workload, 11))
    b = workloads.digest(workloads.generate(workload, 11))
    c = workloads.digest(workloads.generate(workload, 12))
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_has_at_least_100_ops(workload):
    assert len(workloads.generate(workload, 0).ops) >= 100


def _first(inputs, kind, tag=None):
    for op in inputs.ops:
        if op.kind == kind and (tag is None or inputs.cases[op.case].get("tag") == tag):
            return op
    raise LookupError(kind)


@pytest.fixture(scope="module")
def line():
    inputs = workloads.generate("line-exact", 3)
    return inputs, workloads.build(hypermet, inputs), oracles.Checker(inputs)


def test_checker_accepts_the_library_answer(line):
    inputs, built, checker = line
    for kind in ("hausdorff", "aw_distance", "sup_gap_on_ball"):
        op = _first(inputs, kind, "uniform")
        res = workloads.execute(hypermet, inputs, built, op)
        assert checker.check(op, res, {}).ok, kind


def test_checker_rejects_a_wrong_certificate(line):
    inputs, built, checker = line
    op = _first(inputs, "hausdorff", "uniform")
    res = workloads.execute(hypermet, inputs, built, op)
    wrong = CertifiedValue.point(res.lo * 1.5 + 1.0, res.method)
    assert not checker.check(op, wrong, {}).ok
    op = _first(inputs, "aw_distance", "uniform")
    res = workloads.execute(hypermet, inputs, built, op)
    wrong = CertifiedValue.point(min(1.0, res.lo + 0.5), res.method)
    assert not checker.check(op, wrong, {}).ok


def test_checker_rejects_a_too_narrow_certificate():
    inputs = workloads.generate("plane-certified", 3)
    built = workloads.build(hypermet, inputs)
    checker = oracles.Checker(inputs)
    op = _first(inputs, "aw_distance")
    res = workloads.execute(hypermet, inputs, built, op)
    assert checker.check(op, res, {}).ok
    lo, _, _ = checker._plane(op.case)
    # an interval that stops short of the sampled lower bound
    narrow = CertifiedValue.interval(0.0, lo / 2.0, res.method)
    assert not checker.check(op, narrow, {}).ok


def test_checker_rejects_an_inconsistent_verdict(line):
    inputs, built, checker = line
    op = _first(inputs, "aw_less_than", "uniform")
    res = workloads.execute(hypermet, inputs, built, op)
    assert checker.check(op, res, {}).ok
    assert not checker.check(op, not res, {}).ok


def _aw_lt_cli_case(shift):
    argv = ("aw-lt", "--space", "euclidean:n=2", "--tol", str(workloads.PLANE_TOL),
            "--node-cap", str(workloads.PLANE_NODE_CAP), "ball((0.0, 0.0), 1.0)",
            f"ball(({shift}, 0.0), 1.0)", "0.9")
    return {"argv": argv, "check": 0.9, "dim": 2, "a": ("balls", [((0.0, 0.0), 1.0)]),
            "b": ("balls", [((shift, 0.0), 1.0)])}


@pytest.mark.parametrize("shift,justified", [(0.895, True), (0.5, False)])
def test_checker_judges_a_cli_refusal(shift, justified):
    # the library refuses aw-lt near the threshold; far from it, a refusal is wrong
    case = _aw_lt_cli_case(shift)
    inputs = workloads.Inputs("scan-act", 0, [case], [workloads.Op("cli", 0)])
    checker = oracles.Checker(inputs)
    refusal = (1, json.dumps({"results": [{"name": "AW(A, B) < 0.9",
                                            "value": "indeterminate"}]}))
    v = checker.check(inputs.ops[0], refusal, {})
    assert v.ok is justified and v.refused is justified
    if justified:
        got = workloads.execute(hypermet, inputs, None, inputs.ops[0])
        assert got[0] == 1 and checker.check(inputs.ops[0], got, {}).ok


def test_exact_hausdorff_flags_a_rounded_certificate():
    # 0.1 - (-0.2) is not a float: the nearest float is an unsound "exact" answer
    inputs = workloads.Inputs("line-exact", 0, [{
        "tag": "spread", "space": ("line",), "a": ("points", [0.1]),
        "b": ("points", [-0.2]), "radius": 1.0, "eps": 0.5}], [])
    checker = oracles.Checker(inputs)
    op = workloads.Op("hausdorff", 0)
    built = workloads.build(hypermet, inputs)
    v = checker.check(op, workloads.execute(hypermet, inputs, built, op), {})
    assert v.ok and v.sound is False


@pytest.mark.parametrize("workload,trace", [(w, t) for w in workloads.WORKLOADS
                                            for t in (0, 1)])
def test_printed_metrics_match_benchmark_json(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 100
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in doc["metrics"].items()}
