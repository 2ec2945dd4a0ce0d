import math

import pytest

from hypermet import scenarios


def test_registry_lists_all_seven():
    assert scenarios.available() == [
        "escaping-pair", "moving-witness", "oscillating-tail", "proper-miss",
        "rigid-corpus", "tilted-ray", "windowed-action",
    ]


@pytest.mark.parametrize("name", scenarios.available())
def test_every_scenario_passes_with_default_seed(name):
    rep = scenarios.run(name)
    assert rep.passed and bool(rep)
    assert rep.name == name and rep.seed == scenarios.DEFAULT_SEED
    assert rep.assertions and all(a.passed for a in rep.assertions)
    assert rep.rows


def test_oscillating_tail_row_values():
    rep = scenarios.run("oscillating-tail")
    first = rep.rows[0]
    assert first["k"] == 1
    # half the gap between consecutive crest anchors: 1/(4 pi k (k+1))
    assert abs(first["d_in"]["lo"] - 1.0 / (8.0 * math.pi)) < 1e-9
    assert abs(first["d_out"]["lo"] - 1.0) < 1e-9
    for row, k in zip(rep.rows, range(1, 21)):
        assert abs(row["d_in"]["lo"] - 1.0 / (4.0 * math.pi * k * (k + 1))) < 1e-9


def test_escaping_pair_row_values():
    rep = scenarios.run("escaping-pair")
    by_n = {row["n"]: row for row in rep.rows if "n" in row}
    assert by_n[15]["d_in"]["lo"] == 0.125  # 1/(15//2+1)
    for n in (15, 100, 1000):
        assert by_n[n]["d_in"]["hi"] <= 2.0 / n
        assert by_n[n]["d_out"]["lo"] == 0.5


def test_tilted_ray_row_values():
    rep = scenarios.run("tilted-ray")
    assert any(row.get("excess", {}).get("hi") == "inf" for row in rep.rows)
    picked = [r for r in rep.rows
              if r.get("theta") == 0.1 and r.get("R") == 100.0]
    (row,) = picked
    assert abs(row["d_trunc"]["lo"] - 100.0 * math.sin(0.1)) <= 1e-4


def test_moving_witness_rows_separate():
    rep = scenarios.run("moving-witness")
    ds = [row["pair_distance"] for row in rep.rows]
    assert all(a > b for a, b in zip(ds, ds[1:]))
    for row in rep.rows:
        assert row["bound_ok"] and row["separated"]
        assert abs(row["image_distance"]["lo"] - 1.0) <= 1e-9


def test_rigid_corpus_summary():
    rep = scenarios.run("rigid-corpus")
    summary = rep.rows[-1]
    assert summary["instance"] == "summary"
    assert summary["checked"] == 100 and summary["violations"] == 0
    # the tabulated sample rows satisfy the additive bound
    for row in rep.rows[:-1]:
        assert row["d_out"]["hi"] <= row["d_group"]["hi"] + row["d_set"]["hi"] + 1e-9


def test_overrides_flow_through():
    rep = scenarios.run("oscillating-tail", k_max=3)
    assert rep.params["k_max"] == 3
    assert len(rep.rows) == 3
    rep2 = scenarios.run("tilted-ray", angles=(0.5,), radii=(10.0,))
    assert rep2.params["angles"] == (0.5,)
    assert rep2.passed


def test_seed_is_recorded_and_changes_random_rows():
    a = scenarios.run("rigid-corpus", seed=1)
    b = scenarios.run("rigid-corpus", seed=2)
    assert a.seed == 1 and b.seed == 2
    assert a.rows[0] != b.rows[0]  # different random instances
    again = scenarios.run("rigid-corpus", seed=1)
    assert again.rows == a.rows  # same seed, same corpus


def test_unknown_scenario_and_override():
    with pytest.raises(ValueError):
        scenarios.run("no-such-scenario")
    with pytest.raises(ValueError, match="no parameter 'horizon'"):
        scenarios.run("oscillating-tail", horizon=5)


@pytest.mark.parametrize("override", [{"k_max": 3.0}, {"k_max": "[1"}, {"k_max": True},
                                      {"n_points": (5,)}])
def test_override_of_the_wrong_type_is_refused(override):
    with pytest.raises(ValueError, match="takes values like"):
        scenarios.run("oscillating-tail", **override)


@pytest.mark.parametrize("name,override", [
    ("escaping-pair", {"separations": [0]}), ("escaping-pair", {"separations": (15, -4)}),
    ("oscillating-tail", {"k_max": 0}), ("moving-witness", {"probes": (0,)}),
    ("proper-miss", {"horizon": 0}), ("rigid-corpus", {"instances": 0})])
def test_override_out_of_range_is_refused(name, override):
    # separations=[0] ended in ZeroDivisionError; k_max=0 "passed" on no rows
    with pytest.raises(ValueError, match="must be at least 1"):
        scenarios.run(name, **override)


def test_overrides_may_widen_ints_to_floats_and_tuples_to_lists():
    report = scenarios.run("proper-miss", matrix=[[2, 1], [0, 1]], horizon=50)
    assert report.passed and report.params["matrix"] == [[2, 1], [0, 1]]
