#!/usr/bin/env python3
"""Median and quartiles of each metric over the run records in perfbench/results/.

    python3 perfbench/summarize.py > perfbench/baseline.json

Prints one JSON object with an "end_to_end" section (records of --trace 0
runs) and a "per_layer" section (--trace 1): workload -> seeds, git SHAs
and, per metric, median, q1, q3, unit and spread, where spread is
(q3 - q1) / median as in the acceptance rule of the benchmark.
"""

import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def summarize(trace):
    runs = {}
    for path in sorted(RESULTS.glob(f"*-trace{trace}.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], []).append(rec)
    out = {}
    for workload, recs in sorted(runs.items()):
        recs.sort(key=lambda r: r["seed"])
        table = {}
        for name, m in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            table[name] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                           "spread": (q3 - q1) / med if med else None}
        out[workload] = {"seeds": [r["seed"] for r in recs],
                         "git_sha": sorted({r["git_sha"] for r in recs}),
                         "metrics": table}
    return out


if __name__ == "__main__":
    print(json.dumps({"end_to_end": summarize(0), "per_layer": summarize(1)}, indent=1))
