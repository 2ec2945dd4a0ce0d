#!/usr/bin/env python3
"""Benchmark of hypermet: one workload, one seed, one run.

    python3 perfbench/run.py --workload line-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Load is a closed loop: one client, one process, one thread,
with BLAS/OpenMP threads pinned to 1.  The run repeats whole passes over
the workload's op list until ``--seconds`` have elapsed; every answer of
the first pass is checked by an independent oracle after the timed
passes, and later passes must repeat the first pass's answers.

``--trace 0`` prints the end-to-end metrics; its time metrics are scaled
to a reference machine speed, which a calibration kernel timed between
ops measures (see CAL_REF_S).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: calls and
self time per pass of each wrapped library function, and the tracing
overhead (traced minus untraced pass time).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record and, for traced runs, the spans go to
``perfbench/results/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from oracles import Checker  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Extra set-ups in child processes, spread over the timed run between ops:
# the machine's speed drifts within a run, and set-ups taken all at once
# see only one state of it.  setup_s is the median.
SETUP_PROBES = 10
# The machine's speed also drifts between runs, by up to half for a minute
# or more.  A fixed calibration kernel, timed between ops every CAL_EVERY_S
# seconds of the run, measures that speed; the time metrics are reported at
# the reference speed, at which one kernel run takes CAL_REF_S.  Changing
# the kernel changes every time metric.
CAL_EVERY_S = 0.25
CAL_REF_S = 0.007
CAL_MIN = 8


def calibrate():
    """One run of the calibration kernel (Python floats, a list sort and
    small numpy ops, like the library's own mix); returns its seconds."""
    t0 = perf_counter()
    x, xs = 0.5, []
    for _ in range(12000):
        x = 3.9 * x * (1.0 - x)
        xs.append((x, -x))
    xs.sort()
    a = np.linspace(-1.0, 1.0, 64)
    for _ in range(200):
        a = np.abs(a - 0.5 * a.min())
    return perf_counter() - t0


class NoLibrary(Exception):
    pass


def import_library():
    """Import hypermet (and its CLI) from this checkout's src/."""
    if not (SRC / "hypermet" / "__init__.py").is_file():
        raise NoLibrary(f"no hypermet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypermet
    import hypermet.cli  # noqa: F401
    if Path(hypermet.__file__).resolve().parent != SRC / "hypermet":
        raise NoLibrary(f"hypermet was imported from {hypermet.__file__}, not {SRC}")
    return hypermet


def set_up(workload, seed):
    """Import, generate and build; returns (library, inputs, built, seconds)."""
    t0 = perf_counter()
    hm = import_library()
    inputs = workloads.generate(workload, seed)
    built = workloads.build(hm, inputs)
    return hm, inputs, built, perf_counter() - t0


def probe_setup(workload, seed):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.latencies = []
        self.wall = 0.0


def run_pass(hm, inputs, built, first, tracer=None, between=None):
    """One pass over the op list.  Returns (Pass, answers, failures):
    the first pass keeps its answers; later passes are compared to it.
    ``between`` runs after each op and returns the seconds it took, which
    the pass's wall time leaves out."""
    p = Pass(tracer is not None)
    answers = []
    failures = 0
    t_start = perf_counter()
    for i, op in enumerate(inputs.ops):
        with tracer.op_span(i, op.kind) if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                res = workloads.execute(hm, inputs, built, op)
            except Exception as exc:  # noqa: BLE001 - an unexpected error is a failed op
                res = Failure(exc)
            dt = perf_counter() - t0
        p.latencies.append(dt)
        if between is not None:
            t_start += between()
        if first is None:
            answers.append(res)
        elif isinstance(res, Failure) or not res == first[i]:
            failures += 1
    p.wall = perf_counter() - t_start
    return p, answers, failures


class Failure:
    """An op that raised; it equals no answer, not even another Failure."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return False


def check_answers(inputs, answers):
    """Oracle pass over the first pass's answers."""
    checker = Checker(inputs)
    by_key = {(op.kind, op.case): res for op, res in zip(inputs.ops, answers)}
    failed, refused, sound, widths, notes = 0, 0, [], [], []
    for i, (op, res) in enumerate(zip(inputs.ops, answers)):
        if isinstance(res, Failure):
            failed += 1
            notes.append(f"op {i} {op.kind}: raised {res.text}")
            continue
        v = checker.check(op, res, by_key)
        if res is workloads.REFUSED or v.refused:
            refused += 1
        if not v.ok:
            failed += 1
            notes.append(f"op {i} {op.kind} case {op.case}: {v.detail}")
        if v.sound is not None:
            sound.append(v.sound)
        if v.width is not None:
            widths.append(v.width)
    return {"failed": failed, "refused": refused, "checked_exact": len(sound),
            "unsound": sound.count(False), "widths": widths, "notes": notes}


# ---------------------------------------------------------------------------
# the run record


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def record(args, inputs, extra):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "op_list_digest": workloads.digest(inputs),
        "ops_per_pass": len(inputs.ops),
        **extra,
    }


def pct(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    load_before = os.getloadavg()[0]

    try:
        hm, inputs, built, own_setup = set_up(args.workload, args.seed)
    except (NoLibrary, ImportError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(refusals=(hm.Indeterminate, hm.UnsupportedPair))

    for op in workloads.warmup_ops(inputs):
        try:
            workloads.execute(hm, inputs, built, op)
        except Exception:  # noqa: BLE001 - the timed pass records it
            pass

    passes, first, late_failures = [], None, 0
    blind_spots = None
    probes, cals = [], []
    t_run = perf_counter()

    def between_ops():
        """Calibrations and set-up probes when due; returns their seconds."""
        if args.trace:
            return 0.0
        t0 = perf_counter()
        if t0 - t_run >= len(cals) * CAL_EVERY_S:
            cals.append(calibrate())
        if len(probes) < SETUP_PROBES and \
                t0 - t_run >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))
        return perf_counter() - t0

    while not passes or perf_counter() - t_run < args.seconds or \
            (tracer is not None and len(passes) < 2):
        use_tracer = tracer is not None and len(passes) % 2 == 1
        if use_tracer:
            tracer.install()
            if blind_spots is None:
                blind_spots = tracer.blind_spots()
        try:
            p, answers, fails = run_pass(hm, inputs, built, first,
                                         tracer if use_tracer else None,
                                         None if use_tracer else between_ops)
        finally:
            if use_tracer:
                tracer.uninstall()
        passes.append(p)
        late_failures += fails
        if first is None:
            first = answers
    if not args.trace:   # top up a run shorter than a pass
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))
        while len(cals) < CAL_MIN:
            cals.append(calibrate())
    setups = [own_setup] + probes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    load_after = os.getloadavg()[0]

    checks = check_answers(inputs, first)
    n_ops = len(inputs.ops)
    attempted = n_ops * len(passes)
    failed = checks["failed"] + late_failures
    refusal_frac = checks["refused"] / n_ops
    quality = {
        "fail_frac": failed / attempted,
        "refusal_frac": refusal_frac,
        "unsound_frac": (checks["unsound"] / checks["checked_exact"]
                         if checks["checked_exact"] else 0.0),
        "cert_width_mean": (statistics.fmean(checks["widths"])
                            if checks["widths"] else 0.0),
    }

    # Each op's latency is the mean of its untraced repeats in the run.  The
    # machine's speed swings between states for seconds at a time; a mean
    # over the run averages them, where a median jumps between them.
    lat = [statistics.fmean(t)
           for t in zip(*(p.latencies for p in passes if not p.traced))]
    raw, speed = {}, None
    if not args.trace:
        raw = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_p90_ms": (1e3 * pct(lat, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        speed = CAL_REF_S / statistics.fmean(cals)   # < 1 on a slow machine
        metrics = {k: (v * speed if u in ("s", "ms") else v / speed if u == "1/s" else v, u)
                   for k, (v, u) in raw.items()}
    else:
        metrics = layer_metrics(tracer, passes, n_ops, quality)

    extra = {
        "passes": len(passes), "traced_passes": sum(p.traced for p in passes),
        "ops_attempted": attempted, "ops_failed": failed,
        "pass_wall_s": [p.wall for p in passes],
        "setup_samples_s": setups,
        "calibration": {"samples": len(cals), "ref_s": CAL_REF_S,
                        "mean_s": statistics.fmean(cals) if cals else None,
                        "speed": speed},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "load_avg_1min": {"before": load_before, "after": load_after},
        "checked_exact": checks["checked_exact"], "unsound": checks["unsound"],
        "quality": quality, "failures": checks["notes"][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    rec = record(args, inputs, extra)
    if tracer is not None:
        rec["blind_spots"] = blind_spots
        rec["patched_containers"] = sorted(set(tracer.patched_containers))
    write_outputs(args, rec, tracer)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops/pass {n_ops}  attempted {attempted}  failed {failed}")
    print(f"op-list digest {rec['op_list_digest'][:16]}  git {rec['git_sha'][:12]}  "
          f"python {rec['python']}  numpy {rec['numpy']}  nproc {rec['nproc']}  "
          f"load {load_before:.2f} -> {load_after:.2f}")
    for k, v in quality.items():
        print(f"  {k:24s} {v:.6g}")
    if tracer is not None:
        print("  blind spots: " + ("; ".join(blind_spots) or "none"))
    if speed is not None:
        print(f"  machine speed {speed:.4g} of the reference "
              f"({len(cals)} calibrations; raw metrics in the run record)")
    for note in checks["notes"][:10]:
        print("  FAIL " + note)
    for k, (v, u) in metrics.items():
        print(f"  {k:40s} {v:.6g} {u}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, passes, n_ops, quality):
    from tracing import LAYERS
    traced = [p.wall for p in passes if p.traced]
    plain = [p.wall for p in passes if not p.traced]
    k = len(traced)
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (tracer.calls[name] / k, "count")
        out[f"{name}.self_s"] = (tracer.self_time[name] / k, "s")
    out["sets.components.calls_per_op"] = (tracer.calls["sets.components"] / k / n_ops,
                                           "count/op")
    out["hypermetrics.aw_less_than.refused"] = (
        tracer.refused["hypermetrics.aw_less_than"] / k, "count")
    out["hitmiss.refused"] = (tracer.layer_refused["hitmiss"] / k, "count")
    overhead = statistics.median(traced) - statistics.median(plain)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_frac"] = (overhead / statistics.median(plain), "frac")
    for key, value in quality.items():
        out["check." + key] = (value, "frac" if key.endswith("frac") else "distance")
    return out


def write_outputs(args, rec, tracer):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json.gz",
                     {k: rec[k] for k in ("workload", "seed", "git_sha")})


if __name__ == "__main__":
    sys.exit(main())
