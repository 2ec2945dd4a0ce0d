"""Seeded inputs and op lists for the three benchmark workloads.

``generate`` uses numpy and the standard library only, so the op list and
its digest do not depend on the library under test.  Sizes, radii and
offsets follow fixed ladders; the seed only moves coordinates, directions
and thresholds.  That keeps the cost of a pass nearly the same from seed
to seed while every seed still gives different inputs.

``build`` turns the raw cases into ``hypermet`` objects.  Generation plus
``build`` is the set-up that ``setup_s`` times.  ``execute`` runs one op
against the public API and is the only code inside the timed region.

Workloads (one op is one top-level call into the library):

* ``line-exact`` -- the exact 1-D and finite-space path.  Point sets and
  interval unions of 60-200 pieces; a quarter of them spread over seven
  orders of magnitude and both signs, which is where float rounding makes
  "exact" certificates miss the true value.  Open-interval and finite
  metric-space pairs, and far pairs {0, D} vs {0, D(1+1e-12)} whose cost
  grows with D.  Each pair is queried with hausdorff, aw_distance,
  sup_gap_on_ball and aw_less_than (the same sets four times).
* ``plane-certified`` -- the grid-certified path in R^2 and R^3.  Point
  and ball sets that agree near the base point and differ at radius
  1.5-5, queried with aw_distance and aw_less_than at tol=0.02,
  node_cap=200_000; four ops use the default node cap.
* ``scan-act`` -- many fresh small sets, each built inside its op and
  queried once: convergence scans, actions and induced images of
  100-400 points, group distances, and the CLI (seven scenarios plus
  dist/aw-lt literals).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

WORKLOADS = ("line-exact", "plane-certified", "scan-act")

PLANE_TOL = 0.02
PLANE_NODE_CAP = 200_000
SCAN_HORIZON = 150
SCENARIOS = ("escaping-pair", "moving-witness", "oscillating-tail",
             "proper-miss", "rigid-corpus", "tilted-ray", "windowed-action")

# outcomes of one op that are not answers
REFUSED = "refused"


@dataclass(frozen=True)
class Op:
    kind: str
    case: int
    arg: Any = None


@dataclass
class Inputs:
    workload: str
    seed: int
    cases: list
    ops: list


def _floats(a):
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def _tuples(a):
    return [tuple(float(v) for v in row) for row in np.asarray(a, dtype=float)]


def _ladder(i, n, lo, hi):
    return lo + (hi - lo) * i / (n - 1)


def _near(rng, v):
    """v moved by at most 3%: a seeded value whose cost stays that of v."""
    return float(v * rng.uniform(0.97, 1.03))


def generate(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    gen = {"line-exact": _gen_line, "plane-certified": _gen_plane,
           "scan-act": _gen_scan}[workload]
    cases, ops = gen(rng)
    return Inputs(workload, int(seed), cases, ops)


def warmup_ops(inputs: Inputs) -> list:
    """The first op of each kind.  Run once, untimed, before the timed
    passes, so that first-call costs (lazy imports, the allocator growing
    its heap for the largest arrays) do not land in one pass only."""
    first = {}
    for op in inputs.ops:
        first.setdefault(op.kind, op)
    return list(first.values())


def digest(inputs: Inputs) -> str:
    text = repr((inputs.workload, inputs.cases, inputs.ops))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# line-exact

N_LINE = 24        # line pairs, sizes 60..200
N_OPEN = 3
N_FINITE = 3
FAR_D = (2.5e3, 5e3, 1e4, 2e4)


def _spread(rng, n):
    """Both signs, magnitudes from 1e-3 to 1e4."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 4.0, n)


def _pieces(kind, values):
    values = np.sort(values)
    if kind == "points":
        return ("points", _floats(values))
    return ("intervals", [(float(a), float(b)) for a, b in values.reshape(-1, 2)])


def _line_pair(rng, n, kind, spread, half):
    count = n if kind == "points" else 2 * n
    if spread:
        a = _spread(rng, count)
        b = a.copy()
        fresh = rng.random(count) < 0.5
        b[fresh] = _spread(rng, int(fresh.sum()))
        b[~fresh] *= 1.0 + rng.normal(0.0, 1e-3, int((~fresh).sum()))
    else:
        a = rng.uniform(-half, half, count)
        b = a + rng.normal(0.0, 0.05, count)
        moved = rng.random(count) < 0.1
        b[moved] = rng.uniform(-half, half, int(moved.sum()))
        b = np.clip(b, -half, half)
    return _pieces(kind, a), _pieces(kind, b)


RADIUS_FRACTIONS = (0.4, 0.55, 0.7, 0.85)   # sup_gap window over the extent
EPS_LADDER = (0.06, 0.11, 0.2, 0.4)         # aw_less_than thresholds


def _gen_line(rng):
    # window radii and thresholds follow ladders: both set how many
    # candidates an op scans, so drawing them freely would make a pass's
    # cost depend on the seed
    cases = []
    for i in range(N_LINE):
        n = round(_ladder(i, N_LINE, 60, 200))
        kind = "points" if i % 2 == 0 else "intervals"
        spread = i % 8 in (1, 6)
        a, b = _line_pair(rng, n, kind, spread, half=n / 4.0)
        extent = max(abs(v) for s in (a, b) for v in np.ravel(s[1]))
        cases.append({"tag": "spread" if spread else "uniform", "space": ("line",),
                      "a": a, "b": b, "radius": _near(rng, extent * RADIUS_FRACTIONS[i % 4]),
                      "eps": _near(rng, EPS_LADDER[(i // 4) % 4])})
    for i in range(N_OPEN):
        n = 60 + 30 * i
        kind = "points" if i % 2 == 0 else "intervals"
        a, b = _line_pair(rng, n, kind, False, half=29.0)
        cases.append({"tag": "open", "space": ("open", -30.0, 30.0), "a": a, "b": b,
                      "radius": _near(rng, 30.0 * RADIUS_FRACTIONS[i]),
                      "eps": _near(rng, EPS_LADDER[i])})
    for i in range(N_FINITE):
        m = 30
        pts = rng.uniform(0.0, 10.0, (m, 2))
        matrix = [[float(np.linalg.norm(p - q)) for q in pts] for p in pts]
        a = sorted(int(v) for v in rng.choice(m, 8 + 3 * i, replace=False))
        b = sorted(int(v) for v in rng.choice(m, 8 + 3 * i, replace=False))
        cases.append({"tag": "finite", "space": ("finite", matrix),
                      "a": ("points", a), "b": ("points", b),
                      "radius": _near(rng, 10.0 * RADIUS_FRACTIONS[i]),
                      "eps": _near(rng, EPS_LADDER[i])})
    for i, D in enumerate(FAR_D):
        D = _near(rng, D)
        cases.append({"tag": "far", "space": ("line",),
                      "a": ("points", [0.0, D]), "b": ("points", [0.0, D * (1 + 1e-12)]),
                      "radius": 0.75 * D, "eps": _near(rng, EPS_LADDER[i])})
    ops = []
    for c in range(len(cases)):
        ops += [Op("hausdorff", c), Op("aw_distance", c),
                Op("sup_gap_on_ball", c, cases[c]["radius"]),
                Op("aw_less_than", c, cases[c]["eps"])]
    return cases, ops


# ---------------------------------------------------------------------------
# plane-certified

N_PLANE2 = 26
N_PLANE3 = 6
N_DEFAULT_CAP = 4
DELTAS = (0.1, 0.18, 0.3, 0.5)


def _directions(rng, k, dim):
    u = rng.normal(size=(k, dim))
    return u / np.linalg.norm(u, axis=1)[:, None]


def _plane_pair(rng, dim, kind, n_core, n_outer, radius, delta):
    core = _directions(rng, n_core, dim) * rng.uniform(0.0, 1.0, (n_core, 1))
    outer = _directions(rng, n_outer, dim) * radius
    moved = outer + _directions(rng, n_outer, dim) * delta
    a, b = np.vstack([core, outer]), np.vstack([core, moved])
    if kind == "points":
        return ("points", _tuples(a)), ("points", _tuples(b))
    r = rng.uniform(0.1, 0.3, len(a))
    return (("balls", [(c, float(s)) for c, s in zip(_tuples(a), r)]),
            ("balls", [(c, float(s)) for c, s in zip(_tuples(b), r)]))


def _gen_plane(rng):
    cases, ops = [], []
    for i in range(N_PLANE2 + N_PLANE3):
        dim = 2 if i < N_PLANE2 else 3
        kind = "points" if i % 2 == 0 else "balls"
        radius = _ladder(i % 8, 8, 1.5, 5.0)
        a, b = _plane_pair(rng, dim, kind, 1 + i % 2, 1 + (i // 2) % 3, radius,
                           DELTAS[(i // 6) % 4])
        cases.append({"dim": dim, "a": a, "b": b})
        ops.append(Op("aw_distance", i, (PLANE_TOL, PLANE_NODE_CAP)))
        for eps in rng.uniform(0.05, 0.6, 2):
            ops.append(Op("aw_less_than", i, (float(eps), PLANE_TOL, PLANE_NODE_CAP)))
    for i in range(N_DEFAULT_CAP):
        a, b = _plane_pair(rng, 2, "balls", 1, 1, _ladder(i, N_DEFAULT_CAP, 1.5, 3.0), 0.3)
        cases.append({"dim": 2, "a": a, "b": b})
        ops.append(Op("aw_less_than_default_cap", len(cases) - 1,
                      float(rng.uniform(0.1, 0.4))))
    return cases, ops


# ---------------------------------------------------------------------------
# scan-act

N_CONV2 = 24
N_CONV1 = 8
N_ACT = 24
N_INDUCED = 24
N_GROUP = 8
TOPOLOGIES_POINTS = ("lowerV", "upperV", "vietoris", "fell")
TOPOLOGIES_BALLS = ("lowerV", "fell")
OBSTACLE = ((6.0, 6.0), 1.0)


def _gen_scan(rng):
    cases, ops = [], []

    def add(kind, case):
        cases.append(case)
        ops.append(Op(kind, len(cases) - 1))

    for i in range(N_CONV2):
        kind = "points" if i % 3 else "balls"
        tops = TOPOLOGIES_POINTS if kind == "points" else TOPOLOGIES_BALLS
        centers = rng.uniform(-2.0, 2.0, (6 + i % 5, 2))
        if kind == "points":
            limit = ("points", _tuples(centers))
            jitter = _tuples(rng.normal(0.0, 0.3, (2, 2)))
        else:
            limit = ("balls", [(c, float(r)) for c, r in
                               zip(_tuples(centers[:3 + i % 3]), rng.uniform(0.1, 0.3, 6))])
            jitter = (float(rng.normal(0.0, 0.3)), float(rng.normal(0.0, 0.5)))
        add("converges_2d", {"limit": limit, "jitter": jitter,
                             "decay": i % 4 != 0, "topology": tops[i % len(tops)]})
    for i in range(N_CONV1):
        pts = rng.uniform(-5.0, 5.0, 5)
        ivs = np.sort(rng.uniform(-5.0, 5.0, 6)).reshape(-1, 2)
        add("converges_1d", {"points": _floats(pts), "intervals": _tuples(ivs),
                             "point_noise": _floats(rng.normal(0.0, 0.5, 5)),
                             "interval_noise": _tuples(rng.normal(0.0, 0.3, (3, 2))),
                             "topology": ("lowerV", "upperV", "vietoris")[i % 3]})
    for i in range(N_ACT):
        n = round(_ladder(i, N_ACT, 100, 400))
        pts = _tuples(rng.uniform(-10.0, 10.0, (n, 2)))
        which = ("rotation", "translation", "scaling", "isometry")[i % 4]
        theta = float(rng.uniform(0.0, 2 * math.pi))
        v = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        param = {"rotation": theta, "translation": v,
                 "scaling": float(rng.uniform(0.5, 2.0)), "isometry": (theta, v)}[which]
        add("act", {"points": pts, "element": (which, param)})
    for i in range(N_INDUCED):
        n = round(_ladder(i, N_INDUCED, 100, 400))
        pts = _tuples(rng.uniform(-10.0, 10.0, (n, 2)))
        add("induced_image", {"points": pts, "matrix": _tuples(rng.normal(0.0, 1.0, (2, 2)))})
    for i in range(N_GROUP):
        g = (float(rng.uniform(0, 2 * math.pi)), _floats(rng.uniform(-2, 2, 2)))
        h = (float(g[0] + rng.normal(0.0, 0.1)), _floats(np.add(g[1], rng.normal(0, 0.2, 2))))
        add("group_distance", {"g": g, "h": h})
    for name in SCENARIOS:
        add("cli", {"argv": ("scenario", "run", name)})
    p = _floats(np.sort(np.round(rng.uniform(-8.0, 8.0, 8), 3)))
    q = _floats(np.sort(np.round(rng.uniform(-8.0, 8.0, 6), 3)))
    pts_a = "{" + ", ".join(map(repr, p)) + "}"
    pts_b = "{" + ", ".join(map(repr, q)) + "}"
    shift = float(np.round(rng.uniform(0.2, 1.0), 3))
    balls_a = ("balls", [((0.0, 0.0), 1.0)])
    balls_b = ("balls", [((shift, 0.0), 1.0)])
    ball_a, ball_b = "ball((0.0, 0.0), 1.0)", f"ball(({shift}, 0.0), 1.0)"
    plane = ("--space", "euclidean:n=2", "--tol", str(PLANE_TOL),
             "--node-cap", str(PLANE_NODE_CAP))
    line_sets = {"a": ("points", p), "b": ("points", q), "dim": 1}
    plane_sets = {"a": balls_a, "b": balls_b, "dim": 2}
    for metric in ("H", "H-", "AW"):
        add("cli", {"argv": ("dist", "--metric", metric, pts_a, pts_b),
                    "check": metric, **line_sets})
    add("cli", {"argv": ("dist", "--metric", "AW", *plane, ball_a, ball_b),
                "check": "AW", **plane_sets})
    add("cli", {"argv": ("aw-lt", pts_a, pts_b, "0.05"), "check": 0.05, **line_sets})
    add("cli", {"argv": ("aw-lt", *plane, ball_a, ball_b, "0.9"), "check": 0.9,
                **plane_sets})
    return cases, ops


# ---------------------------------------------------------------------------
# building the library's objects


def _space(hm, spec):
    if spec[0] == "line":
        return hm.AmbientSpace.line()
    if spec[0] == "open":
        return hm.AmbientSpace.open_interval(spec[1], spec[2])
    if spec[0] == "finite":
        return hm.AmbientSpace.finite(spec[1])
    return hm.AmbientSpace.euclidean(spec[1])


def make_set(hm, space, spec):
    kind, data = spec
    return {"points": hm.ClosedSet.points, "intervals": hm.ClosedSet.intervals,
            "balls": hm.ClosedSet.balls}[kind](space, data)


def build(hm, inputs: Inputs):
    """Library objects for the ops; scan-act builds its sets inside the ops."""
    if inputs.workload == "scan-act":
        return None
    built = []
    spaces = {}
    for case in inputs.cases:
        spec = case["space"] if "space" in case else ("euclidean", case["dim"])
        key = repr(spec)
        if key not in spaces:
            spaces[key] = _space(hm, spec)
        space = spaces[key]
        built.append((make_set(hm, space, case["a"]), make_set(hm, space, case["b"])))
    return built


# ---------------------------------------------------------------------------
# running one op


def execute(hm, inputs: Inputs, built, op: Op):
    """Run one op and return its result, or REFUSED for a refusal.

    Any other exception propagates and counts as a failed op.
    """
    try:
        if inputs.workload == "scan-act":
            return _SCAN[op.kind](hm, inputs.cases[op.case], inputs.seed)
        A, B = built[op.case]
        if op.kind == "hausdorff":
            return hm.hausdorff(A, B)
        if op.kind == "sup_gap_on_ball":
            return hm.sup_gap_on_ball(A, B, op.arg)
        if inputs.workload == "line-exact":
            if op.kind == "aw_distance":
                return hm.aw_distance(A, B)
            return hm.aw_less_than(A, B, op.arg)
        if op.kind == "aw_distance":
            tol, cap = op.arg
            return hm.aw_distance(A, B, tol=tol, node_cap=cap)
        if op.kind == "aw_less_than_default_cap":
            return hm.aw_less_than(A, B, op.arg)
        eps, tol, cap = op.arg
        return hm.aw_less_than(A, B, eps, tol=tol, node_cap=cap)
    except (hm.Indeterminate, hm.UnsupportedPair):
        return REFUSED


def _linear_step(case, k):
    """The matrix of the k-th term of a 2-D convergence scan."""
    f = 1.0 / k if case["decay"] else 1.0
    if case["limit"][0] == "points":
        return tuple(tuple((1.0 if i == j else 0.0) + f * case["jitter"][i][j]
                           for j in range(2)) for i in range(2))
    # scaled rotation: balls stay balls
    s, t = 1.0 + f * case["jitter"][0], f * case["jitter"][1]
    c, d = s * math.cos(t), s * math.sin(t)
    return ((c, -d), (d, c))


def _run_converges_2d(hm, case, seed):
    E2 = hm.AmbientSpace.euclidean(2)
    A = make_set(hm, E2, case["limit"])
    misses = [hm.ClosedSet.balls(E2, [OBSTACLE])] if case["topology"] == "fell" else ()
    nbhds = hm.canonical_neighborhoods(A, case["topology"], 0.25, m=8,
                                       miss_compacts=misses)

    def seq(k):
        return hm.induced_image(hm.LinearMatrix(_linear_step(case, k)), A)

    return nbhds, hm.converges(seq, nbhds, horizon=SCAN_HORIZON)


def _conv1d_term(case, k):
    f = 1.0 / k
    pts = [p + f * e for p, e in zip(case["points"], case["point_noise"])]
    ivs = []
    for (lo, hi), (e1, e2) in zip(case["intervals"], case["interval_noise"]):
        a, b = lo + f * e1, hi + f * e2
        ivs.append((min(a, b), max(a, b)))
    return pts, ivs


def _run_converges_1d(hm, case, seed):
    L = hm.AmbientSpace.line()
    limit = hm.union_sets(hm.ClosedSet.points(L, case["points"]),
                          hm.ClosedSet.intervals(L, case["intervals"]))
    nbhds = hm.canonical_neighborhoods(limit, case["topology"], 0.2, m=8)

    def seq(k):
        pts, ivs = _conv1d_term(case, k)
        return hm.union_sets(hm.ClosedSet.points(L, pts), hm.ClosedSet.intervals(L, ivs))

    return nbhds, hm.converges(seq, nbhds, horizon=SCAN_HORIZON)


def _element(hm, spec):
    which, param = spec
    G = hm.GroupElement
    if which == "rotation":
        return G.rotation(param)
    if which == "translation":
        return G.translation(param)
    if which == "scaling":
        return G.scaling(param, 2)
    theta, v = param
    c, s = math.cos(theta), math.sin(theta)
    return G.isometry(((c, -s), (s, c)), v)


def _run_act(hm, case, seed):
    A = hm.ClosedSet.points(hm.AmbientSpace.euclidean(2), case["points"])
    return hm.act(_element(hm, case["element"]), A)


def _run_induced(hm, case, seed):
    A = hm.ClosedSet.points(hm.AmbientSpace.euclidean(2), case["points"])
    return hm.induced_image(hm.LinearMatrix(case["matrix"]), A)


def _run_group_distance(hm, case, seed):
    return hm.group_distance(_element(hm, ("isometry", case["g"])),
                             _element(hm, ("isometry", case["h"])))


def _run_cli(hm, case, seed):
    """The CLI in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            hm.cli.main(["--seed", str(seed), *case["argv"]], standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


_SCAN = {"converges_2d": _run_converges_2d, "converges_1d": _run_converges_1d,
         "act": _run_act, "induced_image": _run_induced,
         "group_distance": _run_group_distance, "cli": _run_cli}
