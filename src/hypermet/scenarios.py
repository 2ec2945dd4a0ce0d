"""End-to-end studies combining the metric layer, induced maps, and
group actions.

Every scenario runs a finite experiment with explicit parameters,
returns a table of measured values next to their predicted values, and
asserts the predictions.  Infinite families are represented by finite
front ends (documented per scenario in the report notes); randomness is
seeded and echoed in the report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .actions import (GroupElement, act, compose, group_distance,
                      probe_action_continuity)
from .hitmiss import canonical_neighborhoods, converges, misses
from .hypermetrics import aw_distance, excess, hausdorff, set_gap
from .induced import (ArctanOfDistance, LinearMatrix, SinReciprocal,
                      check_preimage_boundedness, induced_image,
                      uniform_continuity_witness)
from .sets import ClosedSet, truncate, union_sets
from .spaces import AmbientSpace

DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    seed: int
    params: dict
    rows: tuple            # tuple of dicts, one per table row
    assertions: tuple      # tuple of Assertion
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def __bool__(self):
        return self.passed


def _check(asserts, name, ok, detail=""):
    asserts.append(Assertion(name, bool(ok), detail))


# ---------------------------------------------------------------------------
# 1. oscillating tail: two-sided distance under an oscillating map


@dataclass(frozen=True)
class OscillatingTailConfig:
    n_points: int = 50     # finite front of the reciprocal-node family
    k_max: int = 20        # slabs adjoined between consecutive nodes


def run_oscillating_tail(cfg: OscillatingTailConfig, seed: int) -> ScenarioReport:
    X = AmbientSpace.open_interval(0.0, 1.0)
    f = SinReciprocal()
    nodes = [1.0 / (2.0 * math.pi * n) for n in range(1, cfg.n_points + 1)]
    A = ClosedSet.points(X, nodes)
    fA = induced_image(f, A)
    rows = []
    asserts = []
    for k in range(1, cfg.k_max + 1):
        slab = ClosedSet.intervals(
            X, [(1.0 / (2.0 * math.pi * (k + 1)), 1.0 / (2.0 * math.pi * k))])
        Ak = union_sets(A, slab)
        d_in = hausdorff(Ak, A)
        predicted = 1.0 / (4.0 * math.pi * k * (k + 1))
        d_out = hausdorff(induced_image(f, Ak), fA)
        rows.append({"k": k, "d_in": d_in.to_plain(), "predicted_in": predicted,
                     "d_out": d_out.to_plain(), "predicted_out": 1.0})
        _check(asserts, f"d_in matches half-gap (k={k})",
               d_in.is_exact and abs(d_in.lo - predicted) <= 1e-9,
               f"{d_in.lo} vs {predicted}")
        _check(asserts, f"d_out saturates (k={k})",
               d_out.is_exact and abs(d_out.lo - 1.0) <= 1e-9,
               f"{d_out.lo}")
    shrink = all(rows[i]["d_in"]["lo"] > rows[i + 1]["d_in"]["lo"]
                 for i in range(len(rows) - 1))
    _check(asserts, "input distances shrink with k", shrink)
    return ScenarioReport(
        "oscillating-tail", seed,
        asdict(cfg), tuple(rows), tuple(asserts),
        notes="the node family is cut off at n_points terms; adjoined slabs "
              "cover one full oscillation, so the image saturates to [-1, 1] "
              "while the sets converge (measured value 1 up to the sine "
              "rounding residue, asserted at 1e-9)")


# ---------------------------------------------------------------------------
# 2. escaping pair: windowed distance stays put while the gauge drops


@dataclass(frozen=True)
class EscapingPairConfig:
    separations: tuple = (15, 100, 1000)
    escape_target: tuple = (0.0, 1.6)
    radii: tuple = (10.0, 100.0, 1000.0)


def run_escaping_pair(cfg: EscapingPairConfig, seed: int) -> ScenarioReport:
    X = AmbientSpace.line()
    f = ArctanOfDistance(X, anchor=0.0)
    A = ClosedSet.points(X, [0.0])
    fA = induced_image(f, A)
    rows = []
    asserts = []
    for n in cfg.separations:
        B = ClosedSet.points(X, [0.0, float(n)])
        d_in = aw_distance(A, B)
        d_out = aw_distance(fA, induced_image(f, B))
        rows.append({"n": n, "d_in": d_in.to_plain(), "bound_in": 2.0 / n,
                     "d_out": d_out.to_plain(), "predicted_out": 0.5})
        _check(asserts, f"windowed distance within 2/n (n={n})",
               d_in.is_exact and d_in.lo <= 2.0 / n,
               f"{d_in.lo} vs {2.0 / n}")
        _check(asserts, f"image distance locks at 1/2 (n={n})",
               d_out.is_exact and d_out.lo == 0.5, f"{d_out.lo}")
    target = ClosedSet.intervals(X, list([cfg.escape_target]))
    pre = check_preimage_boundedness(f, target, radii=cfg.radii)
    rows.append({"n": "preimage", "verdict": pre.verdict,
                 "witnesses": list(pre.witnesses), "note": pre.note})
    _check(asserts, "bounded target pulls back unbounded",
           pre.verdict == "escape-evidence" and len(pre.witnesses) == len(cfg.radii),
           pre.verdict)
    _check(asserts, "escape witnesses land in the target",
           all(abs(f.apply(w)) <= cfg.escape_target[1] for w in pre.witnesses))
    return ScenarioReport(
        "escaping-pair", seed, asdict(cfg), tuple(rows), tuple(asserts),
        notes="the second point escapes to infinity: the windowed distance "
              "of the originals decays like 2/n while the image distance "
              "freezes at exactly 1/2, and the preimage check certifies the "
              "escape with explicit witnesses")


# ---------------------------------------------------------------------------
# 3. tilted ray: infinite excess, proportional truncations


@dataclass(frozen=True)
class TiltedRayConfig:
    angles: tuple = (0.01, 0.1, 1.0)
    radii: tuple = (10.0, 100.0, 1000.0)


def run_tilted_ray(cfg: TiltedRayConfig, seed: int) -> ScenarioReport:
    E2 = AmbientSpace.euclidean(2)
    base = ClosedSet.ray(E2, (0.0, 0.0), (1.0, 0.0))
    rows = []
    asserts = []
    for theta in cfg.angles:
        tilted = ClosedSet.ray(E2, (0.0, 0.0), (math.cos(theta), math.sin(theta)))
        e = excess(tilted, base)
        rows.append({"theta": theta, "R": "inf", "excess": e.to_plain()})
        _check(asserts, f"tilted excess is infinite (theta={theta})",
               e.is_infinite, e.method)
        for R in cfg.radii:
            seg_base = truncate(base, R)
            seg_tilt = truncate(tilted, R)
            d = hausdorff(seg_tilt, seg_base)
            predicted = R * math.sin(theta)
            rows.append({"theta": theta, "R": R, "d_trunc": d.to_plain(),
                         "predicted": predicted})
            _check(asserts, f"truncated distance R*sin(theta) (theta={theta}, R={R})",
                   abs(d.lo - predicted) <= 1e-6 * R
                   and abs(d.hi - predicted) <= 1e-6 * R,
                   f"{d.lo} vs {predicted}")
    return ScenarioReport(
        "tilted-ray", seed, asdict(cfg), tuple(rows), tuple(asserts),
        notes="any tilt makes the one-sided excess between the rays infinite, "
              "yet every truncation to a bounded window measures the tilt "
              "proportionally — the instability is purely a tail effect")


# ---------------------------------------------------------------------------
# 4. windowed-metric action probe: translations act continuously


@dataclass(frozen=True)
class WindowedActionConfig:
    deltas: tuple = (0.5, 0.05, 0.005)
    eps: float = 0.1
    tol: float = 0.02
    node_cap: int = 200_000
    delta_schedule: tuple = (1.0, 0.1, 0.01)


def run_windowed_action(cfg: WindowedActionConfig, seed: int) -> ScenarioReport:
    E2 = AmbientSpace.euclidean(2)
    ident = GroupElement.identity(2)
    A = ClosedSet.balls(E2, [((0.0, 0.0), 1.0)])
    perturbations = []
    for d in cfg.deltas:
        h = GroupElement.translation((d, 0.0))
        B = ClosedSet.balls(E2, [((0.0, d), 1.0)])
        perturbations.append((h, B))
    report = probe_action_continuity(
        ident, A, "AW", perturbations, delta_schedule=cfg.delta_schedule,
        eps=cfg.eps, tol=cfg.tol, node_cap=cfg.node_cap)
    rows = []
    asserts = []
    for d, row in zip(cfg.deltas, report.rows):
        rows.append({"delta": d, "d_group": row.d_group.to_plain(),
                     "d_set": row.d_set.to_plain(), "d_out": row.d_out.to_plain()})
        _check(asserts, f"group shift measured exactly (delta={d})",
               row.d_group.is_exact and row.d_group.lo == d, f"{row.d_group.lo}")
        _check(asserts, f"output stays within input reach (delta={d})",
               row.d_out.hi <= 2 * d + cfg.tol + 1e-9,
               f"{row.d_out.hi} vs {2 * d}")
    _check(asserts, "no joint-continuity violation", not report.violation)
    return ScenarioReport(
        "windowed-action", seed, asdict(cfg), tuple(rows), tuple(asserts),
        notes="single-ball sets keep the two-sided gauge available as an "
              "upper bound, so the windowed certificates stay cheap; output "
              "distances are certified intervals of width up to tol")


# ---------------------------------------------------------------------------
# 5. rigid-motion action: exact triangle transfer on a random corpus


@dataclass(frozen=True)
class RigidCorpusConfig:
    instances: int = 100
    points_low: int = 3
    points_high: int = 8
    coord_range: int = 9     # integer coordinates in [-range, range]
    angle_pool: tuple = (0.0, 0.25, 0.5, 1.0)
    shift: float = 0.125     # exact binary fraction keeps arithmetic clean
    eps: float = 0.05
    delta_schedule: tuple = (1.0, 0.1, 0.01)


def run_rigid_corpus(cfg: RigidCorpusConfig, seed: int) -> ScenarioReport:
    E2 = AmbientSpace.euclidean(2)
    rng = np.random.RandomState(seed)
    rows = []
    asserts = []
    worst_slack = 0.0
    violations = 0
    for i in range(cfg.instances):
        npts = int(rng.randint(cfg.points_low, cfg.points_high + 1))
        pts = [(float(x), float(y))
               for x, y in rng.randint(-cfg.coord_range, cfg.coord_range + 1,
                                       size=(npts, 2))]
        A = ClosedSet.points(E2, pts)
        theta = float(cfg.angle_pool[rng.randint(len(cfg.angle_pool))])
        g = compose(GroupElement.translation((1.0, -2.0)),
                    GroupElement.rotation(theta))
        h = compose(GroupElement.translation((1.0 + cfg.shift, -2.0)),
                    GroupElement.rotation(theta))
        jitter = [(px + cfg.shift, py) for px, py in pts]
        B = ClosedSet.points(E2, jitter)
        d_group = group_distance(g, h)
        d_set = hausdorff(A, B)
        d_out = hausdorff(act(g, A), act(h, B))
        bound = d_group.hi + d_set.hi
        slack = d_out.hi - bound
        worst_slack = max(worst_slack, slack)
        if slack > 1e-9:
            violations += 1
        if i < 5:
            rows.append({"instance": i, "theta": theta,
                         "d_group": d_group.to_plain(), "d_set": d_set.to_plain(),
                         "d_out": d_out.to_plain(), "bound": bound})
    rows.append({"instance": "summary", "checked": cfg.instances,
                 "violations": violations, "worst_slack": worst_slack})
    _check(asserts, "triangle transfer holds across the corpus",
           violations == 0, f"worst slack {worst_slack}")
    probe_perts = [(compose(GroupElement.translation((10.0 ** -k, 0.0)),
                            GroupElement.rotation(0.0)),
                    ClosedSet.points(E2, [(0.0, 0.0), (3.0, 4.0)]))
                   for k in range(1, 6)]
    probe = probe_action_continuity(
        GroupElement.identity(2), ClosedSet.points(E2, [(0.0, 0.0), (3.0, 4.0)]),
        "H", probe_perts, delta_schedule=cfg.delta_schedule, eps=cfg.eps)
    _check(asserts, "no violation in the rigid probe", not probe.violation)
    return ScenarioReport(
        "rigid-corpus", seed, asdict(cfg), tuple(rows), tuple(asserts),
        notes="rigid motions preserve the two-sided gauge, so the output "
              "distance obeys d(gA, hB) <= d_group + d_set; integer "
              "coordinates and binary-fraction shifts keep every quantity "
              "exactly representable (first five instances tabulated)")


# ---------------------------------------------------------------------------
# 6. moving-point witness: set distances shrink, image distances do not


@dataclass(frozen=True)
class MovingWitnessConfig:
    family_size: int = 50
    probes: tuple = (1, 5, 10, 25, 50)


def run_moving_witness(cfg: MovingWitnessConfig, seed: int) -> ScenarioReport:
    f = SinReciprocal()
    pairs = [(1.0 / (2.0 * math.pi * n), 1.0 / (2.0 * math.pi * n + math.pi / 2.0))
             for n in range(1, cfg.family_size + 1)]
    rows = []
    asserts = []
    prev = math.inf
    for m in cfg.probes:
        rec = uniform_continuity_witness(f, pairs, m)
        rows.append({"m": m, "pair_distance": rec.pair_distance,
                     "set_distance": rec.set_distance.to_plain(),
                     "image_distance": rec.image_distance.to_plain(),
                     "bound_ok": rec.bound_ok, "separated": rec.separated})
        _check(asserts, f"set distance below the pair distance (m={m})",
               rec.bound_ok,
               f"{rec.set_distance!r} vs {rec.pair_distance}")
        _check(asserts, f"image distance pinned at 1 (m={m})",
               abs(rec.image_distance.lo - 1.0) <= 1e-9
               and abs(rec.image_distance.hi - 1.0) <= 1e-9,
               f"{rec.image_distance!r}")
        _check(asserts, f"witness separates (m={m})", rec.separated)
        _check(asserts, f"pair distances decrease (m={m})",
               rec.pair_distance < prev)
        prev = rec.pair_distance
    return ScenarioReport(
        "moving-witness", seed, asdict(cfg), tuple(rows), tuple(asserts),
        notes="swapping the m-th family member for its close partner moves "
              "the set by at most the pair distance but swings the image by "
              "a full unit: the family certifies that no uniform modulus "
              "exists for the oscillating map")


# ---------------------------------------------------------------------------
# 7. proper-miss stability: linear images keep missing a compact under jitter


@dataclass(frozen=True)
class ProperMissConfig:
    matrix: tuple = ((2.0, 1.0), (0.0, 1.0))
    base_points: tuple = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (-1.0, 2.0))
    obstacle_center: tuple = (10.0, 10.0)
    obstacle_radius: float = 1.0
    hit_scale: float = 0.5
    horizon: int = 200


def run_proper_miss(cfg: ProperMissConfig, seed: int) -> ScenarioReport:
    E2 = AmbientSpace.euclidean(2)
    f = LinearMatrix(cfg.matrix)
    A = ClosedSet.points(E2, list(cfg.base_points))
    fA = induced_image(f, A)
    K = ClosedSet.balls(E2, [(cfg.obstacle_center, cfg.obstacle_radius)])
    gamma = set_gap(fA, K)
    smax = f.sigma_max()
    rho = min(0.1, gamma / (4.0 * smax))
    rng = np.random.RandomState(seed)
    dirs = rng.standard_normal((cfg.horizon + 1, len(cfg.base_points), 2))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)

    def seq(k: int) -> ClosedSet:
        step = rho / k
        pts = [(px + step * float(d[0]), py + step * float(d[1]))
               for (px, py), d in zip(cfg.base_points, dirs[k])]
        return induced_image(f, ClosedSet.points(E2, pts))

    nbhds = canonical_neighborhoods(fA, "fell", r=cfg.hit_scale, m=8,
                                    miss_compacts=(K,))
    conv = converges(seq, nbhds, horizon=cfg.horizon)
    rows = []
    asserts = []
    _check(asserts, "obstacle gap is comfortable", gamma >= 0.5, f"gamma={gamma}")
    for k in (1, 2, 5, 10, cfg.horizon):
        img = seq(k)
        g = set_gap(img, K)
        rows.append({"k": k, "gap": g, "floor": gamma - smax * rho / k,
                     "misses": misses(img, K)})
        _check(asserts, f"jittered image still misses (k={k})",
               g >= gamma - smax * rho / k - 1e-9 and g > 0.0, f"gap={g}")
    for entry in conv.entries:
        rows.append({"constraint": entry.label, "passed": entry.passed,
                     "settles_at": entry.settles_at, "witness": entry.witness})
        _check(asserts, f"constraint settles immediately ({entry.label[:40]})",
               entry.passed and entry.settles_at == 1,
               f"settles_at={entry.settles_at}")
    _check(asserts, "convergence verdict", conv.passed)
    return ScenarioReport(
        "proper-miss", seed, asdict(cfg), tuple(rows), tuple(asserts),
        notes="the jitter budget rho = min(0.1, gamma/(4 sigma_max)) keeps "
              "every perturbed image at gap >= gamma - sigma_max*rho > 0 from "
              "the obstacle, so the miss constraint and the hit constraints "
              "of the limit all settle at the first index")


# ---------------------------------------------------------------------------
# registry


_REGISTRY: dict = {
    "oscillating-tail": (OscillatingTailConfig, run_oscillating_tail),
    "escaping-pair": (EscapingPairConfig, run_escaping_pair),
    "tilted-ray": (TiltedRayConfig, run_tilted_ray),
    "windowed-action": (WindowedActionConfig, run_windowed_action),
    "rigid-corpus": (RigidCorpusConfig, run_rigid_corpus),
    "moving-witness": (MovingWitnessConfig, run_moving_witness),
    "proper-miss": (ProperMissConfig, run_proper_miss),
}


def available() -> list:
    return sorted(_REGISTRY)


# overrides that divide or count: each (or each of its items) is >= 1
_COUNTS = {"n_points", "k_max", "separations", "instances", "points_low", "points_high",
           "family_size", "probes", "horizon"}


def run(name: str, seed: int = DEFAULT_SEED, **overrides) -> ScenarioReport:
    try:
        cfg_cls, runner = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; pick one of {available()}")
    cfg = cfg_cls()
    fields = asdict(cfg)
    for key, value in overrides.items():
        if key not in fields:
            raise ValueError(f"{name} has no parameter {key!r}; it has {sorted(fields)}")
        if not _fits(value, fields[key]):
            raise ValueError(f"{name}: {key} takes values like {fields[key]!r}, got {value!r}")
        items = value if isinstance(value, (tuple, list)) else (value,)
        if key in _COUNTS and any(v < 1 for v in items):
            raise ValueError(f"{name}: {key} must be at least 1, got {value!r}")
    return runner(replace(cfg, **overrides), int(seed))


def _fits(value, default) -> bool:
    """An int for an int field, an int or float for a float one, and for
    a tuple a tuple or list whose items fit the default's first item."""
    if isinstance(default, tuple):
        return isinstance(value, (tuple, list)) and all(_fits(v, default[0]) for v in value)
    return type(value) is int or (type(value) is float and isinstance(default, float))
