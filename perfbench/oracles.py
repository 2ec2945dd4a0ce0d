"""Independent checks of every op's answer, run outside the timed region.

The checks never call back into the library's geometry: distances come
from numpy over the raw coordinates, and exact Hausdorff values from
``fractions.Fraction`` with nearest neighbours found by sorting.

* hausdorff -- a float-level brute force that must match bit for bit on
  point sets, and the exact value, which must lie in ``[lo, hi]``.  An
  answer far from the exact value fails; an "exact" answer that misses
  the exact value by rounding only counts as unsound.
* sup_gap_on_ball, aw_distance -- a sampled bracket of the gap function,
  which is 2-Lipschitz: the sampled lower bound must be <= ``hi`` and
  ``lo`` must be <= the sampled upper bound and the Hausdorff bound.
* aw_less_than -- the verdict must agree with both ends of the
  aw_distance certificate of the same pair and of the sampled bracket.
* act, induced_image, group_distance, converges -- recomputed with numpy.
* the CLI -- valid JSON, exit code 0, "scenario passed", and the
  distance literals checked as above.  An aw-lt literal may instead
  refuse (exit code 1, "indeterminate") when the gap of the window that
  decides eps is within the certificate tolerance of eps.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from workloads import REFUSED, SCAN_HORIZON, _conv1d_term, _linear_step

TOL = 1e-9
LINE_WINDOWS = 48        # windows sampled by the aw bracket on the line
LINE_SAMPLES = 2001      # samples per line window
SUP_SAMPLES = 20001      # samples of the sup_gap window
PLANE_WINDOWS = 8
PLANE_SPACING = {2: 0.04, 3: 0.25}


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    sound: Optional[bool] = None   # exact value inside [lo, hi]; None if not checked
    width: Optional[float] = None  # width of a non-exact certificate
    refused: bool = False          # a justified refusal the library reported itself


def _hi(cv) -> float:
    return cv.hi.as_float()


# ---------------------------------------------------------------------------
# the line and finite spaces


def _merge(ivs):
    out = []
    for lo, hi in sorted(ivs):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


class LineSet:
    """A point set or interval union on the line, as sorted disjoint pieces."""

    def __init__(self, spec):
        kind, data = spec
        ivs = [(v, v) for v in data] if kind == "points" else data
        merged = _merge(ivs)
        self.los = np.array([a for a, _ in merged])
        self.his = np.array([b for _, b in merged])
        self.flos = [Fraction(a) for a, _ in merged]
        self.fhis = [Fraction(b) for _, b in merged]

    def dist(self, xs):
        """Float distances from each x to the set."""
        xs = np.asarray(xs, dtype=float)
        i = np.searchsorted(self.los, xs, side="right") - 1
        left = np.where(i >= 0, np.maximum(xs - self.his[np.maximum(i, 0)], 0.0), np.inf)
        j = np.minimum(i + 1, len(self.los) - 1)
        right = np.where(i + 1 < len(self.los), self.los[j] - xs, np.inf)
        return np.minimum(left, right)

    def fdist(self, x: Fraction) -> Fraction:
        i = bisect.bisect_right(self.flos, x) - 1
        best = None
        if i >= 0:
            best = max(x - self.fhis[i], Fraction(0))
        if i + 1 < len(self.flos):
            d = self.flos[i + 1] - x
            best = d if best is None else min(best, d)
        return best

    def contains(self, x: Fraction) -> bool:
        i = bisect.bisect_right(self.flos, x) - 1
        return i >= 0 and x <= self.fhis[i]


def exact_excess_line(A: LineSet, B: LineSet) -> Fraction:
    """sup over a in A of d(a, B), exactly: the sup sits at an endpoint
    of A or at the midpoint of a gap of B that lies in A."""
    cands = A.flos + A.fhis
    cands += [(h + l) / 2 for h, l in zip(B.fhis, B.flos[1:])]
    return max(B.fdist(c) for c in cands if A.contains(c))


def float_excess_points(A: LineSet, B: LineSet) -> float:
    """Float-level excess of a point set: each point's float distance to
    its two neighbours in B, which is what a brute force over B gives."""
    return float(B.dist(A.los).max())


def _window_samples(space, j, n):
    lo, hi = -j, j
    if space[0] == "open":
        lo, hi = max(lo, space[1]), min(hi, space[2])
    return np.linspace(lo, hi, n), (hi - lo) / (n - 1)


def line_sup_bracket(space, A, B, radius, n=SUP_SAMPLES):
    xs, step = _window_samples(space, radius, n)
    m = float(np.abs(A.dist(xs) - B.dist(xs)).max())
    return m, m + step


def line_aw_bracket(space, A, B):
    lo = hi = 0.0
    for j in range(1, LINE_WINDOWS + 1):
        m, m_hi = line_sup_bracket(space, A, B, float(j), LINE_SAMPLES)
        lo = max(lo, min(1.0 / j, m))
        hi = max(hi, min(1.0 / j, m_hi))
    return lo, max(hi, 1.0 / (LINE_WINDOWS + 1))


class FiniteCase:
    def __init__(self, matrix, a, b):
        M = np.array(matrix)
        self.M, self.a, self.b = M, a, b
        self.gap = np.abs(M[:, a].min(axis=1) - M[:, b].min(axis=1))
        self.r0 = M[0]

    def excess(self, src, dst) -> float:
        return float(self.M[np.ix_(src, dst)].min(axis=1).max())

    def sup_gap(self, radius) -> float:
        inside = self.r0 < radius
        return float(self.gap[inside].max()) if inside.any() else 0.0

    def aw(self) -> float:
        best = 0.0
        for j in range(1, int(math.floor(self.r0.max())) + 2):
            best = max(best, min(1.0 / j, self.sup_gap(float(j))))
        return best


# ---------------------------------------------------------------------------
# R^n


class PlaneSet:
    def __init__(self, spec):
        kind, data = spec
        if kind == "points":
            self.centers, self.radii = np.array(data), np.zeros(len(data))
        else:
            self.centers = np.array([c for c, _ in data])
            self.radii = np.array([r for _, r in data])

    def dist(self, X):
        best = np.full(len(X), np.inf)
        for c, r in zip(self.centers, self.radii):
            best = np.minimum(best, np.maximum(np.linalg.norm(X - c, axis=1) - r, 0.0))
        return best


def plane_hausdorff_bound(A: PlaneSet, B: PlaneSet) -> float:
    """Upper bound on the Hausdorff distance of two ball unions (points
    are balls of radius 0): each ball's excess into its best single
    target ball, (|c - c'| + r - r')^+ ."""
    def one_side(S, T):
        d = np.linalg.norm(S.centers[:, None, :] - T.centers[None, :, :], axis=2)
        e = np.maximum(d + S.radii[:, None] - T.radii[None, :], 0.0)
        return float(e.min(axis=1).max())
    return max(one_side(A, B), one_side(B, A))


def plane_gap_brackets(dim, A: PlaneSet, B: PlaneSet):
    """Sampled (lo, hi) of the sup gap on the ball of radius j, for
    j = 1 .. PLANE_WINDOWS; the gap is 2-Lipschitz."""
    s = PLANE_SPACING[dim]
    h = s * math.sqrt(dim) / 2.0
    reach = PLANE_WINDOWS + h
    axis = np.arange(-reach, reach + s, s)
    grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    rad = np.linalg.norm(grid, axis=1)
    gap = np.abs(A.dist(grid) - B.dist(grid))
    out = []
    for j in range(1, PLANE_WINDOWS + 1):
        inside = gap[rad < j]
        out.append((float(inside.max()) if inside.size else 0.0,
                    float(gap[rad <= j + h].max()) + 2.0 * h))
    return out


def plane_aw_bracket(dim, A: PlaneSet, B: PlaneSet):
    lo = hi = 0.0
    for j, (g_lo, g_hi) in enumerate(plane_gap_brackets(dim, A, B), start=1):
        lo = max(lo, min(1.0 / j, g_lo))
        hi = max(hi, min(1.0 / j, g_hi))
    return lo, max(hi, 1.0 / (PLANE_WINDOWS + 1))


# ---------------------------------------------------------------------------
# the checker


def _bracket_verdict(cv, brute_lo, brute_hi, upper, scale=1.0):
    tol = TOL * max(1.0, scale)
    width = None if cv.is_exact else _hi(cv) - cv.lo
    if brute_lo > _hi(cv) + tol:
        return Verdict(False, f"sampled lower bound {brute_lo} above hi {_hi(cv)}", width=width)
    if cv.lo > min(brute_hi, upper) + tol:
        return Verdict(False, f"lo {cv.lo} above upper bound {min(brute_hi, upper)}",
                       width=width)
    return Verdict(True, width=width)


def _verdict_consistent(verdict, eps, bounds):
    """bounds: (lo, hi) pairs that each contain the windowed distance."""
    for lo, hi in bounds:
        if verdict and lo >= eps + TOL:
            return Verdict(False, f"verdict True but lower bound {lo} >= eps {eps}")
        if not verdict and hi < eps - TOL:
            return Verdict(False, f"verdict False but upper bound {hi} < eps {eps}")
    return Verdict(True)


def _aw_bounds(lo, hi, results, case):
    """The sampled bracket, plus the aw_distance certificate of the same
    pair when that op gave one."""
    bounds = [(lo, hi)]
    aw = results.get(("aw_distance", case))
    if hasattr(aw, "lo"):
        bounds.append((aw.lo, _hi(aw)))
    return bounds


class Checker:
    """Checks the answers of one pass; caches per-case oracle data."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def check(self, op, result, results) -> Verdict:
        """results maps (kind, case) to the answers of the same pass."""
        if result is REFUSED:
            return Verdict(True)
        wl = self.inputs.workload
        if wl == "line-exact":
            return self._check_line(op, result, results)
        if wl == "plane-certified":
            return self._check_plane(op, result, results)
        return getattr(self, "_check_" + op.kind)(self.inputs.cases[op.case], result)

    # -- line-exact ---------------------------------------------------

    def _line(self, c):
        case = self.inputs.cases[c]
        if case["space"][0] == "finite":
            return self._memo(("finite", c), lambda: FiniteCase(
                case["space"][1], case["a"][1], case["b"][1]))
        return self._memo(("line", c), lambda: (LineSet(case["a"]), LineSet(case["b"])))

    def _exact_hausdorff(self, c):
        def compute():
            case = self.inputs.cases[c]
            if case["space"][0] == "finite":
                f = self._line(c)
                return Fraction(max(f.excess(f.a, f.b), f.excess(f.b, f.a)))
            A, B = self._line(c)
            return max(exact_excess_line(A, B), exact_excess_line(B, A))
        return self._memo(("H", c), compute)

    def _line_aw(self, c):
        case = self.inputs.cases[c]
        if case["space"][0] == "finite":
            v = self._line(c).aw()
            return v, v
        A, B = self._line(c)
        return self._memo(("aw", c), lambda: line_aw_bracket(case["space"], A, B))

    def _check_line(self, op, cv, results):
        case = self.inputs.cases[op.case]
        finite = case["space"][0] == "finite"
        exact_h = self._exact_hausdorff(op.case)
        if op.kind == "hausdorff":
            sound = Fraction(cv.lo) <= exact_h <= Fraction(_hi(cv))
            scale = 1.0 if finite else max(1.0, float(max(
                np.abs(np.concatenate([s.los for s in self._line(op.case)])))))
            if abs(cv.lo - float(exact_h)) > 1e-12 * scale or not cv.is_exact:
                return Verdict(False, f"{cv} vs exact {float(exact_h)}", sound)
            if not finite and case["a"][0] == "points":
                A, B = self._line(op.case)
                brute = max(float_excess_points(A, B), float_excess_points(B, A))
                if not cv.lo == _hi(cv) == brute:
                    return Verdict(False, f"{cv} vs float brute force {brute}", sound)
            if finite and float(exact_h) != cv.lo:
                return Verdict(False, f"{cv} vs brute force {float(exact_h)}", sound)
            return Verdict(True, sound=sound)
        if op.kind == "sup_gap_on_ball":
            if finite:
                v = self._line(op.case).sup_gap(op.arg)
                lo = hi = v
            else:
                A, B = self._line(op.case)
                lo, hi = line_sup_bracket(case["space"], A, B, op.arg)
            return _bracket_verdict(cv, lo, hi, math.inf, scale=op.arg)
        lo, hi = self._line_aw(op.case)
        if op.kind == "aw_distance":
            return _bracket_verdict(cv, lo, hi, float(exact_h))
        return _verdict_consistent(cv, op.arg, _aw_bounds(lo, hi, results, op.case))

    # -- plane-certified ----------------------------------------------

    def _plane(self, c):
        case = self.inputs.cases[c]

        def compute():
            A, B = PlaneSet(case["a"]), PlaneSet(case["b"])
            lo, hi = plane_aw_bracket(case["dim"], A, B)
            return lo, hi, plane_hausdorff_bound(A, B)
        return self._memo(("plane", c), compute)

    def _check_plane(self, op, result, results):
        lo, hi, h_ub = self._plane(op.case)
        if op.kind == "aw_distance":
            if _hi(result) > 1.0:
                return Verdict(False, f"{result} above 1")
            return _bracket_verdict(result, lo, hi, h_ub)
        eps = op.arg if op.kind == "aw_less_than_default_cap" else op.arg[0]
        return _verdict_consistent(result, eps, _aw_bounds(lo, hi, results, op.case))

    # -- scan-act -----------------------------------------------------

    @staticmethod
    def _same_points(got, want):
        got = np.array(sorted(got))
        want = want[np.lexsort(want.T[::-1])]
        if got.shape != want.shape:
            return Verdict(False, f"{len(got)} points, expected {len(want)}")
        err = float(np.abs(got - want).max())
        if err > TOL * (1.0 + float(np.abs(want).max())):
            return Verdict(False, f"image off by {err}")
        return Verdict(True)

    def _check_act(self, case, result):
        which, param = case["element"]
        P = np.array(case["points"])
        if which == "rotation":
            theta, v = param, (0.0, 0.0)
        elif which == "translation":
            theta, v = 0.0, param
        elif which == "scaling":
            return self._same_points(result.rep.points, P * param)
        else:
            theta, v = param
        c, s = math.cos(theta), math.sin(theta)
        return self._same_points(result.rep.points,
                                 P @ np.array([[c, -s], [s, c]]).T + np.array(v))

    def _check_induced_image(self, case, result):
        P = np.array(case["points"])
        return self._same_points(result.rep.points, P @ np.array(case["matrix"]).T)

    def _check_group_distance(self, case, cv):
        (tg, vg), (th, vh) = case["g"], case["h"]
        # R(a) - R(b) is 2|sin((a-b)/2)| times a rotation, so on the
        # radius-10 ball the sup of |Dx + c| is 10 * that + |c|
        exact = 10.0 * 2.0 * abs(math.sin((tg - th) / 2.0)) + math.dist(vg, vh)
        if not cv.lo - TOL <= exact <= _hi(cv) + TOL:
            return Verdict(False, f"{cv} misses {exact}")
        return Verdict(True, width=None if cv.is_exact else _hi(cv) - cv.lo)

    def _check_converges_2d(self, case, result):
        nbhds, report = result
        limit = case["limit"]

        def term(k):
            M = np.array(_linear_step(case, k))
            if limit[0] == "points":
                return np.array(limit[1]) @ M.T, None
            centers = np.array([c for c, _ in limit[1]]) @ M.T
            scale = math.sqrt(float(np.mean(np.diag(M.T @ M))))
            return centers, np.array([r for _, r in limit[1]]) * scale

        def margin(con, pts, radii):
            """> 0 when the term satisfies the constraint, < 0 when not."""
            rr = np.zeros(len(pts)) if radii is None else radii
            if con.tag == "miss":
                (cK, rK), = con.obstacle.rep.balls
                return float((np.linalg.norm(pts - cK, axis=1) - rr).min()) - rK
            balls = con.open_set.balls
            if con.tag == "hit":
                return max(r - float(np.maximum(np.linalg.norm(pts - c, axis=1) - rr, 0).min())
                           for c, r in balls)
            each = [max(r - float(np.linalg.norm(p - np.array(c))) - q for c, r in balls)
                    for p, q in zip(pts, rr)]
            return min(each)

        return self._compare_scan(nbhds, report, lambda k: term(k), margin)

    def _check_converges_1d(self, case, result):
        nbhds, report = result

        def term(k):
            pts, ivs = _conv1d_term(case, k)
            return LineSet(("intervals", [(p, p) for p in pts] + ivs)), None

        def margin(con, S, _):
            balls = con.open_set.balls
            if con.tag == "hit":
                return max(r - float(S.dist([c])[0]) for c, r in balls)
            cover = []   # connected components of the union of open intervals
            for a, b in sorted((c - r, c + r) for c, r in balls):
                if cover and a < cover[-1][1]:
                    cover[-1][1] = max(cover[-1][1], b)
                else:
                    cover.append([a, b])
            return min(max(min(lo - a, b - hi) for a, b in cover)
                       for lo, hi in zip(S.los, S.his))

        return self._compare_scan(nbhds, report, term, margin)

    @staticmethod
    def _compare_scan(nbhds, report, term, margin):
        n = len(nbhds)
        first, last, unclear = [None] * n, [None] * n, [False] * n
        for k in range(1, SCAN_HORIZON + 1):
            pts, radii = term(k)
            for i, con in enumerate(nbhds):
                m = margin(con, pts, radii)
                if abs(m) < TOL:
                    unclear[i] = True
                elif m < 0:
                    last[i] = k
                    first[i] = first[i] or k
        if len(report.entries) != n:
            return Verdict(False, "one report entry per constraint expected")
        for i, e in enumerate(report.entries):
            if unclear[i]:
                continue
            if last[i] is None:
                want = (True, 1, None)
            elif last[i] < SCAN_HORIZON:
                want = (True, last[i] + 1, first[i])
            else:
                want = (False, None, first[i])
            if (e.passed, e.settles_at, e.witness) != want:
                return Verdict(False, f"constraint {i}: {e} expected {want}")
        if report.passed != all(e.passed for e in report.entries):
            return Verdict(False, "overall verdict disagrees with its entries")
        return Verdict(True)

    def _check_cli(self, case, result):
        code, text = result
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return Verdict(False, f"output is not JSON: {exc}")
        values = {r["name"]: r["value"] for r in doc["results"]}
        if code not in (0, None):
            if case["argv"][0] == "aw-lt" and code == 1 and \
                    list(values.values()) == ["indeterminate"]:
                return self._check_cli_refusal(case)
            return Verdict(False, f"exit code {code}")
        if case["argv"][0] == "scenario":
            ok = values.get("scenario passed") is True
            return Verdict(ok, "" if ok else "scenario did not pass")
        (value,) = values.values()
        check = case["check"]
        if case["dim"] == 1:
            A, B = LineSet(case["a"]), LineSet(case["b"])
            lo, hi = line_aw_bracket(("line",), A, B)
            if check in ("H", "H-"):
                exact = exact_excess_line(A, B)
                brute = float_excess_points(A, B)
                if check == "H":
                    exact = max(exact, exact_excess_line(B, A))
                    brute = max(brute, float_excess_points(B, A))
                sound = Fraction(value["lo"]) <= exact <= Fraction(value["hi"])
                ok = value["lo"] == value["hi"] == brute
                return Verdict(ok, "" if ok else f"{value} vs brute force {brute}", sound)
        else:
            lo, hi = plane_aw_bracket(2, PlaneSet(case["a"]), PlaneSet(case["b"]))
        if isinstance(check, float):
            return _verdict_consistent(value, check, [(lo, hi)])
        cv_lo, cv_hi = value["lo"], value["hi"]
        width = cv_hi - cv_lo if cv_hi != cv_lo else None
        if lo > cv_hi + TOL or cv_lo > hi + TOL:
            return Verdict(False, f"{value} outside bracket [{lo}, {hi}]", width=width)
        return Verdict(True, width=width)

    @staticmethod
    def _check_cli_refusal(case):
        """aw-lt may refuse only when the gap of the window that decides
        eps lies within the certificate tolerance of eps."""
        argv, eps = case["argv"], case["check"]
        if case["dim"] == 1 or "--tol" not in argv:
            return Verdict(False, "refusal on an exact path")
        tol = min(float(argv[argv.index("--tol") + 1]), eps / 4.0)
        j = math.floor(1.0 / eps)   # 1/(j+1) < eps <= 1/j
        g_lo, g_hi = plane_gap_brackets(2, PlaneSet(case["a"]), PlaneSet(case["b"]))[j - 1]
        ok = g_lo <= eps + tol + TOL and g_hi >= eps - tol - TOL
        return Verdict(ok, "" if ok else
                       f"refused, but window-{j} gap [{g_lo}, {g_hi}] is clear of "
                       f"eps {eps} +- {tol}", refused=ok)
