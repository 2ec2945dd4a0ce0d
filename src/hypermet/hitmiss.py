"""Hit-and-miss neighborhood predicates and horizon-bounded
convergence reports.

An OpenSetRep is either a finite union of open balls or the complement
of a compact obstacle.  Neighborhood constraints come in three shapes:

  * hit(U)     -- the set meets U
  * contain(U) -- the set lies inside U
  * miss(K)    -- the set is disjoint from the compact K

All predicates are decision procedures on the exact representations
(sampled clouds decide only when the margin beats their resolution,
otherwise UnsupportedPair).  A convergence pass over a finite horizon
is evidence; a failure carries a witness index and is a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AmbientMismatch, GeneratorFault, UnsupportedPair
from .hypermetrics import set_gap
from .sets import (BallUnion, ClosedSet, _coord, _dists, _dists_each, _far_from_point,
                   _rows_per_chunk, is_bounded, is_subset, representative_points)
from .spaces import EUCLIDEAN, FINITE, AmbientSpace

Ball = tuple  # (center, radius)


def _check_balls(space: AmbientSpace, balls):
    out = []
    for c, r in balls:
        r = float(r)
        if not 0.0 < r < math.inf:
            raise ValueError("open balls need a finite positive radius")
        out.append((space.canon_point(c), r))
    if not out:
        raise ValueError("an open set needs at least one ball")
    return tuple(out)


@dataclass(frozen=True)
class OpenSetRep:
    """A finite union of open balls, or the complement of a compact."""

    space: AmbientSpace
    balls: Optional[tuple[Ball, ...]] = None
    complement_of: Optional[ClosedSet] = None

    @staticmethod
    def ball_union(space: AmbientSpace, balls) -> "OpenSetRep":
        return OpenSetRep(space, balls=_check_balls(space, balls))

    @staticmethod
    def complement(K: ClosedSet) -> "OpenSetRep":
        if not is_bounded(K):
            raise ValueError("only complements of compact (bounded closed) sets")
        return OpenSetRep(K.space, complement_of=K)

    def __post_init__(self):
        if (self.balls is None) == (self.complement_of is None):
            raise ValueError("exactly one of balls / complement_of")

    def describe(self) -> str:
        if self.balls is not None:
            return "union(" + ", ".join(f"ball({c}, {r})" for c, r in self.balls) + ")"
        return f"complement({self.complement_of.rep})"


def hits(A: ClosedSet, U: OpenSetRep) -> bool:
    """A meets the open set U.

    For a ball union, one batched query (dists_to_set) measures A from
    every centre at once; _hit_rule and _hit_verdict read the verdict.
    """
    U.space.require_same(A.space)
    if U.complement_of is not None:
        # A is nonempty, so it sticks out of K exactly when not inside K
        return not is_subset(A, U.complement_of, tol=0.0)
    d = _dists([c for c, _ in U.balls], A)
    return _hit_verdict(*_hit_rule(d, np.array([r for _, r in U.balls]), A.slack), slice(None))


def _hit_rule(d, radii, slack):
    """For a set at distances d from the centres of open balls of the
    given radii, the balls it certainly meets (d < r - slack) and those
    it may meet at its resolution (d < r + slack), as two lists of flags."""
    return (d < radii - slack).tolist(), (d < radii + slack).tolist()


def _hit_verdict(hit, near, group: slice) -> bool:
    """Whether the set meets the union of a group of those balls: True
    when it certainly meets one, False when it may meet none, and
    UnsupportedPair (undecidable at the set's resolution) otherwise."""
    if any(hit[group]):
        return True
    if any(near[group]):
        raise UnsupportedPair("cloud resolution straddles a hit-ball boundary")
    return False


def misses(A: ClosedSet, K: ClosedSet) -> bool:
    """A and the compact obstacle K are disjoint."""
    if not is_bounded(K):
        raise ValueError("miss obstacles must be compact (bounded closed)")
    return _miss_verdict(set_gap(A, K), A.slack + K.slack)


def _miss_verdict(g: float, slack: float) -> bool:
    """Whether a set at gap g from an obstacle misses it: True when g
    beats the pair's slack, False when they touch, and UnsupportedPair
    (undecidable at the resolution) otherwise."""
    if g > slack:
        return True
    if slack == 0.0 or g == 0.0:
        return False
    raise UnsupportedPair("cloud resolution straddles an obstacle gap")


def subset_of(A: ClosedSet, U: OpenSetRep) -> bool:
    """A is contained in the open set U."""
    U.space.require_same(A.space)
    if U.complement_of is not None:
        return misses(A, U.complement_of)
    if A.slack > 0.0:
        raise UnsupportedPair("coverage of a sampled cloud cannot be certified")
    space = U.space
    if space.kind == FINITE:
        return all(
            any(space.matrix[c][p] < r for c, r in U.balls) for p in A.rep.points
        )
    if space.is_one_dimensional:
        ivs = sorted((_coord(c) - r, _coord(c) + r) for c, r in U.balls)
        return all(_closed_in_open_union(lo, hi, ivs) for lo, hi in A.normal_form.intervals)
    return all(_comp_covered(comp, U.balls) for comp in A.components())


def _closed_in_open_union(lo: float, hi: float, open_ivs) -> bool:
    """Closed [lo, hi] inside a union of open intervals: greedy sweep,
    strict at every endpoint."""
    if math.isinf(lo) or math.isinf(hi):
        return False
    cur = lo
    while True:
        nxt = None
        for a, b in open_ivs:
            if a < cur < b and (nxt is None or b > nxt):
                nxt = b
        if nxt is None:
            return False
        if nxt > hi:
            return True
        cur = nxt  # the sweep point itself is not covered by the interval that reached it


def _comp_covered(comp, balls) -> bool:
    # a piece is certified covered when a single open ball takes its
    # farthest point (balls are convex; a ray's is at infinity)
    if any(_far_from_point(c, comp) < r for c, r in balls):
        return True
    if comp[0] in ("point", "ray") or len(balls) == 1:
        return False
    raise UnsupportedPair(
        "coverage by several balls is only certified when one ball takes each piece"
    )


# ---------------------------------------------------------------------------
# neighborhood specs


@dataclass(frozen=True)
class Constraint:
    tag: str  # hit | contain | miss
    open_set: Optional[OpenSetRep] = None
    obstacle: Optional[ClosedSet] = None

    @staticmethod
    def hit(U: OpenSetRep) -> "Constraint":
        return Constraint("hit", open_set=U)

    @staticmethod
    def contain(U: OpenSetRep) -> "Constraint":
        return Constraint("contain", open_set=U)

    @staticmethod
    def miss(K: ClosedSet) -> "Constraint":
        return Constraint("miss", obstacle=K)

    def satisfied_by(self, S: ClosedSet) -> bool:
        if self.tag == "hit":
            return hits(S, self.open_set)
        if self.tag == "contain":
            return subset_of(S, self.open_set)
        if self.tag == "miss":
            return misses(S, self.obstacle)
        raise ValueError(f"unknown constraint tag {self.tag!r}")

    def describe(self) -> str:
        if self.tag == "miss":
            return f"miss({self.obstacle.rep})"
        return f"{self.tag}({self.open_set.describe()})"


NeighborhoodSpec = tuple  # tuple[Constraint, ...], nonempty


def neighborhood(*constraints: Constraint) -> NeighborhoodSpec:
    if not constraints:
        raise ValueError("a neighborhood needs at least one constraint")
    return tuple(constraints)


def canonical_neighborhoods(A: ClosedSet, topology: str, r: float, m: int = 8,
                            miss_compacts=()) -> NeighborhoodSpec:
    """Finite subbasic families around A.

    lowerV:   one hit-ball of radius r at each of m deterministic
              sample points of A.
    upperV:   one containment constraint: the open r-enlargement of A
              as a ball union (representations without a finite such
              form are unsupported).
    fell:     lowerV plus caller-supplied miss obstacles.
    vietoris: lowerV plus upperV.
    """
    r = float(r)
    if r <= 0:
        raise ValueError("scale must be positive")
    if m < 1:
        raise ValueError("need at least one sample point")
    if topology not in ("lowerV", "upperV", "fell", "vietoris"):
        raise ValueError(f"unknown topology {topology!r}")

    out = []
    if topology in ("lowerV", "fell", "vietoris"):
        for p in representative_points(A, m):
            out.append(Constraint.hit(OpenSetRep.ball_union(A.space, [(p, r)])))
    if topology in ("upperV", "vietoris"):
        out.append(Constraint.contain(_enlargement(A, r)))
    if topology == "fell":
        for K in miss_compacts:
            if set_gap(A, K) <= 0.0:
                raise ValueError("a miss obstacle touches the reference set")
            out.append(Constraint.miss(K))
    return tuple(out)


def _enlargement(A: ClosedSet, r: float) -> OpenSetRep:
    """The open r-enlargement of A as a finite union of open balls."""
    space = A.space
    if A.slack > 0.0:
        raise UnsupportedPair("no certified enlargement for a sampled cloud")
    if space.kind == FINITE:
        return OpenSetRep(space, balls=tuple((p, r) for p in A.rep.points))
    if space.is_one_dimensional:
        ivs = list(A.normal_form.intervals)
        if math.isinf(ivs[0][0]) or math.isinf(ivs[-1][1]):
            raise UnsupportedPair("no finite ball cover for an unbounded interval")
        # a point is its own centre: lo + hi overflows past half the float range
        return OpenSetRep.ball_union(
            space, [(lo if lo == hi else 0.5 * (lo + hi), 0.5 * (hi - lo) + r) for lo, hi in ivs])
    balls = []
    for kind, data in A.components():
        if kind == "point":
            balls.append((data, r))
        elif kind == "ball":
            c, rr = data
            balls.append((c, rr + r))
        else:
            raise UnsupportedPair(
                f"no open-ball enlargement for component kind {kind!r}"
            )
    return OpenSetRep.ball_union(space, balls)


# ---------------------------------------------------------------------------
# convergence against a neighborhood family


@dataclass(frozen=True)
class ConstraintEntry:
    label: str
    passed: bool
    settles_at: Optional[int] = None   # least N with [N, horizon] inside
    witness: Optional[int] = None      # first failing index when failed


@dataclass(frozen=True)
class ConvergenceReport:
    passed: bool
    horizon: int
    entries: tuple[ConstraintEntry, ...]

    def __bool__(self):
        return self.passed


def converges(seq: Callable[[int], ClosedSet], nbhds: NeighborhoodSpec,
              horizon: int = 1000) -> ConvergenceReport:
    """Scan seq(1..horizon) against every constraint.

    Per constraint: passes with the least N such that indices N..horizon
    all satisfy it (a failure at the horizon itself means fail, with the
    first failing index as witness).  Overall verdict: all constraints
    pass.  A pass is evidence of convergence; a fail is a proof of exit
    at the witness index.  Generator exceptions become GeneratorFault.

    The centres of the ball-union hit constraints, and in R^n those of
    the ball-union miss obstacles, are gathered once per scan, and each
    term is measured from all of them in one batched query (see
    dists_to_set; set_gap from a ball union is the least d - r).
    Constraints are still read in order with the checks and the rules of
    hits and misses, so a scan raises the exception that the
    per-constraint calls would raise, at the same term.

    In R^n (n >= 2) the verdicts of those gathered constraints on an
    exact term (slack 0) cannot raise, so they are deferred: such terms
    queue their array forms, and once the queued pieces reach the
    kernel's memory budget (sets._rows_per_chunk), or the scan ends, one
    kernel call measures the whole block (sets._dists_each, the floats
    of the per-term query).  The ambient check and every other
    constraint are still read per term, in order; clouds, 1-D and finite
    terms are measured per term.  seq is called once per index, in
    order, and never ahead of the term being checked, so a scan that
    raises has read exactly the terms it would read without the deferral.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not nbhds:
        raise ValueError("no constraints to check")
    owned, space, centres, radii = _hit_batch(nbhds)
    deferrable = space is not None and space.kind == EUCLIDEAN and space.dim > 1
    first_fail = [None] * len(nbhds)
    last_fail = [None] * len(nbhds)

    def failed(i, first, last):
        first_fail[i] = first if first_fail[i] is None else min(first_fail[i], first)
        last_fail[i] = last if last_fail[i] is None else max(last_fail[i], last)

    # the deferred terms (index, array form), their number of pieces, and
    # the number that fills the kernel's memory budget from every centre
    block, queued = [], 0
    budget = _rows_per_chunk(8 * len(centres) * (space.dim + 2)) if deferrable else 0

    def flush():
        ks = np.array([k for k, _ in block])
        D = _dists_each(centres, [pieces for _, pieces in block])
        for i, sl in owned.items():
            d, r = D[:, sl], radii[sl]
            ok = (d < r).any(axis=1) if nbhds[i].tag == "hit" else \
                np.maximum(d - r, 0.0).min(axis=1) > 0.0
            fails = ks[~ok]
            if len(fails):
                failed(i, int(fails[0]), int(fails[-1]))
        block.clear()

    for k in range(1, horizon + 1):
        try:
            term = seq(k)
        except (AmbientMismatch, UnsupportedPair):
            raise
        except Exception as exc:  # noqa: BLE001 - reported with its index
            raise GeneratorFault(k, exc) from exc
        d = None  # from every gathered ball, in one batched query
        deferred = False
        for i, constraint in enumerate(nbhds):
            if i in owned:
                if deferred:
                    continue
                if d is None:  # the check of hits and set_gap, at the first of them
                    space.require_same(term.space)
                    if deferrable and term.slack == 0.0:
                        block.append((k, term.array_form))
                        queued += term.array_form.m
                        deferred = True
                        continue
                    d = _dists(centres, term)
                    flags = _hit_rule(d, radii, term.slack)
                sl = owned[i]
                ok = _hit_verdict(*flags, sl) if constraint.tag == "hit" else \
                    _miss_verdict(float(np.maximum(d[sl] - radii[sl], 0.0).min()), term.slack)
            else:
                ok = constraint.satisfied_by(term)
            if not ok:
                failed(i, k, k)
        if deferred and queued >= budget:
            flush()
            queued = 0
    if block:
        flush()
    entries = []
    for i, constraint in enumerate(nbhds):
        label = constraint.describe()
        if last_fail[i] is None:
            entries.append(ConstraintEntry(label, True, settles_at=1))
        elif last_fail[i] < horizon:
            entries.append(ConstraintEntry(label, True, settles_at=last_fail[i] + 1,
                                           witness=first_fail[i]))
        else:
            entries.append(ConstraintEntry(label, False, witness=first_fail[i]))
    return ConvergenceReport(all(e.passed for e in entries), horizon, tuple(entries))


def _hit_batch(nbhds):
    """The ball-union hit constraints of nbhds, and the miss constraints
    whose obstacle is a ball union in R^n, that share the first one's
    ambient: {constraint index: the slice of its balls}, that ambient, and
    the centres and radii of all their balls stacked."""
    owned, centres, radii, space = {}, [], [], None
    for i, constraint in enumerate(nbhds):
        if constraint.tag == "hit":
            balls, at = constraint.open_set.balls, constraint.open_set.space
        elif constraint.tag == "miss" and isinstance(constraint.obstacle.rep, BallUnion) \
                and not constraint.obstacle.space.is_one_dimensional:
            balls, at = constraint.obstacle.rep.balls, constraint.obstacle.space
        else:
            continue
        if balls is None or (space is not None and at != space):
            continue
        space = at
        owned[i] = slice(len(centres), len(centres) + len(balls))
        centres += [c for c, _ in balls]
        radii += [r for _, r in balls]
    if space is None or space.kind != FINITE:
        centres = np.array(centres, dtype=float)
    return owned, space, centres, np.array(radii)
