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
from .hypermetrics import _gaps_each, set_gap
from .sets import (BallUnion, ClosedSet, FinitePoints, Ray, _coord, _dists, _dists_each,
                   _far_dists, _point_array, _rows_per_chunk, _Stack, is_bounded, is_subset,
                   representative_points)
from .spaces import AmbientSpace

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
    every centre at once.  A meets U when it is certainly inside one ball
    (d < r - slack); when it is not, but may be at its resolution
    (d < r + slack), the verdict is undecidable (UnsupportedPair).
    """
    U.space.require_same(A.space)
    if U.complement_of is not None:
        # A is nonempty, so it sticks out of K exactly when not inside K
        return not is_subset(A, U.complement_of)
    d = _dists([c for c, _ in U.balls], A)
    radii = np.array([r for _, r in U.balls])
    if (d < radii - A.slack).any():
        return True
    if (d < radii + A.slack).any():
        raise UnsupportedPair("cloud resolution straddles a hit-ball boundary")
    return False


def misses(A: ClosedSet, K: ClosedSet) -> bool:
    """A and the compact obstacle K are disjoint: True when their gap
    beats the pair's slack, False when they touch, and UnsupportedPair
    (undecidable at the resolution) otherwise."""
    if not is_bounded(K):
        raise ValueError("miss obstacles must be compact (bounded closed)")
    g, slack = set_gap(A, K), A.slack + K.slack
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
    if U.space.is_one_dimensional:
        return bool(_covered(*A.normal_form._arrays, *_open_cover(U)).all())
    # a piece is certified covered when a single open ball takes its
    # farthest point (balls are convex; a ray's is at infinity)
    centres, radii = zip(*U.balls)
    covered = (_far_dists(_point_array(U.space, centres), [A]) < np.array(radii)).any(axis=1)
    if covered.all():
        return True
    # the first piece that none takes decides
    if A.components()[int(covered.argmin())][0] in ("point", "ray") or len(U.balls) == 1:
        return False
    raise UnsupportedPair(
        "coverage by several balls is only certified when one ball takes each piece"
    )


def _open_cover(U: OpenSetRep):
    """The connected components (a, b) of a union of open intervals (the
    balls of U on a 1-D ambient), as arrays of their ends, sorted: the
    intervals merged only where they overlap strictly, since two that
    only touch leave the common end uncovered."""
    a, b = [], []
    for lo, hi in sorted((_coord(c) - r, _coord(c) + r) for c, r in U.balls):
        if b and lo < b[-1]:
            b[-1] = max(b[-1], hi)
        else:
            a.append(lo)
            b.append(hi)
    return np.array(a), np.array(b)


def _covered(lo, hi, a, b):
    """Which closed intervals [lo, hi] lie in the open union with
    components (a, b): [lo, hi] is connected, so it lies in the union
    exactly when it lies in one component, and only the last one that
    starts below lo can hold it."""
    j = np.searchsorted(a, lo, side="left") - 1
    return (j >= 0) & (hi < b[np.maximum(j, 0)])


# ---------------------------------------------------------------------------
# neighborhood specs


@dataclass(frozen=True)
class Constraint:
    tag: str  # hit | contain | miss
    open_set: Optional[OpenSetRep] = None
    obstacle: Optional[ClosedSet] = None

    def __post_init__(self):
        if self.tag == "miss" and not is_bounded(self.obstacle):
            raise ValueError("miss obstacles must be compact (bounded closed)")

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
    if space.is_one_dimensional:
        ivs = A.normal_form.intervals
        if math.isinf(ivs[0][0]) or math.isinf(ivs[-1][1]):
            raise UnsupportedPair("no finite ball cover for an unbounded interval")
        # each end is halved first, so no sum overflows; a point is its own centre
        return OpenSetRep.ball_union(space, [(lo if lo == hi else 0.5 * lo + 0.5 * hi,
                                              0.5 * hi - 0.5 * lo + r) for lo, hi in ivs])
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

    The ball-union hits and contains and the misses of exact obstacles
    (slack 0) that share one ambient (R^n, 1-D or finite) are gathered
    once per scan (_ball_batch).  Their verdicts on an exact term (slack
    0) cannot raise, so such terms are deferred: once their queued pieces
    (intervals on a 1-D ambient) reach the memory budget
    (sets._rows_per_chunk) from every centre and obstacle piece, or the
    scan ends, one pass decides the whole block from one stacking of its
    terms (sets._Stack):

      * hits read sets._dists_each: one kernel call in R^n, one table on
        a 1-D ambient, one read of the matrix on a finite space; the
        floats of the per-term query;
      * a miss reads hypermetrics._gaps_each, set_gap for the whole block;
      * a contain reads the components of its open union on a 1-D ambient
        (_open_cover, _covered), elsewhere sets._far_dists over the
        block's pieces, the rules of subset_of; against several balls the
        latter only on a term of points or a ray, where a piece that no
        ball takes means False rather than a refusal.

    Every other constraint, and every constraint on a term with slack or
    in another ambient, is read per term, in order, through
    Constraint.satisfied_by (hits, subset_of or misses); on a term in
    another ambient the first gathered constraint raises AmbientMismatch.
    seq is called once per index, in order, and never ahead of the term
    being checked, so a scan that raises has read exactly the terms it
    would read without the deferral, and raises what the per-constraint
    calls would raise, at the same term.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not nbhds:
        raise ValueError("no constraints to check")
    owned, space, centres, radii = _ball_batch(nbhds)
    one_d = space is not None and space.is_one_dimensional

    def pieces(A):  # A's rows in a block: intervals on a 1-D ambient
        rep = A.rep
        return len(A.normal_form.lo if one_d else rep.points if isinstance(rep, FinitePoints)
                   else rep.balls if isinstance(rep, BallUnion) else A.components())

    # read per term: every constraint, or on a deferred term those that its
    # block leaves (blocked: decided on any exact term, owned: on points or a ray)
    blocked = {i for i, sl in owned.items()
               if nbhds[i].tag != "contain" or one_d or sl.stop - sl.start == 1}
    every = range(len(nbhds))
    thin = [i for i in every if i not in owned]
    exact = [i for i in every if i not in blocked]
    any_hit = any(nbhds[i].tag == "hit" for i in owned)
    contains = [i for i in owned if nbhds[i].tag == "contain"]
    covers = {i: _open_cover(nbhds[i].open_set) for i in contains} if one_d else {}
    first_fail = [None] * len(nbhds)
    last_fail = [None] * len(nbhds)

    def failed(i, first, last):
        first_fail[i] = first if first_fail[i] is None else min(first_fail[i], first)
        last_fail[i] = last if last_fail[i] is None else max(last_fail[i], last)

    # the deferred terms (index, term), their number of pieces, and the
    # number that fills the memory budget from every centre and obstacle piece
    block, queued = [], 0
    if owned:
        rows = len(centres) + sum(pieces(nbhds[i].obstacle) for i in owned
                                  if nbhds[i].tag == "miss")
        budget = _rows_per_chunk(8 * rows * ((1 if one_d else space.dim) + 2))

    def flush():
        ks = np.array([k for k, _ in block])
        stack = _Stack([term for _, term in block])
        if any_hit:
            D = _dists_each(centres, stack)
        if contains and not one_d:
            F = _far_dists(centres, stack.sets)
        for i, sl in owned.items():
            tag = nbhds[i].tag
            if tag == "hit":
                ok = (D[:, sl] < radii[sl]).any(axis=1)
            elif tag == "miss":
                ok = _gaps_each(stack, nbhds[i].obstacle) > 0.0
            elif one_d:
                ok = np.logical_and.reduceat(_covered(stack.lo, stack.hi, *covers[i]),
                                             stack.starts)
            else:  # where it was read per term, it passed there on these floats
                ok = np.logical_and.reduceat((F[:, sl] < radii[sl]).any(axis=1), stack.starts)
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
        todo = every
        if owned and term.slack == 0.0 and term.space == space:
            block.append((k, term))
            queued += pieces(term)
            todo = thin if isinstance(term.rep, (FinitePoints, Ray)) else exact
        for i in todo:
            if not nbhds[i].satisfied_by(term):
                failed(i, k, k)
        if block and queued >= budget:
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


def _ball_batch(nbhds):
    """The constraints of nbhds that a scan gathers, those that share the
    first one's ambient: ball-union hits and contains, and misses of exact
    obstacles (slack 0).  Returns {constraint index: the slice of its
    balls}, that ambient, and the centres (sets._point_array) and radii
    of all their balls stacked; a miss owns an empty slice."""
    owned, centres, radii, space = {}, [], [], None
    for i, constraint in enumerate(nbhds):
        if constraint.tag in ("hit", "contain"):
            balls, at = constraint.open_set.balls, constraint.open_set.space
        elif constraint.tag == "miss" and constraint.obstacle.slack == 0.0:
            balls, at = (), constraint.obstacle.space
        else:
            continue
        if balls is None or (space is not None and at != space):
            continue
        space = at
        owned[i] = slice(len(centres), len(centres) + len(balls))
        centres += [c for c, _ in balls]
        radii += [r for _, r in balls]
    return owned, space, _point_array(space, centres) if owned else np.empty(0), np.array(radii)
