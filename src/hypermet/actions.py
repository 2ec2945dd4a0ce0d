"""Affine group elements x -> M x + t and their action on closed sets.

Elements are stored as exact row tuples, so composing integer or
signed-permutation elements stays bit-exact; inverses use the transpose
whenever M M^T is the identity bitwise and fall back to a numerical
inverse otherwise.  The action is the affine push-forward that the
induced maps use (induced.affine_image): exact when the matrix shape
allows it (balls need a scaled-orthogonal matrix, boxes a
signed-permutation-diagonal one), refused otherwise.  apply and the
sup-norm between elements (affine_sup_norm, over a set's vertex table)
push points through the same stacked product, induced._pushed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Indeterminate
from .hypermetrics import CertifiedValue, require_positive
from .induced import (_check_thresholds, _matrix, _np, _pushed, _real_space,
                      _scaled_orthogonal, _sigma_max, affine_image, metric_by_name)
from .sets import (BallUnion, ClosedSet, FinitePoints, Ray, SampledCloud, _max_per_piece,
                   _vertices, is_bounded, is_subset)
from .spaces import AmbientSpace

DEFAULT_REF_RADIUS = 10.0


def _eye(n: int) -> tuple:
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class GroupElement:
    matrix: tuple
    offset: tuple
    kind: str = "affine"

    def __post_init__(self):
        rows, m = _matrix(self.matrix, square=True)
        off = tuple(float(v) for v in self.offset)
        if len(off) != len(rows):
            raise ValueError("offset dimension mismatch")
        if not all(map(math.isfinite, off)):
            raise ValueError("offset entries must be finite")
        if float(abs(np.linalg.det(m))) == 0.0:
            raise ValueError("group elements must be invertible")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "_m", m)  # the rows as an array, not a field

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "GroupElement":
        return GroupElement(_eye(n), (0.0,) * n, "identity")

    @staticmethod
    def rotation(theta: float) -> "GroupElement":
        c, s = math.cos(theta), math.sin(theta)
        return GroupElement(((c, -s), (s, c)), (0.0, 0.0), "rotation")

    @staticmethod
    def translation(v) -> "GroupElement":
        v = tuple(float(x) for x in (v if isinstance(v, (tuple, list)) else (v,)))
        return GroupElement(_eye(len(v)), v, "translation")

    @staticmethod
    def scaling(lam: float, n: int) -> "GroupElement":
        lam = float(lam)
        if lam <= 0:
            raise ValueError("scaling factor must be positive")
        return GroupElement(tuple(tuple(lam if i == j else 0.0 for j in range(n))
                                  for i in range(n)), (0.0,) * n, "scaling")

    @staticmethod
    def isometry(Q, t) -> "GroupElement":
        g = GroupElement(Q, t, "isometry")
        if not g.is_isometry():
            raise ValueError("matrix is not orthogonal")
        return g

    # -- structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def space(self) -> AmbientSpace:
        return _real_space(self.dim)

    def apply(self, x):
        y = _pushed(self._m, _np(self.offset), [self.space.canon_point(x)])[0].tolist()
        return y[0] if self.dim == 1 else tuple(y)

    def is_isometry(self, tol: float = 1e-12) -> bool:
        g = self._m.T @ self._m
        return bool(np.allclose(g, np.eye(self.dim), rtol=0.0, atol=tol))

    def describe(self) -> str:
        return f"{self.kind}(matrix={self.matrix}, offset={self.offset})"


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """g after h: x -> g(h(x))."""
    if g.dim != h.dim:
        raise ValueError("dimension mismatch")
    m = g._m @ h._m
    t = g._m @ _np(h.offset) + _np(g.offset)
    kind = g.kind if g.kind == h.kind and g.kind in ("translation", "rotation") else "composition"
    return GroupElement(tuple(tuple(float(v) for v in row) for row in m),
                        tuple(float(v) for v in t), kind)


def inverse(g: GroupElement) -> GroupElement:
    m = g._m
    if (m @ m.T == np.eye(g.dim)).all():
        minv = m.T  # orthogonal bitwise: the transpose is exact
    else:
        minv = np.linalg.inv(m)
    t = -(minv @ _np(g.offset))
    return GroupElement(tuple(tuple(float(v) for v in row) for row in minv),
                        tuple(float(v) for v in t), g.kind)


# ---------------------------------------------------------------------------
# the action on closed sets


def act(g: GroupElement, A: ClosedSet) -> ClosedSet:
    """The image g(A), exact per representation."""
    g.space.require_same(A.space, "action")
    return affine_image(g._m, _np(g.offset), A, g.space)


def maps_into(g: GroupElement, A: ClosedSet, B: ClosedSet, tol: float = 0.0) -> bool:
    return is_subset(act(g, A), B, tol=tol)


# ---------------------------------------------------------------------------
# uniform-on-a-set distance between two affine elements


_SPHERE_SAMPLES = 64


def _unit_directions(n: int) -> np.ndarray:
    if n == 1:
        return np.array([(1.0,), (-1.0,)])
    if n == 2:
        return np.array([(math.cos(2 * math.pi * k / _SPHERE_SAMPLES),
                          math.sin(2 * math.pi * k / _SPHERE_SAMPLES))
                         for k in range(_SPHERE_SAMPLES)])
    rng = np.random.RandomState(12345)
    vs = rng.standard_normal((_SPHERE_SAMPLES, n))
    return vs / np.linalg.norm(vs, axis=1, keepdims=True)


def _norms(D, c, pts) -> list[float]:
    """|D x + c| at each of the points pts, pushed by one product."""
    return [float(np.linalg.norm(y)) for y in _pushed(D, c, pts)]


def affine_sup_norm(D, c, A: ClosedSet) -> CertifiedValue:
    """Certified sup of |D x + c| over A.

    The max of a convex function over a convex piece sits at its extreme
    points, so the answer is exact from the pushed vertex table
    (sets._vertices; on a 1-D ambient the normal form's finite ends):
    the largest norm, a ball's centre moved out by mu r when D is
    scaled-orthogonal with factor mu.  Other balls get a sampled lower and
    a sigma_max upper end.  A ray or an infinite end gives inf unless D
    kills its direction.
    """
    D = _np(D)
    c = _np(c if isinstance(c, (tuple, list, np.ndarray)) else (c,))
    rep = A.rep
    if isinstance(rep, (FinitePoints, SampledCloud)):
        best = max(_norms(D, c, rep.points))
        if isinstance(rep, SampledCloud):
            return CertifiedValue.interval(best, best + _sigma_max(D) * rep.resolution,
                                           "finite-max+cloud")
        return CertifiedValue.point(best, "finite-max")

    if A.space.is_one_dimensional:
        nf = A.normal_form
        lo = max([0.0, *_norms(D, c, nf.finite_ends)])  # no finite end on the whole line
        if math.isinf(nf.lo[0]) or math.isinf(nf.hi[-1]):
            if float(np.linalg.norm(D)) != 0.0:
                return CertifiedValue.infinite("ray-closed-form")
            lo = max(lo, float(np.linalg.norm(c)))
        return CertifiedValue.point(lo, "finite-max")

    if isinstance(rep, Ray) and float(np.linalg.norm(D @ _np(rep.direction))) != 0.0:
        return CertifiedValue.infinite("ray-closed-form")
    # per piece, the largest norm at its vertices
    X, owner = _vertices(A.components())
    far = _max_per_piece(lambda sl: np.array(_norms(D, c, X[sl])), owner, 8 * len(c)).tolist()
    if isinstance(rep, BallUnion):
        mu = _scaled_orthogonal(D)
        if mu is None:
            lo = max(0.0, *(max(_norms(D, c, _np(centre) + r * _unit_directions(len(centre))))
                            for centre, r in rep.balls))
            hi = max(0.0, *(v + _sigma_max(D) * r for v, (_, r) in zip(far, rep.balls)))
            return CertifiedValue.interval(lo, hi, "sphere-sample")
        far = [v + mu * r for v, (_, r) in zip(far, rep.balls)]
    return CertifiedValue.point(max(0.0, *far), "finite-max")


def group_distance(g: GroupElement, h: GroupElement,
                   ref_radius: float = DEFAULT_REF_RADIUS) -> CertifiedValue:
    """sup |g(x) - h(x)| over the closed reference ball at the base point."""
    if g.dim != h.dim:
        raise ValueError("dimension mismatch")
    D = g._m - h._m
    c = _np(g.offset) - _np(h.offset)
    space = g.space
    if g.dim == 1:
        ref = ClosedSet.intervals(space, [(space.base_point - ref_radius,
                                           space.base_point + ref_radius)])
    else:
        ref = ClosedSet.balls(space, [(space.base_point, ref_radius)])
    return affine_sup_norm(D, c, ref)


# ---------------------------------------------------------------------------
# uniform comparison on a set


@dataclass(frozen=True)
class UniformComparison:
    contains: bool
    sup: CertifiedValue


def ucb_nbhd_contains(h: GroupElement, A: ClosedSet, f: GroupElement,
                      eps: float) -> UniformComparison:
    """Is sup_{x in A} |h(x) - f(x)| < eps?

    A must be bounded; the answer is certified on both sides and an
    interval straddling eps raises Indeterminate.
    """
    eps = float(eps)
    require_positive("eps", eps)
    if not is_bounded(A):
        raise ValueError("the uniform comparison needs a bounded set")
    h.space.require_same(A.space, "comparison")
    if h.dim != f.dim:
        raise ValueError("dimension mismatch")
    D = h._m - f._m
    c = _np(h.offset) - _np(f.offset)
    sup = affine_sup_norm(D, c, A)
    if not sup.hi.is_inf and sup.hi.as_float() < eps:
        return UniformComparison(True, sup)
    if sup.lo >= eps:
        return UniformComparison(False, sup)
    raise Indeterminate(
        f"sup estimate {sup!r} straddles eps={eps}; tighten the region or eps")


# ---------------------------------------------------------------------------
# continuity probe for the action


@dataclass(frozen=True)
class ActionProbeRow:
    label: str
    d_group: CertifiedValue
    d_set: CertifiedValue
    d_out: CertifiedValue


@dataclass(frozen=True)
class ActionProbeReport:
    metric: str
    eps: float
    delta_schedule: tuple
    rows: tuple
    violation: bool

    def __bool__(self):
        return not self.violation


def probe_action_continuity(g: GroupElement, A: ClosedSet, metric: str,
                            perturbations, delta_schedule=(1.0, 0.1, 0.01),
                            eps: float = 0.1, ref_radius: float = DEFAULT_REF_RADIUS,
                            **metric_kwargs) -> ActionProbeReport:
    """Joint-continuity probe at (g, A).

    Each perturbation is a pair (h, B); the row records the group
    distance (uniform on the reference ball), the set distance, and the
    output distance between g(A) and h(B).  A violation requires, under
    every delta, a row whose certified input proximity sits below delta
    while the certified output distance exceeds eps.  eps and every delta
    must be finite and > 0.
    """
    _check_thresholds(eps, delta_schedule)
    dist = metric_by_name(metric)
    gA = act(g, A)
    rows = []
    for i, (h, B) in enumerate(perturbations):
        d_group = group_distance(g, h, ref_radius)
        d_set = dist(A, B, **metric_kwargs)
        d_out = dist(gA, act(h, B), **metric_kwargs)
        rows.append(ActionProbeRow(f"perturbation-{i + 1}", d_group, d_set, d_out))

    def prox(row):
        if row.d_group.hi.is_inf or row.d_set.hi.is_inf:
            return math.inf
        return max(row.d_group.hi.as_float(), row.d_set.hi.as_float())

    violation = all(
        any(prox(r) < delta and r.d_out.lo > eps for r in rows)
        for delta in delta_schedule
    )
    return ActionProbeReport(metric, float(eps), tuple(delta_schedule),
                             tuple(rows), violation)
