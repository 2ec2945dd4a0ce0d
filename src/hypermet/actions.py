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
from fractions import Fraction

import numpy as np

from .errors import Indeterminate
from .geom import _guarded
from .hypermetrics import CertifiedValue, require_positive
from .induced import (_check_thresholds, _matrix, _np, _pushed, _real_space,
                      _scaled_orthogonal, _sigma_max, affine_image, metric_by_name)
from .sets import (BallUnion, ClosedSet, FinitePoints, Ray, SampledCloud, _max_per_piece,
                   _vertices, is_bounded, is_subset)

DEFAULT_REF_RADIUS = 10.0
_ISOMETRY_TOL = 1e-12   # |M^T M - I| entrywise, for GroupElement.is_isometry


def _eye(n: int) -> tuple:
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class GroupElement:
    matrix: tuple
    offset: tuple
    kind: str = "affine"

    def __post_init__(self):
        rows, m = _matrix(self.matrix, square=True)
        off = tuple(map(float, self.offset))
        if len(off) != len(rows):
            raise ValueError("offset dimension mismatch")
        if not all(map(math.isfinite, off)):
            raise ValueError("offset entries must be finite")
        if float(abs(np.linalg.det(m))) == 0.0:
            raise ValueError("group elements must be invertible")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "_m", m)  # not fields: the rows and offset as arrays, the space
        object.__setattr__(self, "_t", _np(off))
        object.__setattr__(self, "space", _real_space(len(rows)))

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

    def apply(self, x):
        y = _pushed(self._m, self._t, [self.space.canon_point(x)])[0].tolist()
        return y[0] if self.dim == 1 else tuple(y)

    def is_isometry(self) -> bool:
        g = self._m.T @ self._m
        return bool(np.allclose(g, np.eye(self.dim), rtol=0.0, atol=_ISOMETRY_TOL))

    def describe(self) -> str:
        return f"{self.kind}(matrix={self.matrix}, offset={self.offset})"


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """g after h: x -> g(h(x))."""
    if g.dim != h.dim:
        raise ValueError("dimension mismatch")
    kind = g.kind if g.kind == h.kind and g.kind in ("translation", "rotation") else "composition"
    return GroupElement(g._m @ h._m, (g._m @ h._t + g._t).tolist(), kind)


def inverse(g: GroupElement) -> GroupElement:
    m = g._m
    if (m @ m.T == np.eye(g.dim)).all():
        minv = m.T  # orthogonal bitwise: the transpose is exact
    else:
        minv = np.linalg.inv(m)
    return GroupElement(minv, (-(minv @ g._t)).tolist(), g.kind)


# ---------------------------------------------------------------------------
# the action on closed sets


def act(g: GroupElement, A: ClosedSet) -> ClosedSet:
    """The image g(A), exact per representation."""
    g.space.require_same(A.space, "action")
    return affine_image(g._m, g._t, A, g.space)


def maps_into(g: GroupElement, A: ClosedSet, B: ClosedSet) -> bool:
    return is_subset(act(g, A), B)


# ---------------------------------------------------------------------------
# uniform-on-a-set distance between two affine elements


_SPHERE_SAMPLES = 64


def _unit_directions(n: int) -> np.ndarray:
    if n == 2:
        return np.array([(math.cos(2 * math.pi * k / _SPHERE_SAMPLES),
                          math.sin(2 * math.pi * k / _SPHERE_SAMPLES))
                         for k in range(_SPHERE_SAMPLES)])
    rng = np.random.RandomState(12345)
    vs = rng.standard_normal((_SPHERE_SAMPLES, n))
    return vs / np.linalg.norm(vs, axis=1, keepdims=True)


def _norms(Y) -> np.ndarray:
    """The guarded norm (geom._guarded) of each row of Y."""
    return _guarded(lambda norm_of: norm_of(Y.T))


def _kills(D, u) -> bool:
    """D u = 0 in exact arithmetic on the given floats (u a ray's axis,
    the direction as given; see sets._same_direction)."""
    u = [Fraction(x) for x in u]
    return not any(sum(Fraction(d) * x for d, x in zip(row, u)) for row in D.tolist())


def affine_sup_norm(D, c, A: ClosedSet) -> CertifiedValue:
    """Certified sup of |D x + c| over A.

    The max of a convex function over a convex piece sits at its extreme
    points, so the answer is exact from the pushed vertex table
    (sets._vertices; on a 1-D ambient the normal form's finite ends):
    the largest norm, a ball's centre moved out by mu r when D is
    scaled-orthogonal with factor mu.  Other balls get a sampled lower and
    a sigma_max upper end.  A ray or an infinite end gives inf unless D
    kills its direction, exactly (_kills, on the ray's axis).  A point
    set or a cloud pushes its kept coordinate array (ClosedSet.coords).
    Every norm is geom's guarded one (_norms), so no square of a pushed
    point, of c or of a centre under- or overflows.
    """
    D = _np(D)
    c = _np(c if isinstance(c, (tuple, list, np.ndarray)) else (c,))
    rep = A.rep
    if isinstance(rep, (FinitePoints, SampledCloud)):
        best = float(_norms(_pushed(D, c, A.coords)).max())
        if isinstance(rep, SampledCloud):
            return CertifiedValue.interval(best, best + _sigma_max(D) * rep.resolution,
                                           "finite-max+cloud")
        return CertifiedValue.point(best, "finite-max")

    if A.space.is_one_dimensional:
        nf = A.normal_form
        lo = max([0.0, *_norms(_pushed(D, c, nf.finite_ends)).tolist()])  # none on the whole line
        if math.isinf(nf.lo[0]) or math.isinf(nf.hi[-1]):
            if D.any():
                return CertifiedValue.infinite("ray-closed-form")
            lo = max(lo, float(_norms(c[None])[0]))
        return CertifiedValue.point(lo, "finite-max")

    if isinstance(rep, Ray) and not _kills(D, rep.axis):
        return CertifiedValue.infinite("ray-closed-form")
    # per piece, the largest norm at its vertices
    X, owner = _vertices(A.components())
    far = _max_per_piece(lambda sl: _norms(_pushed(D, c, X[sl])), owner, 8 * len(c)).tolist()
    if isinstance(rep, BallUnion):
        mu = _scaled_orthogonal(D)
        if mu is None:
            # both ends moved out by the rounding of |D x + t| (x a centre x0 or a sample just
            # off the sphere) and of sigma_max: 16 gamma_{2n+4} of |D| (|x0| + 2 r) + |t|
            size, t = float(_norms(D.reshape(1, -1))[0]), float(_norms(c[None])[0])
            sigma, centres = _sigma_max(D), A.coords
            err = [32.0 * (len(c) + 2) * 2.0 ** -53 * (size * (x + 2.0 * r) + t)
                   for x, (_, r) in zip(_norms(centres).tolist(), rep.balls)]
            lo = max(0.0, *(float(_norms(_pushed(D, c, x0 + r * _unit_directions(len(c)))).max())
                            - e for x0, (_, r), e in zip(centres, rep.balls, err)))
            hi = max(0.0, *(v + sigma * r + e for v, (_, r), e in zip(far, rep.balls, err)))
            return CertifiedValue.interval(lo, hi, "sphere-sample")
        far = [v + mu * r for v, (_, r) in zip(far, rep.balls)]
    return CertifiedValue.point(max(0.0, *far), "finite-max")


def group_distance(g: GroupElement, h: GroupElement,
                   ref_radius: float = DEFAULT_REF_RADIUS) -> CertifiedValue:
    """sup |g(x) - h(x)| over the closed reference ball at the base point."""
    if g.dim != h.dim:
        raise ValueError("dimension mismatch")
    D, c, space = g._m - h._m, g._t - h._t, g.space
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
    sup = affine_sup_norm(h._m - f._m, h._t - f._t, A)
    if sup.hi < eps:
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

    violation = all(
        any(max(r.d_group.hi, r.d_set.hi) < delta and r.d_out.lo > eps for r in rows)
        for delta in delta_schedule
    )
    return ActionProbeReport(metric, float(eps), tuple(delta_schedule),
                             tuple(rows), violation)
