"""Ambient metric spaces.

Every set-level computation in this package happens inside one of four
concrete ambient spaces:

* the real line,
* Euclidean n-space,
* an open interval (a, b) viewed as a metric subspace of the line,
* a finite metric space given by an explicit distance matrix.

Each space carries a distinguished base point: the center used by all
windowed (ball-restricted) comparisons.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence, Union

import numpy as np

from .errors import AmbientMismatch

LINE = "line"
EUCLIDEAN = "euclidean"
OPEN_INTERVAL = "open-interval"
FINITE = "finite"

Vector = tuple[float, ...]
Point = Union[float, Vector, int]


@dataclass(frozen=True)
class MetricViolation:
    """First metric-axiom failure found in a candidate distance matrix."""

    axiom: str  # "diagonal" | "symmetry" | "positivity" | "triangle"
    indices: tuple[int, ...]
    detail: str


_DIAGONAL = 1e-9                    # |d(i, i)| up to this is stored as 0.0
_TRIANGLE = 1.0 + 4.0 * 2.0 ** -53  # 1 + 4u, u the unit roundoff of binary64


def validate_finite_metric(matrix: Sequence[Sequence[float]]):
    """Check a square matrix for the metric axioms.

    Returns None when every axiom holds, otherwise a MetricViolation
    naming the first offending entry or triple in row-major order: the
    diagonal, then positivity or symmetry entry by entry, then the
    triangle inequality.  Non-square input and non-finite entries raise
    ValueError, non-numeric ones TypeError.  |d(i, i)| <= 1e-9 passes, and
    the rest reads the matrix as stored, that diagonal 0.0: d(i, j) > 0,
    d(i, j) == d(j, i), and d(i, k) <= (d(i, j) + d(j, k)) (1 + 4u) for
    u = 2^-53, one min-plus pass per row; rounded distances (math.dist of
    collinear points) can miss the plain comparison by a few u."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        if not all(map(math.isfinite, row)):  # raises on a non-numeric entry
            raise ValueError("matrix entries must be finite numbers")
    M = np.array(matrix, dtype=float)
    far = np.abs(M.diagonal()) > _DIAGONAL
    if far.any():
        i = int(far.argmax())
        return MetricViolation("diagonal", (i,), f"d({i},{i}) = {float(M[i, i])!r} != 0")
    np.fill_diagonal(M, 0.0)
    bad = ~((M > 0.0) & (M == M.T) | np.eye(n, dtype=bool))
    if bad.any():
        i, j = divmod(int(bad.argmax()), n)
        dij, dji = float(M[i, j]), float(M[j, i])
        if not dij > 0.0:
            return MetricViolation("positivity", (i, j), f"d({i},{j}) = {dij!r} is not positive")
        return MetricViolation("symmetry", (i, j), f"d({i},{j}) = {dij!r} != d({j},{i}) = {dji!r}")
    with np.errstate(over="ignore"):  # a sum past the float range bounds nothing
        for i, row in enumerate(M):
            # via[j, k] = d(i, j) + d(j, k); rounding is monotone, so the
            # least bound on d(i, k) is the min-plus entry scaled once
            via = row[:, None] + M
            if (row > via.min(axis=0) * _TRIANGLE).any():
                j, k = divmod(int((row > via * _TRIANGLE).argmax()), n)
                return MetricViolation("triangle", (i, j, k), f"d({i},{k}) = {float(row[k])!r} > "
                                       f"d({i},{j}) + d({j},{k}) = {float(via[j, k])!r}")
    return None


@dataclass(frozen=True)
class AmbientSpace:
    kind: str
    dim: int
    base_point: Point
    bounds: tuple[float, float] | None = None
    matrix: tuple[Vector, ...] | None = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def line(x0: float = 0.0) -> "AmbientSpace":
        x0 = float(x0)
        if not math.isfinite(x0):
            raise ValueError("base point must be finite")
        return AmbientSpace(LINE, 1, x0)

    @staticmethod
    def euclidean(n: int, x0: Sequence[float] | None = None) -> "AmbientSpace":
        n = operator.index(n)  # a float or bool n is refused or made an int on every call
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if x0 is None:  # one instance per n: require_same of two is one identity test
            return _at_origin(n)
        base = tuple(map(float, x0))
        if len(base) != n:
            raise ValueError("base point has wrong dimension")
        if not all(map(math.isfinite, base)):
            raise ValueError("base point must be finite")
        return AmbientSpace(EUCLIDEAN, n, base)

    @staticmethod
    def open_interval(a: float, b: float, x0: float | None = None) -> "AmbientSpace":
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError("need a < b")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("interval subspaces need finite ends")
        base = 0.5 * (a + b) if x0 is None else float(x0)
        if not a < base < b:
            raise ValueError("base point must lie strictly inside the interval")
        return AmbientSpace(OPEN_INTERVAL, 1, base, bounds=(a, b))

    @staticmethod
    def finite(matrix: Sequence[Sequence[float]], x0: int = 0) -> "AmbientSpace":
        """A matrix that validate_finite_metric passes, its diagonal stored
        as exactly 0.0, as row tuples and as one array (dist_matrix)."""
        bad = validate_finite_metric(matrix)
        if bad is not None:
            raise ValueError(f"not a metric: {bad.axiom} at {bad.indices}: {bad.detail}")
        frozen = tuple(tuple(0.0 if i == j else float(v) for j, v in enumerate(row))
                       for i, row in enumerate(matrix))
        x0 = int(x0)
        if not 0 <= x0 < len(frozen):
            raise ValueError("base index out of range")
        return AmbientSpace(FINITE, 1, x0, matrix=frozen)

    # -- points ------------------------------------------------------

    @property
    def is_one_dimensional(self) -> bool:
        return self.kind in (LINE, OPEN_INTERVAL) or (self.kind == EUCLIDEAN and self.dim == 1)

    @property
    def is_euclidean_kind(self) -> bool:
        return self.kind in (LINE, EUCLIDEAN, OPEN_INTERVAL)

    @property
    def size(self) -> int:
        if self.kind != FINITE:
            raise AmbientMismatch("size is only defined for finite spaces")
        return len(self.matrix)

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        """A finite space's matrix as one read-only float64 array, made on
        first use; not a field, so ==, hash and repr read the tuple."""
        if self.kind != FINITE:
            raise AmbientMismatch("only finite spaces have a distance matrix")
        M = np.array(self.matrix)
        M.flags.writeable = False
        return M

    def canon_point(self, p) -> Point:
        """Normalize a user-supplied point to this space's canonical form."""
        if self.kind == FINITE:
            q = int(p)
            if q != p or not 0 <= q < self.size:
                raise ValueError(f"{p!r} is not a valid index into this finite space")
            return q
        if self.kind in (LINE, OPEN_INTERVAL):
            if isinstance(p, (tuple, list)):
                if len(p) != 1:
                    raise ValueError(f"{p!r} is not a point on the line")
                p = p[0]
            q = float(p)
            if not math.isfinite(q):
                raise ValueError(f"{q!r} is not a finite coordinate")
            if self.kind == OPEN_INTERVAL:
                a, b = self.bounds
                if not a < q < b:
                    raise ValueError(f"{q!r} lies outside the open interval ({a}, {b})")
            return q
        # euclidean
        if isinstance(p, (int, float)):
            if self.dim != 1:
                raise ValueError(f"scalar point in {self.dim}-dimensional space")
            p = (p,)
        q = tuple(map(float, p))
        if len(q) != self.dim:
            raise ValueError(f"point {p!r} has dimension {len(q)}, expected {self.dim}")
        if not all(map(math.isfinite, q)):
            raise ValueError(f"point {p!r} has a non-finite coordinate")
        return q

    def contains(self, p) -> bool:
        try:
            self.canon_point(p)
        except (ValueError, TypeError):
            return False
        return True

    def distance(self, p, q) -> float:
        p = self.canon_point(p)
        q = self.canon_point(q)
        if self.kind == FINITE:
            return self.matrix[p][q]
        if self.kind in (LINE, OPEN_INTERVAL):
            return abs(p - q)
        return math.dist(p, q)

    def require_same(self, other: "AmbientSpace", what: str = "operands") -> None:
        if self is not other and self != other:
            raise AmbientMismatch(f"{what} live in different ambient spaces")


@cache
def _at_origin(n: int) -> AmbientSpace:
    """R^n at the origin for an int n >= 1, one instance per n."""
    return AmbientSpace(EUCLIDEAN, n, (0.0,) * n)
