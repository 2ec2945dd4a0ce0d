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
from dataclasses import dataclass
from typing import Sequence, Union

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


def validate_finite_metric(matrix: Sequence[Sequence[float]], tol: float = 1e-9):
    """Check a square matrix for the metric axioms.

    Returns None when every axiom holds, otherwise a MetricViolation
    naming the first offending entry or triple (row-major scan order).
    Non-square input and non-finite entries are usage errors and raise
    ValueError.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        if not all(map(math.isfinite, row)):
            raise ValueError("matrix entries must be finite numbers")
    for i in range(n):
        if abs(matrix[i][i]) > tol:
            return MetricViolation("diagonal", (i,), f"d({i},{i}) = {matrix[i][i]!r} != 0")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if matrix[i][j] <= tol:
                return MetricViolation(
                    "positivity", (i, j), f"d({i},{j}) = {matrix[i][j]!r} is not positive"
                )
            if abs(matrix[i][j] - matrix[j][i]) > tol:
                return MetricViolation(
                    "symmetry", (i, j), f"d({i},{j}) = {matrix[i][j]!r} != d({j},{i}) = {matrix[j][i]!r}"
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][k] > matrix[i][j] + matrix[j][k] + tol:
                    return MetricViolation(
                        "triangle",
                        (i, j, k),
                        f"d({i},{k}) = {matrix[i][k]!r} > d({i},{j}) + d({j},{k}) "
                        f"= {matrix[i][j] + matrix[j][k]!r}",
                    )
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
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if x0 is None:
            return AmbientSpace(EUCLIDEAN, n, (0.0,) * n)
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
    def finite(matrix: Sequence[Sequence[float]], x0: int = 0, tol: float = 1e-9) -> "AmbientSpace":
        """A matrix that validate_finite_metric passes, its diagonal stored as exactly 0.0."""
        bad = validate_finite_metric(matrix, tol=tol)
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
        if self != other:
            raise AmbientMismatch(f"{what} live in different ambient spaces")

