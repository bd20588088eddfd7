"""Pairwise-comparison matrices and triad machinery.

A multiplicative PC matrix is a positive reciprocal matrix (a_ji = 1/a_ij,
unit diagonal).  Since the full matrix is determined by its strict upper
triangle, only that triangle is stored: entry (i,j), 1 <= i < j <= n, sits at
position (i-1)*n - i*(i-1)/2 + (j-i-1) in row-major order.  Reciprocity can
then never be broken by arithmetic on the entries.

The additive form is the entrywise natural log, an antisymmetric matrix.
Natural log is the convention throughout.  A triad (i,j,k) with i < j < k has
defect |b_ij + b_jk - b_ik|, zero exactly when the triad is consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import (
    AntisymmetryViolation,
    BadDiagonal,
    EntryOverflow,
    NonFiniteEntry,
    NonPositiveEntry,
    NonPositiveWeight,
    OrderTooSmall,
    ReciprocityViolation,
)

#: relative tolerance for validating reciprocity / unit diagonal of raw grids;
#: the checks read not (residual <= TAU_REC), so a NaN residual fails them
TAU_REC = 1e-9


class TriadIndex(NamedTuple):
    i: int
    j: int
    k: int


def upper_size(n: int) -> int:
    return n * (n - 1) // 2


def upper_index(n: int, i: int, j: int) -> int:
    """Position of entry (i,j), 1 <= i < j <= n, in the stored triangle."""
    if not (1 <= i < j <= n):
        raise IndexError(f"({i},{j}) is not an upper-triangle position for n={n}")
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


@lru_cache(maxsize=None)
def upper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All (i,j) with i < j, in storage order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def check_order(n: int) -> None:
    if n < 3:
        raise OrderTooSmall(n)


@dataclass(frozen=True)
class _PCMatrix:
    """Storage and shape checks shared by both matrix forms."""

    n: int
    upper: tuple[float, ...]

    def __post_init__(self):
        check_order(self.n)
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        if len(self.upper) != upper_size(self.n):
            raise ValueError(
                f"expected {upper_size(self.n)} upper entries for n={self.n}, "
                f"got {len(self.upper)}"
            )

    def to_grid(self) -> list[list[float]]:
        return [
            [self.entry(i, j) for j in range(1, self.n + 1)]
            for i in range(1, self.n + 1)
        ]

    def replace_upper(self, upper) -> _PCMatrix:
        """A matrix of the same form with another upper triangle."""
        return type(self)(self.n, tuple(upper))


@dataclass(frozen=True)
class MultiplicativePCMatrix(_PCMatrix):
    """Reciprocal positive matrix stored as its strict upper triangle."""

    def __post_init__(self):
        super().__post_init__()
        for (i, j), v in zip(upper_pairs(self.n), self.upper):
            if not (v > 0.0) or math.isinf(v) or math.isnan(v):
                raise NonPositiveEntry(i, j, v)

    def entry(self, i: int, j: int) -> float:
        """Full-matrix entry, reconstructed from the triangle."""
        if i == j:
            return 1.0
        if i < j:
            return self.upper[upper_index(self.n, i, j)]
        return 1.0 / self.upper[upper_index(self.n, j, i)]


@dataclass(frozen=True)
class AdditivePCMatrix(_PCMatrix):
    """Antisymmetric log-image of a multiplicative PC matrix."""

    def __post_init__(self):
        super().__post_init__()
        for (i, j), v in zip(upper_pairs(self.n), self.upper):
            if not math.isfinite(v):
                raise NonFiniteEntry(i, j, v)

    def entry(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i < j:
            return self.upper[upper_index(self.n, i, j)]
        return -self.upper[upper_index(self.n, j, i)]


def validate_multiplicative(n: int, entries) -> MultiplicativePCMatrix:
    """Validate a full n x n grid and strip it to the canonical triangle.

    The diagonal must be 1 and a_ij * a_ji must be 1, both within TAU_REC;
    the lower triangle is then discarded, never averaged in.
    """
    check_order(n)
    grid = [[float(x) for x in row] for row in entries]
    if len(grid) != n or any(len(row) != n for row in grid):
        raise ValueError(f"expected an {n}x{n} grid")
    for i in range(n):
        for j in range(n):
            if not (grid[i][j] > 0.0):
                raise NonPositiveEntry(i + 1, j + 1, grid[i][j])
    for i in range(n):
        if not (abs(grid[i][i] - 1.0) <= TAU_REC):
            raise BadDiagonal(i + 1, grid[i][i])
    for i in range(n):
        for j in range(i + 1, n):
            residual = abs(grid[i][j] * grid[j][i] - 1.0)
            if not (residual <= TAU_REC):
                raise ReciprocityViolation(i + 1, j + 1, residual)
    upper = tuple(grid[i - 1][j - 1] for i, j in upper_pairs(n))
    return MultiplicativePCMatrix(n, upper)


def validate_additive(n: int, entries) -> AdditivePCMatrix:
    """Validate a full antisymmetric grid (zero diagonal, b_ji = -b_ij)."""
    check_order(n)
    grid = [[float(x) for x in row] for row in entries]
    if len(grid) != n or any(len(row) != n for row in grid):
        raise ValueError(f"expected an {n}x{n} grid")
    for i in range(n):
        if not (abs(grid[i][i]) <= TAU_REC):
            raise BadDiagonal(i + 1, grid[i][i])
    for i in range(n):
        for j in range(i + 1, n):
            residual = abs(grid[i][j] + grid[j][i])
            if not (residual <= TAU_REC):
                raise AntisymmetryViolation(i + 1, j + 1, residual)
    upper = tuple(grid[i - 1][j - 1] for i, j in upper_pairs(n))
    return AdditivePCMatrix(n, upper)


def log_upper(m: MultiplicativePCMatrix | AdditivePCMatrix) -> tuple[float, ...]:
    """Upper triangle in log coordinates b_ij = ln a_ij, for either matrix form."""
    if isinstance(m, MultiplicativePCMatrix):
        return tuple(math.log(v) for v in m.upper)
    return m.upper


def to_additive(m: MultiplicativePCMatrix) -> AdditivePCMatrix:
    """Entrywise natural log of the upper triangle."""
    return AdditivePCMatrix(m.n, log_upper(m))


def to_multiplicative(b: AdditivePCMatrix) -> MultiplicativePCMatrix:
    """Entrywise exp, inverse of to_additive up to round-off.

    An entry above ln(DBL_MAX) has no finite image and raises EntryOverflow.
    """
    upper = []
    for (i, j), v in zip(upper_pairs(b.n), b.upper):
        try:
            upper.append(math.exp(v))
        except OverflowError:
            raise EntryOverflow(i, j, v) from None
    return MultiplicativePCMatrix(b.n, tuple(upper))


@lru_cache(maxsize=None)
def enumerate_triads(n: int) -> tuple[TriadIndex, ...]:
    """All C(n,3) strictly increasing triples, lexicographic."""
    check_order(n)
    return tuple(TriadIndex(i, j, k) for i, j, k in combinations(range(1, n + 1), 3))


@lru_cache(maxsize=None)
def triad_slots(n: int) -> tuple[tuple[TriadIndex, int, int, int], ...]:
    """Each triad with the storage positions of its (i,j), (j,k), (i,k) entries.

    This is the hot lookup table behind indicator and gradient evaluation.
    """
    return tuple(
        (t, upper_index(n, t.i, t.j), upper_index(n, t.j, t.k), upper_index(n, t.i, t.k))
        for t in enumerate_triads(n)
    )


def all_defects(n: int, logs) -> tuple[float, ...]:
    """Defects of every triad of the log coordinates, in lexicographic order.

    The one triad kernel: indicators and directions all go through it.
    """
    return tuple(abs(logs[q] + logs[v] - logs[w]) for _, q, v, w in triad_slots(n))


def is_consistent(m: MultiplicativePCMatrix, tol: float = 0.0) -> bool:
    """True iff every triad defect of the log-image is <= tol."""
    return max(all_defects(m.n, log_upper(m))) <= tol


def consistent_from_weights(w) -> MultiplicativePCMatrix:
    """Build the exactly consistent matrix a_ij = w_i / w_j."""
    weights = [float(x) for x in w]
    for idx, x in enumerate(weights):
        if not (x > 0.0):
            raise NonPositiveWeight(idx, x)
    n = len(weights)
    check_order(n)
    upper = tuple(weights[i - 1] / weights[j - 1] for i, j in upper_pairs(n))
    return MultiplicativePCMatrix(n, upper)


def gmm_priority_vector(m: MultiplicativePCMatrix) -> tuple[float, ...]:
    """Geometric-mean weights, normalized to sum 1.

    w_i = (prod_j a_ij)^(1/n); for a consistent matrix this reproduces the
    generating weights up to scale.
    """
    n = m.n
    # geometric means via log-sums to avoid overflow across large entries
    logs = [
        math.fsum(math.log(m.entry(i, j)) for j in range(1, n + 1)) / n
        for i in range(1, n + 1)
    ]
    shift = max(logs)
    raw = [math.exp(x - shift) for x in logs]
    total = math.fsum(raw)
    return tuple(x / total for x in raw)
