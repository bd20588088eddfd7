"""Pairwise-comparison matrices and triad machinery.

A multiplicative PC matrix is a positive reciprocal matrix (a_ji = 1/a_ij,
unit diagonal).  Since the full matrix is determined by its strict upper
triangle, only that triangle is stored: entry (i,j), 1 <= i < j <= n, sits at
position (i-1)*n - i*(i-1)/2 + (j-i-1) in row-major order.  Reciprocity can
then never be broken by arithmetic on the entries, and this module holds no
full-grid code: a full grid is a file format, checked and stripped to its
triangle by matrixio.

The additive form is the entrywise natural log, an antisymmetric matrix.  A
triad (i,j,k), i < j < k, has defect |b_ij + b_jk - b_ik|, zero exactly when
it is consistent; residuals(n, logs) keeps the signed u = b_ij + b_jk - b_ik,
all_defects(n, logs) its abs and defects(rows, logs) that of given rows: no
other module computes one.  triad_slots(n) holds the positions of each
triad's entries, triad(n, t) names row t and pair_triads(n) lists the rows
holding each position; check_order caps n at MAX_ORDER first.
"""

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import ClassVar

from .errors import (
    EntryOverflow,
    NonFiniteEntry,
    NonPositiveEntry,
    OrderTooLarge,
    OrderTooSmall,
    ValidationError,
)

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"


#: the largest accepted order.  Both triad tables (triad_slots and
#: pair_triads) hold about 157 B per triad, 25 MB for the C(100, 3) triads
#: here, and one descent iteration sweeps every triad at least once; README
#: gives the sizes and times behind the bound
MAX_ORDER = 100

#: how many orders' tables each per-order cache (upper_pairs, triad_slots,
#: pair_triads) keeps, dropping the least recently used: all of 3..MAX_ORDER
#: would take about 640 MB.  repro uses orders 3 and 4, and no benchmark
#: workload more than 4 orders in a process (16-24, 24-32), so none drops a
#: table it still uses
CACHED_ORDERS = 8


def upper_size(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=CACHED_ORDERS)
def upper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All (i,j) with i < j, in storage order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def check_order(n: int) -> None:
    try:
        operator.index(n)  # a float order would reach range() in the triad table
    except TypeError:
        raise ValidationError(f"matrix order must be an integer, got {n!r}") from None
    if n < 3:
        raise OrderTooSmall(n)
    if n > MAX_ORDER:
        raise OrderTooLarge(n, MAX_ORDER)


def check_entries(n: int, upper, mult: bool) -> None:
    """The entry check of either form: a_ij positive and finite, b_ij finite."""
    if all(map(math.isfinite, upper)) and (not mult or min(upper) > 0.0):
        return
    for (i, j), v in zip(upper_pairs(n), upper):
        if mult and not (0.0 < v < math.inf):
            raise NonPositiveEntry(i, j, v)
        if not math.isfinite(v):
            raise NonFiniteEntry(i, j, v)


def real(x, name: str = "value") -> float:
    """x as a float: the one coercion of a number from outside.

    x must have __float__, since float() would parse a str, bytes or other
    buffer as text; that, None, a complex or a signaling NaN raises a
    ValidationError naming name.  A number beyond float range becomes +-inf,
    which the caller's range check names.
    """
    try:
        if not hasattr(x, "__float__"):
            raise TypeError
        return float(x)
    except OverflowError:  # an int or a Fraction; a Decimal gives +-inf itself
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {x!r}") from None


@dataclass(frozen=True)
class _PCMatrix:
    """Storage, shape and entry checks shared by both matrix forms."""

    scheme: ClassVar[str]
    n: int
    upper: tuple[float, ...]

    def __post_init__(self):
        check_order(self.n)
        try:
            if isinstance(self.upper, (bytes, bytearray)):  # iterates as its byte values
                raise TypeError
            upper = tuple(real(v, "entry") for v in self.upper)
        except TypeError:  # not iterable
            raise ValidationError(
                f"upper triangle must be a sequence of numbers, got {self.upper!r}") from None
        object.__setattr__(self, "upper", upper)
        if len(self.upper) != upper_size(self.n):
            raise ValidationError(
                f"expected {upper_size(self.n)} upper entries for n={self.n}, "
                f"got {len(self.upper)}"
            )
        check_entries(self.n, self.upper, self.scheme == MULTIPLICATIVE)


@dataclass(frozen=True)
class MultiplicativePCMatrix(_PCMatrix):
    """Reciprocal positive matrix stored as its strict upper triangle."""

    scheme = MULTIPLICATIVE


@dataclass(frozen=True)
class AdditivePCMatrix(_PCMatrix):
    """Antisymmetric log-image of a multiplicative PC matrix."""

    scheme = ADDITIVE


#: the one table from scheme name to matrix class
MATRIX_CLASSES = {MULTIPLICATIVE: MultiplicativePCMatrix, ADDITIVE: AdditivePCMatrix}


def log_upper(upper: tuple[float, ...], mult: bool) -> tuple[float, ...]:
    """Upper triangle in log coordinates b_ij: ln a_ij when mult, else upper itself."""
    return tuple(map(math.log, upper)) if mult else upper


def to_additive(m: MultiplicativePCMatrix) -> AdditivePCMatrix:
    """Entrywise natural log of the upper triangle."""
    return AdditivePCMatrix(m.n, log_upper(m.upper, True))


def to_multiplicative(b: AdditivePCMatrix) -> MultiplicativePCMatrix:
    """Entrywise exp, inverse of to_additive up to round-off.

    An entry above ln(DBL_MAX) or below ln(DBL_MIN), about +-708.4, has no
    positive normal image and raises EntryOverflow.
    """
    upper = []
    for (i, j), v in zip(upper_pairs(b.n), b.upper):
        try:
            a = math.exp(v)
        except OverflowError:
            a = math.inf
        if not (sys.float_info.min <= a < math.inf):
            raise EntryOverflow(i, j, v)
        upper.append(a)
    return MultiplicativePCMatrix(b.n, tuple(upper))


@lru_cache(maxsize=CACHED_ORDERS)
def triad_slots(n: int) -> tuple[tuple[int, int, int], ...]:
    """The positions (ij, jk, ik) of each triad (i,j,k)'s (i,j), (j,k), (i,k) entries.

    The one triad table, lexicographic in (i,j,k), that the indicators and
    directions sweep; its rows hold no label, and triad(n, t) names row t.
    """
    check_order(n)
    pos = {pair: k for k, pair in enumerate(upper_pairs(n))}
    return tuple((pos[i, j], pos[j, k], pos[i, k])
                 for i, j, k in combinations(range(1, n + 1), 3))


@lru_cache(maxsize=CACHED_ORDERS)
def pair_triads(n: int):
    """Per upper position k, (ts, rows): the triads t that contain k and their own table rows."""
    slots, ts = triad_slots(n), [[] for _ in range(upper_size(n))]
    for t, row in enumerate(slots):
        for k in row:
            ts[k].append(t)
    return tuple((tuple(tk), tuple(map(slots.__getitem__, tk))) for tk in ts)


def triad(n: int, t: int) -> tuple[int, int, int]:
    """The triad (i,j,k) of triad_slots(n)'s row t, for the errors that name it."""
    return next(islice(combinations(range(1, n + 1), 3), t, None))


def residuals(n: int, logs) -> tuple[float, ...]:
    """Signed residuals b_ij + b_jk - b_ik of every triad of the log coordinates, in table order.

    The fresh evaluation sweeps these once per iterate: its defects are
    their abs, and the analytic direction takes its signs from them.
    """
    return tuple([logs[a] + logs[b] - logs[c] for a, b, c in triad_slots(n)])


def all_defects(n: int, logs) -> tuple[float, ...]:
    """Defects of every triad of the log coordinates, in lexicographic order.

    abs of residuals(n, logs) in one fused sweep, for the evaluations that
    need no sign: the K_p values of indicators.kernels' value_at.
    """
    return tuple([abs(logs[a] + logs[b] - logs[c]) for a, b, c in triad_slots(n)])


def defects(rows, logs) -> list[float]:
    """all_defects' sweep over the given triad_slots rows only, in their order."""
    return [abs(logs[a] + logs[b] - logs[c]) for a, b, c in rows]
