"""The p-inconsistency indicator family Kii_{n,p}.

Kii_{n,p}(A) = 1 - exp(-||(d_t)||_p) where d_t ranges over the C(n,3) triad
defects of the log-image and ||.||_p is the p-average with the 1/C(n,3)
normalization inside.  p = infinity takes the plain maximum (the classical
triad-based index); p may be negative (harmonic-type means), in which case
the indicator has a hole: it is undefined whenever some defect vanishes.

Defects are always computed from the log coordinates (core.log_upper), never
by multiplying raw entries, so matrices with entries like e^3 cannot overflow
their triad products.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import (
    MULTIPLICATIVE,
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    triad_slots,
)
from .errors import (
    IndicatorUndefined,
    InvalidExponent,
    ValidationError,
    ZeroWithNegativeExponent,
)

#: below this a triad defect counts as exactly zero for the p < 0 domain check
DELTA_ZERO = 1e-12

INF = math.inf

#: smallest accepted |p|: the power mean raises the mean of x^p to 1/p, which
#: multiplies its rounding error by 1/|p| (about 1.7e-16/|p| relative), and
#: below about 1e-308 1/p is infinite; at 1e-6 the error stays below 1e-9
P_MIN = 1e-6


def normalize_exponent(p) -> float:
    """Coerce p to float, rejecting 0, |p| < P_MIN, NaN and -inf; inf means max."""
    if isinstance(p, str):
        raise InvalidExponent(p, "exponent must be numeric (or math.inf)")
    q = float(p)
    if math.isnan(q):
        raise InvalidExponent(p, "NaN is not an exponent")
    if q == 0.0:
        raise InvalidExponent(p)
    if q == -INF:
        raise InvalidExponent(p, "only +infinity is supported")
    if abs(q) < P_MIN:
        raise InvalidExponent(p, f"|p| below {P_MIN:g} loses the mean's accuracy")
    return q


def p_average(xs, p) -> float:
    """((1/N) sum x_i^p)^(1/p) for a normalized p; max of the x_i when p = inf.

    For p < 0 any x_i below DELTA_ZERO raises ZeroWithNegativeExponent:
    x^p blows up and the mean is no longer meaningful.  Where the plain form
    overflows, or its mean of x^p falls below the normal floats while some
    x_i is positive, the mean is s * M_p(x / s), s the largest x_i for p > 0
    and the smallest for p < 0; an infinite s (some x_i inf for p > 0, all
    of them for p < 0) gives an infinite mean.
    """
    if not xs:
        raise ValidationError("p_average of an empty sequence")
    if p == INF:
        return max(xs)
    if p < 0.0:
        for x in xs:
            if x < DELTA_ZERO:
                raise ZeroWithNegativeExponent(x)
    try:
        avg = _plain_mean(xs, p)
    except OverflowError:
        avg = 0.0
    if avg == 0.0 and max(xs) > 0.0:
        s = max(xs) if p > 0.0 else min(xs)
        avg = s if s == INF else s * _plain_mean([x / s for x in xs], p)
    return avg


def _plain_mean(xs, q) -> float:
    return _root_mean(math.fsum(_power_terms(xs, q)), len(xs), q)


def _power_terms(xs, q) -> list[float]:
    """The terms x^q that the plain mean sums."""
    if q == 0.5:
        # sqrt is correctly rounded where pow(x, 0.5) need not be
        return [math.sqrt(x) for x in xs]
    return [x ** q for x in xs]


def _root_mean(total: float, count: int, q: float) -> float:
    """(total / count)^(1/q), the plain mean of count terms summing to total."""
    mean = total / count
    if q == 0.5:
        return mean ** 2
    # a zero or subnormal mean has lost bits that the 1/q root would magnify
    return 0.0 if mean < sys.float_info.min else mean ** (1.0 / q)


def kii(m: MultiplicativePCMatrix | AdditivePCMatrix, p) -> float:
    """Kii_{n,p} of a PC matrix in either form.

    Raises IndicatorUndefined for p < 0 when some triad defect is below
    DELTA_ZERO -- the indicator's hole around the consistent set -- naming
    the offending triad.
    """
    return point_at(m, p).value


def kii_logs(n: int, logs, q: float) -> tuple[float, tuple[float, ...], float]:
    """Kii_{n,q} of log coordinates, with the triad defects and their q-mean.

    q must be normalized; validates nothing, as the descent's inner loop needs.
    """
    ds = all_defects(n, logs)
    try:
        avg = p_average(ds, q)
    except ZeroWithNegativeExponent:
        k = next(k for k, d in enumerate(ds) if d < DELTA_ZERO)
        raise IndicatorUndefined(q, triad_slots(n)[k][0], ds[k]) from None
    return 1.0 - math.exp(-avg), ds, avg


class Point(NamedTuple):
    """An unvalidated triangle (a_ij if mult, else b_ij), its logs and kii_logs at q."""

    n: int
    upper: tuple[float, ...]
    logs: tuple[float, ...]
    mult: bool
    q: float
    value: float
    defects: tuple[float, ...]
    mean: float


def evaluate(n: int, upper: tuple[float, ...], mult: bool, q: float) -> Point:
    """The Point of a raw triangle; q must be normalized.  Validates nothing."""
    logs = log_upper(upper, mult)
    return Point(n, upper, logs, mult, q, *kii_logs(n, logs, q))


def point_at(m: MultiplicativePCMatrix | AdditivePCMatrix, p) -> Point:
    """The Point of a PC matrix in either form at exponent p (checked here)."""
    return evaluate(m.n, m.upper, m.scheme == MULTIPLICATIVE, normalize_exponent(p))
