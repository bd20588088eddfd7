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

from .core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    enumerate_triads,
    log_upper,
)
from .errors import IndicatorUndefined, InvalidExponent, ZeroWithNegativeExponent

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
    overflows, or underflows to 0 while some x_i is positive (0^(1/p) for
    p < 0, a zero mean for p > 0), the mean is s * M_p(x / s), s the largest
    x_i for p > 0 and the smallest for p < 0.
    """
    if not xs:
        raise ValueError("p_average of an empty sequence")
    if p == INF:
        return max(xs)
    if p < 0.0:
        for x in xs:
            if x < DELTA_ZERO:
                raise ZeroWithNegativeExponent(x)
    try:
        avg = _plain_mean(xs, p)
    except (OverflowError, ZeroDivisionError):
        avg = 0.0
    if avg == 0.0 and max(xs) > 0.0:
        s = max(xs) if p > 0.0 else min(xs)
        avg = s * _plain_mean([x / s for x in xs], p)
    return avg


def _plain_mean(xs, q) -> float:
    if q == 0.5:
        # sqrt is correctly rounded where pow(x, 0.5) need not be
        return (math.fsum(math.sqrt(x) for x in xs) / len(xs)) ** 2
    return (math.fsum(x ** q for x in xs) / len(xs)) ** (1.0 / q)


def kii3(x: float, y: float, z: float) -> float:
    """Triad indicator 1 - exp(-|ln x + ln z - ln y|) for (a12, a13, a23) = (x, y, z).

    Canonical exponential form; equals the min form 1 - min(y/(xz), xz/y)
    exactly (see kii3_min_form) but is immune to overflow in x*z.
    """
    u = math.log(x) + math.log(z) - math.log(y)
    return 1.0 - math.exp(-abs(u))


def kii3_min_form(x: float, y: float, z: float) -> float:
    """Equivalent closed form 1 - min(y/(xz), xz/y); kept as a cross-check."""
    r = y / (x * z)
    return 1.0 - min(r, 1.0 / r)


def kii(m: MultiplicativePCMatrix | AdditivePCMatrix, p) -> float:
    """Kii_{n,p} of a PC matrix in either form.

    Raises IndicatorUndefined for p < 0 when some triad defect is below
    DELTA_ZERO -- the indicator's hole around the consistent set -- naming
    the offending triad.
    """
    return kii_logs(m.n, log_upper(m), normalize_exponent(p))


def kii_logs(n: int, logs, q: float) -> float:
    """Kii_{n,q} of log coordinates (core.log_upper); q must be normalized.

    Validates nothing: the descent's inner loop calls it on trusted coordinates.
    """
    ds = all_defects(n, logs)
    try:
        avg = p_average(ds, q)
    except ZeroWithNegativeExponent:
        k = next(k for k, d in enumerate(ds) if d < DELTA_ZERO)
        raise IndicatorUndefined(q, enumerate_triads(n)[k], ds[k]) from None
    return 1.0 - math.exp(-avg)
