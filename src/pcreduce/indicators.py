"""The p-inconsistency indicator family Kii_{n,p}.

Kii_{n,p}(A) = 1 - exp(-||(d_t)||_p) where d_t ranges over the C(n,3) triad
defects of the log-image and ||.||_p is the p-average with the 1/C(n,3)
normalization inside.  p = infinity takes the plain maximum (the classical
triad-based index); p may be negative (harmonic-type means), in which case
the indicator has a hole: it is undefined whenever some defect vanishes.

Defects are always computed from the log coordinates (core.log_upper), never
by multiplying raw entries, so matrices with entries like e^3 cannot overflow
their triad products.

kernels(n, q) evaluates K_p afresh, one kernel per (n, p) chosen once;
moved_kii evaluates it with one log of a Point moved, for the forward
quotients.  power_mean(q) is the one mean of defects: kernels and p_average
take it, and moved_kii takes power_form's plain form.  A move touches only
the n - 2 triads that contain the entry, so from order INCREMENTAL_MIN_ORDER
on moved_kii updates the Point's defects in O(n) instead of sweeping all
C(n,3) triads (O(n^3) per difference direction, not O(n^5)), bit for bit as
the fresh evaluation.  A moved defect uses the triad kernel's own expression
on the moved logs.  For finite p the base terms d^p are kept as an exact
expansion (the role of Shewchuk's partials, "Adaptive Precision
Floating-Point Arithmetic", 1997, the algorithm inside math.fsum), and fsum
over it, the negated old terms and the new ones is the correctly rounded
exact sum, which is what fsum over the moved point's terms returns.  For
p = inf the largest untouched base defect comes from the n - 1 largest.  The
moved value is the fresh one where the plain mean does not apply: d^p
overflows, the mean lands on power_mean's scaled form, or at p < 0 a moved
defect falls into the hole (the fresh kernel raises).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, partial
from heapq import nlargest
from itertools import chain
from typing import NamedTuple

from .core import (
    CACHED_ORDERS,
    MULTIPLICATIVE,
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    residuals,
    triad,
    triad_slots,
    upper_size,
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
    try:
        if isinstance(p, str):  # float would parse it
            raise TypeError
        q = float(p)
    except TypeError:  # a str, None, a complex
        raise InvalidExponent(p, "exponent must be numeric (or math.inf)") from None
    except OverflowError:  # an int beyond float range
        raise InvalidExponent(p, "exponent is beyond float range") from None
    if math.isnan(q):
        raise InvalidExponent(p, "NaN is not an exponent")
    if q == 0.0:
        raise InvalidExponent(p, "p = 0 degenerates the indicator to a constant")
    if q == -INF:
        raise InvalidExponent(p, "only +infinity is supported")
    if abs(q) < P_MIN:
        raise InvalidExponent(p, f"|p| below {P_MIN:g} loses the mean's accuracy")
    return q


#: a mean of the terms below this (zero or subnormal) has lost bits that the
#: 1/q root would magnify: it has no plain root
_MEAN_FLOOR = sys.float_info.min


@lru_cache(maxsize=64)
def power_form(q: float):
    """(terms, e): the plain q-mean of N values xs is (fsum(terms(xs)) / N) ** e.

    q is finite and normalized.  The plain form applies where nothing
    overflows, the mean of the terms is at least _MEAN_FLOOR and the root is
    not 0.  The terms are x itself at q = 1 (x ** 1.0 == x), sqrt(x) at
    q = 1/2 (correctly rounded where pow(x, 0.5) need not be, e = 2), else
    x ** q with e = 1/q.
    """
    if q == 1.0:
        return iter, 1.0
    if q == 0.5:
        return partial(map, math.sqrt), 2.0
    return (lambda xs: [x ** q for x in xs]), 1.0 / q


@lru_cache(maxsize=64)
def power_mean(q: float):
    """The q-mean of a non-empty sequence of defects at a normalized q: max at q = inf.

    At finite q, for q < 0 any value below DELTA_ZERO raises
    ZeroWithNegativeExponent: x^q blows up and the mean is no longer
    meaningful.  The mean is power_form's plain form where that applies,
    else s * M_q(x / s), s the largest value for q > 0 and the smallest for
    q < 0.  An infinite s (some value inf for q > 0, all of them for q < 0)
    or an overflowing scaled root gives an infinite mean.  Nothing else is
    checked: kernels' defects are abs values.
    """
    if q == INF:
        return max
    terms, e = power_form(q)

    def mean(xs):
        # a nan first hides a zero from min: the loop finds it
        if q < 0.0 and not min(xs) >= DELTA_ZERO:
            for x in xs:
                if x < DELTA_ZERO:
                    raise ZeroWithNegativeExponent(x)
        try:
            avg = math.fsum(terms(xs)) / len(xs)
            avg = 0.0 if avg < _MEAN_FLOOR else avg ** e
        except OverflowError:
            avg = 0.0
        if avg == 0.0 and not max(xs) <= 0.0:
            s = max(xs) if q > 0.0 else min(xs)
            if s == INF:
                return INF
            # the term of s is 1, so this mean is at least 1/N: only its root
            # can overflow, at q < 0 where the plain root did too
            avg = math.fsum(terms([x / s for x in xs])) / len(xs)
            try:
                avg = s * avg ** e
            except OverflowError:
                avg = INF
        return avg

    return mean


def p_average(xs, p) -> float:
    """((1/N) sum x_i^p)^(1/p), max of the x_i when p = inf: power_mean's, checked.

    This is where an outside sequence enters the mean: p must pass
    normalize_exponent, and xs must be non-empty with no negative value (a
    NaN passes, and the mean is NaN).
    """
    if not xs:
        raise ValidationError("p_average of an empty sequence")
    q = normalize_exponent(p)
    for x in xs:
        if x < 0.0:
            raise ValidationError(f"p_average of a negative value: got {x!r}")
    return power_mean(q)(xs)


def kii(m: MultiplicativePCMatrix | AdditivePCMatrix, p) -> float:
    """Kii_{n,p} of a PC matrix in either form.

    Raises IndicatorUndefined for p < 0 when some triad defect is below
    DELTA_ZERO -- the indicator's hole around the consistent set -- naming
    the offending triad.
    """
    return point_at(m, p).value


@lru_cache(maxsize=64)
def kernels(n: int, q: float):
    """(fresh, value_at): the K_q kernels of log coordinates of order n at a normalized q.

    fresh(logs) is (K_q, the signed triad residuals, the defects, their
    q-mean); value_at(k, logs) is K_q alone, with moved_kii's signature (k
    unused).  Neither validates anything, as the descent's inner loop needs.
    fresh sweeps core.residuals once and takes the defects as their abs;
    value_at sweeps core.all_defects.  Both take power_mean(q); in its hole
    they raise IndicatorUndefined naming the triad.
    """
    mean = power_mean(q)

    def fresh(logs):
        us = residuals(n, logs)
        ds = tuple(map(abs, us))
        try:
            avg = mean(ds)
        except ZeroWithNegativeExponent:
            raise undefined(ds) from None
        return 1.0 - math.exp(-avg), us, ds, avg

    def value_at(k, logs):
        ds = all_defects(n, logs)
        try:
            return 1.0 - math.exp(-mean(ds))
        except ZeroWithNegativeExponent:
            raise undefined(ds) from None

    def undefined(ds):
        k = next(k for k, d in enumerate(ds) if d < DELTA_ZERO)
        return IndicatorUndefined(q, triad(n, k), ds[k])

    return fresh, value_at


class Point(NamedTuple):
    """An unvalidated triangle (a_ij if mult, else b_ij), its logs and kernels' fresh K_q.

    residuals are the triads' signed u = b_ij + b_jk - b_ik in triad_slots
    order, and defects their abs.
    """

    n: int
    upper: tuple[float, ...]
    logs: tuple[float, ...]
    mult: bool
    q: float
    value: float
    residuals: tuple[float, ...]
    defects: tuple[float, ...]
    mean: float


def evaluate(n: int, upper: tuple[float, ...], mult: bool, q: float) -> Point:
    """The Point of a raw triangle; q must be normalized.  Validates nothing."""
    logs = log_upper(upper, mult)
    return Point(n, upper, logs, mult, q, *kernels(n, q)[0](logs))


def point_at(m: MultiplicativePCMatrix | AdditivePCMatrix, p) -> Point:
    """The Point of a PC matrix in either form at exponent p (checked here)."""
    return evaluate(m.n, m.upper, m.scheme == MULTIPLICATIVE, normalize_exponent(p))


#: the smallest order whose moved_kii updates the base Point.  Per difference
#: direction on a generic multiplicative matrix (best of 5, three runs, Python
#: 3.11, 2 vCPUs), fresh kernel vs updated: n = 4 11-23 vs 22-33 us, n = 5
#: 26-68 vs 32-60 us (either way by p), n = 6 53-144 vs 46-94 us, the update
#: no slower at each of p = 2, 1, 1/2, inf, -1.
INCREMENTAL_MIN_ORDER = 6


def moved_kii(pt: Point):
    """value_at(k, logs): Kii_{n,q} at pt.q of pt's logs with log k moved to logs[k].

    value_at is the fresh kernel's below INCREMENTAL_MIN_ORDER or at a
    non-finite defect of pt, else the module docstring's O(n) update of pt.
    """
    n, ds, q = pt.n, pt.defects, pt.q
    fresh = kernels(n, q)[1]
    # an inf defect (an overflowing additive triad) or a nan one (inf - inf)
    # neither cancels exactly in a sum nor orders in a max
    if n < INCREMENTAL_MIN_ORDER or not all(map(math.isfinite, ds)):
        return fresh
    pairs = _pair_triads(n)
    if q == INF:
        slots = triad_slots(n)
        # the n - 2 triads one move touches cannot cover the n - 1 largest
        # defects once n > 3; at n = 3 the default 0.0 is below every defect
        tops = nlargest(n - 1, range(len(ds)), key=ds.__getitem__)

        def moved_max(k, logs):
            new = max(abs(logs[a] + logs[b] - logs[c]) for a, b, c in pairs[k][1])
            rest = next((ds[t] for t in tops if k not in slots[t]), 0.0)
            return 1.0 - math.exp(-max(new, rest))

        return moved_max
    terms, e = power_form(q)
    try:
        base = list(terms(ds))
        parts = _exact_parts(base)
    except OverflowError:
        return fresh
    neg = [-x for x in base]
    count = len(ds)

    def moved_mean(k, logs):
        ts, rows = pairs[k]
        new = [abs(logs[a] + logs[b] - logs[c]) for a, b, c in rows]
        if q < 0.0 and min(new) < DELTA_ZERO:
            return fresh(k, logs)
        try:
            avg = math.fsum(chain(parts, [neg[t] for t in ts], terms(new))) / count
            avg = 0.0 if avg < _MEAN_FLOOR else avg ** e
        except OverflowError:
            return fresh(k, logs)
        return 1.0 - math.exp(-avg) if avg != 0.0 else fresh(k, logs)

    return moved_mean


@lru_cache(maxsize=CACHED_ORDERS)
def _pair_triads(n: int):
    """Per upper position k, (ts, rows): the triads t that contain k and their own table rows."""
    slots, ts = triad_slots(n), [[] for _ in range(upper_size(n))]
    for t, row in enumerate(slots):
        for k in row:
            ts[k].append(t)
    return tuple((tuple(tk), tuple(map(slots.__getitem__, tk))) for tk in ts)


def _exact_parts(terms: list[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of terms.

    Each part is fsum's correctly rounded value of what the previous parts
    leave, so the parts play the role of Shewchuk's partials.
    """
    parts = []
    rest = math.fsum(terms)
    while rest:
        parts.append(rest)
        rest = math.fsum(terms + [-x for x in parts])
    return parts
