"""Instant and difference priority vectors.

Every function here returns a DESCENT direction: iW = -grad ii, a plain
tuple of floats in the matrices' upper-triangle storage order.  Moving an
infinitesimal step along the returned vector strictly decreases the
indicator.

Two routes exist.  The analytic route (instant_pv*) differentiates the
indicator in closed form and is only available where Kii_{n,p} is C^1 --
finite p outside {0, 1} -- and away from zero defects.  The difference route
(difference_priority_vector) replaces each partial derivative by the forward
one-sided quotient [ii(A + l*e_ij) - ii(A)] / l and works for every p,
including 1 and infinity; it is the route the reproduction experiments use.
"""

from __future__ import annotations

import math

from .core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    triad_slots,
    upper_size,
)
from .errors import DegenerateDefect, NonSmoothExponent, OnConsistentLocus
from .indicators import DELTA_ZERO, INF, kii_logs, normalize_exponent, p_average

#: minimum triad defect for analytic-gradient evaluation (d^(p-1) diverges
#: below it when p < 1; sign(u) is meaningless at u = 0 for any p)
DELTA_GRAD = 1e-9


def instant_pv3_mult(x: float, y: float, z: float) -> tuple[float, ...]:
    """Descent direction of the triad indicator at (a12, a13, a23) = (x, y, z).

    With u = ln y - ln x - ln z != 0 the components are
    sign(u) * e^(-|u|) * (1/x, -1/y, 1/z).
    """
    u = math.log(y) - math.log(x) - math.log(z)
    if abs(u) < DELTA_ZERO:
        raise OnConsistentLocus("triad is consistent; no descent direction exists")
    s = math.copysign(1.0, u)
    e = math.exp(-abs(u))
    return (s * e / x, -s * e / y, s * e / z)


def instant_pv3_add(a: float, b: float, c: float) -> tuple[float, ...]:
    """Additive-form descent direction at (b12, b13, b23) = (a, b, c).

    With u = a + c - b != 0 the components are sign(u) * e^(-|u|) * (-1, +1, -1).
    """
    u = a + c - b
    if abs(u) < DELTA_ZERO:
        raise OnConsistentLocus("triad is consistent; no descent direction exists")
    s = math.copysign(1.0, u)
    e = math.exp(-abs(u))
    return (-s * e, s * e, -s * e)


def instant_pv_np(m: MultiplicativePCMatrix | AdditivePCMatrix, p) -> tuple[float, ...]:
    """Descent direction -grad Kii_{n,p} for finite p outside {0, 1}.

    Written in the ratio form

        iW_rs = -e^(-D) * (1/N) * sum_t (d_t / D)^(p-1) * sigma(t, rs) / a_rs

    over the triads t containing the pair (r,s), where D is the p-average of
    the defects, sigma is +sign(u_t) for the (i,j) and (j,k) slots and
    -sign(u_t) for the (i,k) slot.  The (d/D)^(p-1) ratio keeps the weights
    finite where raw d^(p-1) would overflow, and makes the n = 3 case
    collapse onto instant_pv3_mult to round-off.  For an additive matrix the same
    expression applies without the 1/a_rs factor.
    """
    if p in (0.0, 1.0, INF):
        raise NonSmoothExponent(float(p))
    q = normalize_exponent(p)
    n = m.n
    logs = log_upper(m)
    slots = triad_slots(n)
    ds = all_defects(n, logs)
    worst = min(range(len(ds)), key=lambda t: ds[t])
    if ds[worst] < DELTA_GRAD:
        if max(ds) < DELTA_GRAD:
            raise OnConsistentLocus(
                "all triad defects vanish; no descent direction exists"
            )
        raise DegenerateDefect(slots[worst][0], ds[worst])
    big = p_average(ds, q)
    scale = math.exp(-big) / len(ds)
    grad = [0.0] * upper_size(n)
    for (_, ij, jk, ik), d in zip(slots, ds):
        s = math.copysign(1.0, logs[ij] + logs[jk] - logs[ik])
        w = scale * (d / big) ** (q - 1.0)
        grad[ij] += s * w
        grad[jk] += s * w
        grad[ik] -= s * w
    if isinstance(m, MultiplicativePCMatrix):
        return tuple(-g / a for g, a in zip(grad, m.upper))
    return tuple(-g for g in grad)


def difference_priority_vector(
    m: MultiplicativePCMatrix | AdditivePCMatrix, p, l: float, base: float | None = None
) -> tuple[float, ...]:
    """Discrete analog of the instant priority vector: negated forward quotients.

    Component (i,j) is -[kii(A', p) - kii(A, p)] / l where A' perturbs only
    the (i,j) upper entry by +l (its mirror follows from the representation).
    base is kii(A, p) if the caller has it.  Perturbations act on the log
    coordinates, a multiplicative a_ij + l entering as ln(a_ij + l).
    """
    if l is None or not (l > 0.0):
        raise ValueError(f"difference increment l must be > 0, got {l!r}")
    q = normalize_exponent(p)
    n = m.n
    logs = list(log_upper(m))
    if base is None:
        base = kii_logs(n, logs, q)
    mult = isinstance(m, MultiplicativePCMatrix)
    comps = []
    for k, saved in enumerate(logs):
        logs[k] = math.log(m.upper[k] + l) if mult else saved + l
        comps.append(-(kii_logs(n, logs, q) - base) / l)
        logs[k] = saved
    return tuple(comps)
