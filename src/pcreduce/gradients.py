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

from .core import triad_slots, upper_size
from .errors import DegenerateDefect, OnConsistentLocus
from .indicators import DELTA_ZERO, Point, kii_logs

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


def instant_pv_np(pt: Point) -> tuple[float, ...]:
    """Descent direction -grad Kii_{n,p} at pt, for finite p outside {0, 1}.

    Written in the ratio form

        iW_rs = -e^(-D) * (1/N) * sum_t (d_t / D)^(p-1) * sigma(t, rs) / a_rs

    over the triads t containing the pair (r,s), where D is the p-average of
    the defects, sigma is +sign(u_t) for the (i,j) and (j,k) slots and
    -sign(u_t) for the (i,k) slot.  The (d/D)^(p-1) ratio keeps the weights
    finite where raw d^(p-1) would overflow, and makes the n = 3 case
    collapse onto instant_pv3_mult to round-off.  An additive pt drops the
    1/a_rs factor.  select_direction checks that p is smooth.
    """
    n, logs, ds, big = pt.n, pt.logs, pt.defects, pt.mean
    slots = triad_slots(n)
    worst = min(range(len(ds)), key=lambda t: ds[t])
    if ds[worst] < DELTA_GRAD:
        if max(ds) < DELTA_GRAD:
            raise OnConsistentLocus(
                "all triad defects vanish; no descent direction exists"
            )
        raise DegenerateDefect(slots[worst][0], ds[worst])
    scale = math.exp(-big) / len(ds)
    grad = [0.0] * upper_size(n)
    for (_, ij, jk, ik), d in zip(slots, ds):
        s = math.copysign(1.0, logs[ij] + logs[jk] - logs[ik])
        w = scale * (d / big) ** (pt.q - 1.0)
        grad[ij] += s * w
        grad[jk] += s * w
        grad[ik] -= s * w
    if pt.mult:
        return tuple(-g / a for g, a in zip(grad, pt.upper))
    return tuple(-g for g in grad)


def difference_priority_vector(pt: Point, l: float) -> tuple[float, ...]:
    """Discrete analog of the instant priority vector: negated forward quotients.

    Component (i,j) is -[kii(A', p) - kii(A, p)] / l where A' perturbs only
    the (i,j) upper entry by +l (its mirror follows from the representation)
    and kii(A, p) is pt.value.  Perturbations act on the log coordinates, a
    multiplicative a_ij + l entering as ln(a_ij + l); select_direction checks l.
    """
    n, q, base = pt.n, pt.q, pt.value
    logs = list(pt.logs)
    comps = []
    for k, saved in enumerate(logs):
        logs[k] = math.log(pt.upper[k] + l) if pt.mult else saved + l
        comps.append(-(kii_logs(n, logs, q)[0] - base) / l)
        logs[k] = saved
    return tuple(comps)
