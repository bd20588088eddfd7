"""Instant and difference priority vectors, and select_direction, the one way in.

Every function here returns a DESCENT direction: iW = -grad ii, a plain
tuple of floats in the matrices' upper-triangle storage order.  Moving an
infinitesimal step along the returned vector strictly decreases the
indicator.

Two routes exist.  The analytic route (instant_pv_np) differentiates the
indicator in closed form and is only available where Kii_{n,p} is C^1 --
finite p outside {0, 1}, or any p at order 3 -- and away from zero defects.
The difference route (difference_priority_vector) replaces each partial
derivative by the forward one-sided quotient [ii(A + l*e_ij) - ii(A)] / l
and works for every p, including 1 and infinity; it is the route the
reproduction experiments use.  Its moved indicator values come from
indicators.moved_kii, which owns the arithmetic of K_p.
"""

import math
import sys
from math import copysign

from .core import real, triad, triad_slots, upper_size
from .errors import DegenerateDefect, NonSmoothExponent, OnConsistentLocus, ValidationError
from .indicators import INF, Point, moved_kii

ANALYTIC = "analytic"
DIFFERENCE = "difference"

#: minimum triad defect for analytic-gradient evaluation (d^(p-1) diverges
#: below it when p < 1; sign(u) is meaningless at u = 0 for any p)
DELTA_GRAD = 1e-9


def instant_pv_np(pt: Point) -> tuple[float, ...]:
    """Descent direction -grad Kii_{n,p} at pt, for finite p outside {0, 1} or n = 3.

    Written in the ratio form

        iW_rs = -e^(-D) * (1/N) * sum_t (d_t / D)^(p-1) * sigma(t, rs) / a_rs

    over the triads t containing the pair (r,s), where D is the p-average of
    the defects, sigma is +sign(u_t) for the (i,j) and (j,k) slots and
    -sign(u_t) for the (i,k) slot, u_t being pt.residuals[t].  The
    (d/D)^(p-1) ratio keeps the weights finite where raw d^(p-1) would
    overflow.  One comprehension over pt's residuals builds the signed
    weights and the loop over triad_slots only adds them up, so no Python
    function is called per triad.  At n = 3, D = d for every p, so the
    vector is the single-triad form sign(u) * e^(-|u|) * (-1/a12, 1/a13,
    -1/a23) with u = ln a12 + ln a23 - ln a13 (exactly at p = 1 and inf, to
    round-off elsewhere).  An additive pt drops the 1/a_rs factor.
    select_direction checks that p is smooth.
    """
    n, ds, big = pt.n, pt.defects, pt.mean
    worst = min(ds)  # the first least defect; a nan in first place hides the rest
    if worst < DELTA_GRAD:
        if max(ds) < DELTA_GRAD:
            raise OnConsistentLocus(
                "all triad defects vanish; no descent direction exists"
            )
        raise DegenerateDefect(triad(n, ds.index(worst)), worst)
    scale = math.exp(-big) / len(ds)
    if scale == 0.0:  # e^(-D) underflows: K_p reads 1.0 here and all around
        return (0.0,) * upper_size(n)
    e = pt.q - 1.0
    # the signed weights sign(u_t) * scale * (d_t / D)^(p-1); at q = 2 the
    # pow drops out, and u / D == sign(u) * (d / D) as rounding is symmetric
    if e == 1.0:
        ws = [scale * (u / big) for u in pt.residuals]
    else:
        ws = [copysign(scale * (d / big) ** e, u) for u, d in zip(pt.residuals, ds)]
    grad = [0.0] * upper_size(n)
    for (ij, jk, ik), w in zip(triad_slots(n), ws):
        grad[ij] += w
        grad[jk] += w
        grad[ik] -= w
    if pt.mult:
        return tuple([-g / a for g, a in zip(grad, pt.upper)])
    return tuple([-g for g in grad])


def difference_priority_vector(pt: Point, l: float) -> tuple[float, ...]:
    """Discrete analog of the instant priority vector: negated forward quotients.

    Component (i,j) is -[kii(A', p) - kii(A, p)] / l where A' perturbs only
    the (i,j) upper entry by +l (its mirror follows from the representation)
    and kii(A, p) is pt.value.  Perturbations act on the log coordinates, a
    multiplicative a_ij + l entering as ln(a_ij + l); select_direction checks l.
    kii(A', p) is indicators.moved_kii's value of pt with that log moved.
    """
    value_at, base = moved_kii(pt), pt.value
    logs = list(pt.logs)
    comps = []
    for k, saved in enumerate(logs):
        logs[k] = math.log(pt.upper[k] + l) if pt.mult else saved + l
        comps.append(-(value_at(k, logs) - base) / l)
        logs[k] = saved
    return tuple(comps)


def select_direction(n: int, p: float, gradient: str, l: float | None = None):
    """The direction function of gradient at order n: the one way into the direction code.

    It checks once what a run needs (a real 0 < l < inf for the difference
    direction, a p where K_p is C^1 for the analytic one above order 3) and
    maps a Point evaluated at p to its direction, a tuple in upper-triangle
    storage order.  p is normalize_exponent's, so never 0.
    """
    if gradient == DIFFERENCE:
        l = None if l is None else real(l, "l")
        if l is None or not (0.0 < l <= sys.float_info.max):
            raise ValidationError(
                f"difference gradient needs an increment l in (0, inf), got {l!r}")
        return lambda pt: difference_priority_vector(pt, l)
    if gradient != ANALYTIC:
        raise ValidationError(f"unknown gradient kind {gradient!r}")
    # at order 3, K_p = 1 - e^(-d) for every p: smooth away from d = 0
    if n > 3 and p in (1.0, INF):
        raise NonSmoothExponent(p)
    return instant_pv_np
