"""Instant and difference priority vectors.

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
reproduction experiments use.

Moving one entry moves only the n - 2 triads that contain it, so from order
INCREMENTAL_MIN_ORDER on each quotient updates the base point's defects in
O(n) instead of sweeping all C(n,3) triads: O(n^3) per direction, not O(n^5).
The update reproduces the naive quotients bit for bit.  A moved defect uses
the triad kernel's own expression on the moved logs.  For finite p the base
terms d^p are kept as an exact expansion (the role of Shewchuk's partials,
"Adaptive Precision Floating-Point Arithmetic", 1997, the algorithm inside
math.fsum), and fsum over it, the negated old terms and the new ones is the
correctly rounded exact sum, which is what fsum over the moved point's terms
returns.  For p = inf the largest untouched base defect comes from the n - 1
largest.  A component goes to the naive evaluation where the plain mean does
not apply: d^p overflows, the mean lands on p_average's scaled form, or at
p < 0 a moved defect falls into the hole, where kii_logs raises.
"""

from __future__ import annotations

import math
from functools import lru_cache
from heapq import nlargest

from .core import triad_slots, upper_size
from .errors import DegenerateDefect, OnConsistentLocus
from .indicators import DELTA_ZERO, INF, Point, _power_terms, _root_mean, kii_logs

#: minimum triad defect for analytic-gradient evaluation (d^(p-1) diverges
#: below it when p < 1; sign(u) is meaningless at u = 0 for any p)
DELTA_GRAD = 1e-9


def instant_pv_np(pt: Point) -> tuple[float, ...]:
    """Descent direction -grad Kii_{n,p} at pt, for finite p outside {0, 1} or n = 3.

    Written in the ratio form

        iW_rs = -e^(-D) * (1/N) * sum_t (d_t / D)^(p-1) * sigma(t, rs) / a_rs

    over the triads t containing the pair (r,s), where D is the p-average of
    the defects, sigma is +sign(u_t) for the (i,j) and (j,k) slots and
    -sign(u_t) for the (i,k) slot.  The (d/D)^(p-1) ratio keeps the weights
    finite where raw d^(p-1) would overflow.  At n = 3, D = d for every p,
    so the vector is the single-triad form sign(u) * e^(-|u|) *
    (-1/a12, 1/a13, -1/a23) with u = ln a12 + ln a23 - ln a13 (exactly at
    p = 1 and inf, to round-off elsewhere).  An additive pt drops the 1/a_rs
    factor.  select_direction checks that p is smooth.
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
    if scale == 0.0:  # e^(-D) underflows: K_p reads 1.0 here and all around
        return (0.0,) * upper_size(n)
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


#: the smallest order whose difference direction takes the incremental route.
#: Per call on a generic multiplicative matrix (best of 5, Python 3.11, 2
#: vCPUs), naive vs incremental: n = 4 20-28 vs 25-28 us, n = 5 42-67 vs
#: 46-57 us (p = inf favours naive), n = 6 92-140 vs 66-84 us, 1.3-1.9x
#: faster at each of p = 2, 1, 1/2, inf, -1.
INCREMENTAL_MIN_ORDER = 6


def difference_priority_vector(pt: Point, l: float) -> tuple[float, ...]:
    """Discrete analog of the instant priority vector: negated forward quotients.

    Component (i,j) is -[kii(A', p) - kii(A, p)] / l where A' perturbs only
    the (i,j) upper entry by +l (its mirror follows from the representation)
    and kii(A, p) is pt.value.  Perturbations act on the log coordinates, a
    multiplicative a_ij + l entering as ln(a_ij + l); select_direction checks l.
    Below INCREMENTAL_MIN_ORDER every component is a fresh kii_logs; from it
    on each is an O(n) update of pt (see the module docstring), with the
    fresh evaluation as its fallback.
    """
    n, q, base = pt.n, pt.q, pt.value
    update = _updater(pt) if n >= INCREMENTAL_MIN_ORDER else None
    logs = list(pt.logs)
    comps = []
    for k, saved in enumerate(logs):
        logs[k] = math.log(pt.upper[k] + l) if pt.mult else saved + l
        value = update(k, logs) if update else None
        if value is None:
            value = kii_logs(n, logs, q)[0]
        comps.append(-(value - base) / l)
        logs[k] = saved
    return tuple(comps)


@lru_cache(maxsize=None)
def _pair_triads(n: int):
    """Per upper position k, the rows (t, ij, jk, ik) of the triads that contain k."""
    rows = [[] for _ in range(upper_size(n))]
    for t, (_, ij, jk, ik) in enumerate(triad_slots(n)):
        row = (t, ij, jk, ik)
        for k in (ij, jk, ik):
            rows[k].append(row)
    return tuple(map(tuple, rows))


def _updater(pt: Point):
    """kii of pt with one log moved, from pt's defects and the n - 2 touched triads.

    Returns update(k, logs) -> value, or None where the plain form cannot be
    trusted for the whole point; update itself returns None for a component
    the naive loop must evaluate.
    """
    ds, q = pt.defects, pt.q
    # an inf defect (an overflowing additive triad) or a nan one (inf - inf)
    # neither cancels exactly in a sum nor orders in a max
    if not all(map(math.isfinite, ds)):
        return None
    rows = _pair_triads(pt.n)
    if q == INF:
        slots = triad_slots(pt.n)
        # the n - 2 triads one move touches cannot cover the n - 1 largest
        # defects once n > 3; at n = 3 the default 0.0 is below every defect
        tops = [(ds[t], slots[t][1:])
                for t in nlargest(pt.n - 1, range(len(ds)), key=ds.__getitem__)]

        def update_max(k, logs):
            new = max(abs(logs[a] + logs[b] - logs[c]) for _, a, b, c in rows[k])
            rest = next((d for d, ks in tops if k not in ks), 0.0)
            return 1.0 - math.exp(-max(new, rest))

        return update_max
    try:
        terms = _power_terms(ds, q)
        parts = _exact_parts(terms)
    except OverflowError:
        return None
    neg = [-x for x in terms]
    count = len(ds)

    def update_mean(k, logs):
        new = [abs(logs[a] + logs[b] - logs[c]) for _, a, b, c in rows[k]]
        if q < 0.0 and min(new) < DELTA_ZERO:
            return None
        try:
            total = math.fsum(parts + [neg[t] for t, _, _, _ in rows[k]]
                              + _power_terms(new, q))
            avg = _root_mean(total, count, q)
        except OverflowError:
            return None
        return 1.0 - math.exp(-avg) if avg != 0.0 else None

    return update_mean


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
