"""Independent reference computations the tests check the library against.

None of these is part of pcreduce: the library evaluates every triad
through core.all_defects, and these closed forms and constructions exist
only to cross-check it.
"""

import math

from pcreduce.core import MultiplicativePCMatrix, all_defects, log_upper, upper_pairs


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


def to_grid(m) -> list[list[float]]:
    """The full n x n matrix of either form, rebuilt entry by entry."""
    return [[m.entry(i, j) for j in range(1, m.n + 1)] for i in range(1, m.n + 1)]


def is_consistent(m: MultiplicativePCMatrix, tol: float = 0.0) -> bool:
    """True iff every triad defect of the log-image is <= tol."""
    return max(all_defects(m.n, log_upper(m.upper, True))) <= tol


def consistent_from_weights(w) -> MultiplicativePCMatrix:
    """The exactly consistent matrix a_ij = w_i / w_j of positive weights."""
    weights = [float(x) for x in w]
    upper = tuple(weights[i - 1] / weights[j - 1] for i, j in upper_pairs(len(weights)))
    return MultiplicativePCMatrix(len(weights), upper)


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
