"""Independent reference computations the tests check the library against.

None of these is part of pcreduce: the library evaluates every triad
through core.residuals or core.all_defects, and these closed forms and
constructions exist only to cross-check it.
"""

import math
import sys
from itertools import combinations

from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    check_order,
    log_upper,
    triad,
    triad_slots,
    upper_pairs,
    upper_size,
)
from pcreduce.errors import (
    AntisymmetryViolation,
    BadDiagonal,
    DegenerateDefect,
    IndicatorUndefined,
    NonPositiveEntry,
    OnConsistentLocus,
    ReciprocityViolation,
    ZeroWithNegativeExponent,
)
from pcreduce.gradients import DELTA_GRAD
from pcreduce.indicators import DELTA_ZERO


def outcome(f, *args):
    """f's result, or its exception's class and fields; repr tells floats apart bit for bit."""
    try:
        return repr(f(*args))
    except Exception as exc:  # the reference's exception is the expected outcome
        return type(exc).__name__, repr(vars(exc))


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


# The order-3 direction reference.  The residual keeps the triad kernel's
# association, (ln a12 + ln a23) - ln a13, so that at p = 1 and inf the
# library's instant_pv_np equals these closed forms bit for bit.

def instant_pv3_mult(x: float, y: float, z: float) -> tuple[float, ...]:
    """Descent direction of the triad indicator at (a12, a13, a23) = (x, y, z).

    With u = ln x + ln z - ln y != 0 the components are
    sign(u) * e^(-|u|) * (-1/x, 1/y, -1/z).
    """
    u = math.log(x) + math.log(z) - math.log(y)
    if abs(u) < DELTA_ZERO:
        raise OnConsistentLocus("triad is consistent; no descent direction exists")
    s = math.copysign(1.0, u)
    e = math.exp(-abs(u))
    return (-s * e / x, s * e / y, -s * e / z)


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


def reference_instant_pv_np(pt) -> tuple[float, ...]:
    """The analytic direction with one signed residual and one copysign per triad.

    The per-triad form of gradients.instant_pv_np: it takes each sign from
    the Point's logs, not from its residuals, and the degenerate triad from
    a min keyed by index.  The library's direction must equal it bit for bit.
    """
    n, logs, ds, big = pt.n, pt.logs, pt.defects, pt.mean
    worst = min(range(len(ds)), key=lambda t: ds[t])
    if ds[worst] < DELTA_GRAD:
        if max(ds) < DELTA_GRAD:
            raise OnConsistentLocus(
                "all triad defects vanish; no descent direction exists"
            )
        raise DegenerateDefect(triad(n, worst), ds[worst])
    scale = math.exp(-big) / len(ds)
    if scale == 0.0:
        return (0.0,) * upper_size(n)
    grad = [0.0] * upper_size(n)
    e = pt.q - 1.0
    for (ij, jk, ik), d in zip(triad_slots(n), ds):
        s = math.copysign(1.0, logs[ij] + logs[jk] - logs[ik])
        w = scale * (d / big if e == 1.0 else (d / big) ** e)
        grad[ij] += s * w
        grad[jk] += s * w
        grad[ik] -= s * w
    if pt.mult:
        return tuple(-g / a for g, a in zip(grad, pt.upper))
    return tuple(-g for g in grad)


# The indicator reference: K_p of log coordinates through the general power
# mean, deciding its branches on every call.  The library's per-(n, q)
# kernels fix those branches in advance and must match this bit for bit.
# It takes the triads from combinations and their positions from
# upper_index, so it checks the library's triad table instead of sharing it.

def reference_residuals(n: int, logs) -> tuple[float, ...]:
    """The signed residual b_ij + b_jk - b_ik of each triad (i,j,k), lexicographic."""
    return tuple(logs[upper_index(n, i, j)] + logs[upper_index(n, j, k)]
                 - logs[upper_index(n, i, k)]
                 for i, j, k in combinations(range(1, n + 1), 3))


def reference_kii_logs(n: int, logs, q: float) -> tuple[float, tuple[float, ...], float]:
    """(K_q, defects, q-mean) of log coordinates at a normalized q."""
    triads = list(combinations(range(1, n + 1), 3))
    ds = tuple(map(abs, reference_residuals(n, logs)))
    try:
        avg = reference_p_average(ds, q)
    except ZeroWithNegativeExponent:
        t = next(t for t, d in enumerate(ds) if d < DELTA_ZERO)
        raise IndicatorUndefined(q, triads[t], ds[t]) from None
    return 1.0 - math.exp(-avg), ds, avg


def reference_p_average(xs, p: float) -> float:
    """((1/N) sum x^p)^(1/p), max at p = inf, scaled where the plain form fails."""
    if p == math.inf:
        return max(xs)
    if p < 0.0:
        for x in xs:
            if x < DELTA_ZERO:
                raise ZeroWithNegativeExponent(x)
    try:
        avg = _reference_plain_mean(xs, p)
    except OverflowError:
        avg = 0.0
    if avg == 0.0 and not max(xs) <= 0.0:
        s = max(xs) if p > 0.0 else min(xs)
        try:
            avg = s if s == math.inf else s * _reference_plain_mean([x / s for x in xs], p)
        except OverflowError:  # the root overflows: so does the mean
            avg = math.inf
    return avg


def _reference_plain_mean(xs, q: float) -> float:
    terms = [math.sqrt(x) for x in xs] if q == 0.5 else [x ** q for x in xs]
    mean = math.fsum(terms) / len(xs)
    if q == 0.5:
        return mean ** 2
    return 0.0 if mean < sys.float_info.min else mean ** (1.0 / q)


def upper_index(n: int, i: int, j: int) -> int:
    """Position of entry (i,j), 1 <= i < j <= n, in the stored triangle, in closed form."""
    if not (1 <= i < j <= n):
        raise IndexError(f"({i},{j}) is not an upper-triangle position for n={n}")
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


def entry(m, i: int, j: int) -> float:
    """Full-matrix entry (i,j) of either form, rebuilt from the stored triangle."""
    mult = isinstance(m, MultiplicativePCMatrix)
    if i == j:
        return 1.0 if mult else 0.0
    if i < j:
        return m.upper[upper_index(m.n, i, j)]
    x = m.upper[upper_index(m.n, j, i)]
    return 1.0 / x if mult else -x


def to_grid(m) -> list[list[float]]:
    """The full n x n matrix of either form, rebuilt entry by entry."""
    return [[entry(m, i, j) for j in range(1, m.n + 1)] for i in range(1, m.n + 1)]


def grid_text(grid, mult: bool) -> str:
    """Matrix-file text of a full grid, one row per line; the library writes only triangles."""
    rows = "\n".join(" ".join(repr(x) for x in row) for row in grid)
    return f"mode={'multiplicative' if mult else 'additive'}\n{rows}\n"


# One full-grid validator per form, written apart from the library: the
# reference that the file parser's one merged grid check is tested against.

def validate_multiplicative(n: int, entries) -> MultiplicativePCMatrix:
    """Validate a full n x n grid and strip it to the canonical triangle."""
    check_order(n)
    grid = [[float(x) for x in row] for row in entries]
    if len(grid) != n or any(len(row) != n for row in grid):
        raise ValueError(f"expected an {n}x{n} grid")
    for i in range(n):
        for j in range(n):
            if not (grid[i][j] > 0.0):
                raise NonPositiveEntry(i + 1, j + 1, grid[i][j])
    for i in range(n):
        if not (abs(grid[i][i] - 1.0) <= 1e-9):
            raise BadDiagonal(i + 1, grid[i][i], 1)
    for i in range(n):
        for j in range(i + 1, n):
            residual = abs(grid[i][j] * grid[j][i] - 1.0)
            if not (residual <= 1e-9):
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
        if not (abs(grid[i][i]) <= 1e-9):
            raise BadDiagonal(i + 1, grid[i][i], 0)
    for i in range(n):
        for j in range(i + 1, n):
            residual = abs(grid[i][j] + grid[j][i])
            if not (residual <= 1e-9):
                raise AntisymmetryViolation(i + 1, j + 1, residual)
    upper = tuple(grid[i - 1][j - 1] for i, j in upper_pairs(n))
    return AdditivePCMatrix(n, upper)


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
        math.fsum(math.log(entry(m, i, j)) for j in range(1, n + 1)) / n
        for i in range(1, n + 1)
    ]
    shift = max(logs)
    raw = [math.exp(x - shift) for x in logs]
    total = math.fsum(raw)
    return tuple(x / total for x in raw)


def row_means(n: int, b) -> list[float]:
    """The row means w of the antisymmetric matrix with upper triangle b."""
    sums = [0.0] * n
    for (i, j), x in zip(upper_pairs(n), b):
        sums[i - 1] += x
        sums[j - 1] -= x
    return [s / n for s in sums]


def off_consistent(n: int, b) -> list[float]:
    """b - Pb: b less its projection w_i - w_j onto the consistent matrices.

    P, taking row means of the logs, is the Crawford-Williams geometric-mean
    projection; it is orthogonal, so Pb is the consistent matrix nearest b.
    """
    w = row_means(n, b)
    return [x - (w[i - 1] - w[j - 1]) for (i, j), x in zip(upper_pairs(n), b)]


def p2_additive_path(n: int, b0, h: float, steps: int) -> tuple[float, list[float]]:
    """D0 and s_0 .. s_steps, the p = 2 additive analytic run from b0 in one dimension.

    With N = C(n,3), sum_t u_t^2 = n ||b - Pb||^2, so D = sqrt(n ||b - Pb||^2 / N)
    and the gradient of K_2 = 1 - e^(-D) is e^(-D) n (b - Pb) / (N D): parallel
    to b - Pb, with no part that moves Pb.  Iterate k of b <- b - h grad K_2 is
    therefore Pb0 + s_k (b0 - Pb0), where s_0 = 1,

        s_{k+1} = s_k - sign(s_k) h n e^(-|s_k| D0) / (N D0),

    D0 is the D of b0, and K_k = 1 - e^(-|s_k| D0).  While s > 0, e^(s D0) falls
    by about h n / N a step, so s first crosses 0 near step N (e^D0 - 1) / (h n).
    """
    r0 = off_consistent(n, b0)
    big_n = math.comb(n, 3)
    d0 = math.sqrt(n * math.fsum(x * x for x in r0) / big_n)
    s = [1.0]
    for _ in range(steps):
        s.append(s[-1] - math.copysign(h * n * math.exp(-abs(s[-1]) * d0) / (big_n * d0), s[-1]))
    return d0, s
