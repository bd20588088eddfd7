"""Iterative consistencization by constant-step descent.

The multiplicative scheme updates the upper triangle directly,
A_{n+1} = A_n + h * w_n, guarding positivity by halving any offending
entry's step (at most 60 times).  The additive scheme converts the start
matrix to log space once and runs B_{n+1} = B_n + h * w_n there, where no
positivity issue exists.  w_n is the selected priority direction at the
current iterate: analytic (instant) or forward-difference.

A run records every iterate and stops on the first of
  converged            indicator below eps,
  stalled              no improvement of the running minimum by at least
                       1e-12 for stall_window consecutive iterations,
  max_iter             iteration cap reached,
  indicator_undefined  indicator or direction evaluation failed
                       (typically p < 0 falling into the consistent hole),
  positivity_failure   a step could not preserve positivity.
The best iterate (first attainment of the minimum recorded indicator, the
"best rank n") is returned regardless of the stop reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    to_additive,
    to_multiplicative,
    upper_pairs,
)
from .errors import EvaluationError, PositivityFailure
from .gradients import (
    DirectionVector,
    difference_priority_vector,
    instant_pv3_add,
    instant_pv3_mult,
    instant_pv_np,
)
from .indicators import kii, normalize_exponent

#: minimum running-min improvement that counts against the stall window
STALL_IMPROVEMENT = 1e-12

#: positivity guard: maximum step halvings before giving up
MAX_HALVINGS = 60

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
ANALYTIC = "analytic"
DIFFERENCE = "difference"

STOP_CONVERGED = "converged"
STOP_STALLED = "stalled"
STOP_MAX_ITER = "max_iter"
STOP_POSITIVITY = "positivity_failure"
STOP_UNDEFINED = "indicator_undefined"


@dataclass(frozen=True)
class DescentConfig:
    p: float
    h: float
    scheme: str = MULTIPLICATIVE
    gradient: str = DIFFERENCE
    l: float | None = None
    eps: float = 1e-4
    max_iter: int = 100000
    stall_window: int = 50

    def __post_init__(self):
        object.__setattr__(self, "p", normalize_exponent(self.p))
        if self.scheme not in (MULTIPLICATIVE, ADDITIVE):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.gradient not in (ANALYTIC, DIFFERENCE):
            raise ValueError(f"unknown gradient kind {self.gradient!r}")
        if not (self.h > 0.0):
            raise ValueError(f"step h must be > 0, got {self.h!r}")
        if self.gradient == DIFFERENCE:
            if self.l is None or not (self.l > 0.0):
                raise ValueError(
                    f"difference gradient needs an increment l > 0, got {self.l!r}"
                )
        if not (self.eps > 0.0):
            raise ValueError(f"eps must be > 0, got {self.eps!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.stall_window < 1:
            raise ValueError(f"stall_window must be >= 1, got {self.stall_window!r}")


class TraceRecord(NamedTuple):
    iteration: int
    upper: tuple[float, ...]
    indicator: float
    direction_norm: float | None


class ClampEvent(NamedTuple):
    iteration: int
    i: int
    j: int
    halvings: int


@dataclass(frozen=True)
class IterationTrace:
    records: tuple[TraceRecord, ...]
    clamp_events: tuple[ClampEvent, ...] = ()


@dataclass(frozen=True)
class DescentResult:
    best_iter: int
    best_matrix: MultiplicativePCMatrix | AdditivePCMatrix | None
    best_indicator: float | None
    stop_reason: str
    trace: IterationTrace

    @property
    def best_upper(self) -> tuple[float, ...]:
        return self.best_matrix.upper


def step_multiplicative(
    m: MultiplicativePCMatrix,
    v: DirectionVector,
    h: float,
    clamp_log: list | None = None,
) -> MultiplicativePCMatrix:
    """One update a_ij + h*v_ij with per-entry positivity halving.

    If a raw update would leave the positive cone, only that entry's step is
    halved until it does not (at most MAX_HALVINGS times); each such clamp is
    appended to clamp_log as (i, j, halvings).  PositivityFailure is raised
    if the halvings are exhausted.
    """
    if not (h > 0.0):
        raise ValueError(f"step h must be > 0, got {h!r}")
    new = []
    for (i, j), a, c in zip(upper_pairs(m.n), m.upper, v.components):
        step = h * c
        value = a + step
        if value <= 0.0:
            halvings = 0
            while value <= 0.0:
                if halvings >= MAX_HALVINGS:
                    raise PositivityFailure(i, j, a, h * c)
                step *= 0.5
                value = a + step
                halvings += 1
            if clamp_log is not None:
                clamp_log.append((i, j, halvings))
        new.append(value)
    return m.replace_upper(new)


def step_additive(
    b: AdditivePCMatrix, v: DirectionVector, h: float
) -> AdditivePCMatrix:
    """One update b_ij + h*v_ij; the multiplicative image stays positive."""
    if not (h > 0.0):
        raise ValueError(f"step h must be > 0, got {h!r}")
    return b.replace_upper(tuple(x + h * c for x, c in zip(b.upper, v.components)))


def select_direction(
    mat, p: float, gradient: str, l: float | None = None, base: float | None = None
) -> DirectionVector:
    """Priority direction at mat: forward-difference or instant (analytic).

    base, if given, is kii(mat, p); the difference direction reuses it.
    """
    if gradient == DIFFERENCE:
        return difference_priority_vector(mat, p, l, base)
    if gradient != ANALYTIC:
        raise ValueError(f"unknown gradient kind {gradient!r}")
    if mat.n == 3:
        # every 3x3 indicator collapses onto the single-triad form, which is
        # smooth for all p (including 1 and inf) away from the consistent locus
        if isinstance(mat, MultiplicativePCMatrix):
            return instant_pv3_mult(*mat.upper)
        return instant_pv3_add(*mat.upper)
    return instant_pv_np(mat, p)


def run(m0: MultiplicativePCMatrix | AdditivePCMatrix, cfg: DescentConfig) -> DescentResult:
    """Descend from m0 under cfg; every stop reason returns a DescentResult.

    A multiplicative start is converted once when scheme = additive (and an
    additive start once when scheme = multiplicative, raising EntryOverflow
    for an entry exp cannot represent); the whole run then executes in the
    scheme's own coordinates.  Each iteration evaluates kii once and builds
    one validated matrix, the iterate the step returns.
    """
    if cfg.scheme == ADDITIVE:
        mat = to_additive(m0) if isinstance(m0, MultiplicativePCMatrix) else m0
    else:
        mat = to_multiplicative(m0) if isinstance(m0, AdditivePCMatrix) else m0

    records: list[TraceRecord] = []
    clamps: list[ClampEvent] = []
    best_ii = math.inf
    best_iter = -1
    best_upper: tuple[float, ...] | None = None
    ref = math.inf
    stall = 0
    n = 0
    stop = None

    while True:
        try:
            ii = kii(mat, cfg.p)
        except EvaluationError:
            stop = STOP_UNDEFINED
            break
        if ii < best_ii:
            best_ii, best_iter, best_upper = ii, n, mat.upper
        if ref - ii >= STALL_IMPROVEMENT:
            ref = ii
            stall = 0
        else:
            stall += 1
        if ii < cfg.eps:
            stop = STOP_CONVERGED
        elif stall >= cfg.stall_window:
            stop = STOP_STALLED
        elif n >= cfg.max_iter:
            stop = STOP_MAX_ITER
        else:
            try:
                v = select_direction(mat, cfg.p, cfg.gradient, cfg.l, ii)
            except EvaluationError:
                stop = STOP_UNDEFINED
        if stop is not None:
            records.append(TraceRecord(n, mat.upper, ii, None))
            break
        records.append(TraceRecord(n, mat.upper, ii, v.norm()))
        try:
            if cfg.scheme == MULTIPLICATIVE:
                raw: list = []
                mat = step_multiplicative(mat, v, cfg.h, raw)
                clamps.extend(ClampEvent(n, i, j, hv) for i, j, hv in raw)
            else:
                mat = step_additive(mat, v, cfg.h)
        except PositivityFailure:
            stop = STOP_POSITIVITY
            break
        n += 1

    best_matrix = None
    if best_upper is not None:
        best_matrix = mat.replace_upper(best_upper)
    return DescentResult(
        best_iter=best_iter,
        best_matrix=best_matrix,
        best_indicator=None if best_upper is None else best_ii,
        stop_reason=stop,
        trace=IterationTrace(tuple(records), tuple(clamps)),
    )
