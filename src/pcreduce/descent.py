"""Iterative consistencization by constant-step descent.

The multiplicative scheme updates the upper triangle directly,
A_{n+1} = A_n + h * w_n, guarding positivity by halving any offending
entry's step (at most MAX_HALVINGS times).  The additive scheme converts the
start matrix to log space once and runs B_{n+1} = B_n + h * w_n there, where
no positivity issue exists.  w_n is the selected priority direction at the
current iterate: analytic (instant) or forward-difference.

descend runs the iteration and yields each iterate it records; run, one
plain loop over it, appends each record to a TraceRecords, flat columns
rather than one TraceRecord each: an array of the upper triangles,
row-major, and one column each of iteration numbers, indicators and norms.
A TraceRecords grows only by append and builds a TraceRecord only when one
is read by its index; it is not hashable, and so neither is a trace or a
result.
The iteration stops on the first of
  converged            indicator below eps,
  stalled              no improvement of the running minimum by at least
                       1e-12 for stall_window consecutive iterations,
  max_iter             iteration cap reached,
  indicator_undefined  indicator or direction evaluation failed
                       (typically p < 0 falling into the consistent hole),
  positivity_failure   the step could not keep the iterate in the scheme's
                       domain (positive, finite).
A start in the hole raises IndicatorUndefined before iterate 0, so every
run has a best iterate (first attainment of the minimum recorded indicator,
the "best rank n"), whatever its stop reason.  The result knows its order
and scheme; a trace file (matrixio) is its text form.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    ADDITIVE,
    MATRIX_CLASSES,
    MULTIPLICATIVE,
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    check_entries,
    to_additive,
    to_multiplicative,
    upper_pairs,
)
from .errors import EvaluationError, PositivityFailure, ValidationError
from .gradients import DIFFERENCE, select_direction
from .indicators import evaluate, normalize_exponent

#: minimum running-min improvement that counts against the stall window
STALL_IMPROVEMENT = 1e-12

#: positivity guard: maximum step halvings before giving up
MAX_HALVINGS = 60

STOP_CONVERGED = "converged"
STOP_STALLED = "stalled"
STOP_MAX_ITER = "max_iter"
STOP_POSITIVITY = "positivity_failure"
STOP_UNDEFINED = "indicator_undefined"
STOP_REASONS = (STOP_CONVERGED, STOP_STALLED, STOP_MAX_ITER, STOP_POSITIVITY, STOP_UNDEFINED)


def _real(name: str, x) -> float:
    """x as a float, coerced as normalize_exponent coerces p; else a ValidationError naming name."""
    try:
        if isinstance(x, str):  # float would parse it
            raise TypeError
        return float(x)
    except TypeError:  # a str, None, a complex
        raise ValidationError(f"{name} must be a real number, got {x!r}") from None
    except OverflowError:  # an int beyond float range
        raise ValidationError(f"{name} is beyond float range, got {x!r}") from None


@dataclass(frozen=True)
class DescentConfig:
    p: float
    h: float
    scheme: str = MULTIPLICATIVE
    gradient: str = DIFFERENCE
    l: float | None = 1e-3
    eps: float = 1e-4
    max_iter: int = 100000
    stall_window: int = 50

    def __post_init__(self):
        object.__setattr__(self, "p", normalize_exponent(self.p))
        # h, eps and l are stored as floats, as p is; l may stay None
        object.__setattr__(self, "h", _real("h", self.h))
        object.__setattr__(self, "eps", _real("eps", self.eps))
        if self.l is not None:
            object.__setattr__(self, "l", _real("l", self.l))
        if self.scheme not in MATRIX_CLASSES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        # the kind and l; the smoothness of p needs the order, which descend has
        select_direction(3, self.p, self.gradient, self.l)
        if not (0.0 < self.h < math.inf):
            raise ValidationError(f"step h must be in (0, inf), got {self.h!r}")
        # K_p < 1, so an eps of 1 or more would stop every run at iterate 0
        if not (0.0 < self.eps < 1.0):
            raise ValidationError(f"eps must be in (0, 1), got {self.eps!r}")
        # a float limit (NaN above all) would let descend run past both stops
        for name in ("max_iter", "stall_window"):
            limit = getattr(self, name)
            try:
                operator.index(limit)
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {limit!r}") from None
            if limit < 1:
                raise ValidationError(f"{name} must be >= 1, got {limit!r}")


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


#: the largest iteration number a trace holds, its column being array("q")
MAX_ITERATION = 2**63 - 1


class TraceRecords(Sequence):
    """A trace's records, stored as columns; reading one builds its TraceRecord.

    One array holds every record's upper triangle, width floats each, in
    row-major order; one column each holds the iteration numbers, the
    indicators and the direction norms, and a flag per record tells a norm
    of None from a float.  It starts empty, and append is the one writer.
    It compares equal to the tuple of its records, and, like a list, it is
    not hashable.
    """

    __slots__ = ("_width", "_iterations", "_uppers", "_indicators", "_norms", "_normed")

    def __init__(self):
        self._width = 0
        self._iterations = array("q")
        self._uppers = array("d")
        self._indicators = array("d")
        self._norms = array("d")  # 0.0 where normed is 0
        self._normed = bytearray()

    def append(self, record) -> None:
        """Add record, of the first record's width, at the end; or raise and change nothing."""
        it, upper, indicator, norm = record
        k = len(self._iterations)
        if k and len(upper) != self._width:
            raise ValidationError(f"trace record {it} has {len(upper)} entries, not {self._width}")
        self._width = len(upper)
        try:
            self._iterations.append(it)
            self._uppers.fromlist(list(upper))  # twice as fast as extending by the tuple
            self._indicators.append(indicator)
            self._norms.append(0.0 if norm is None else norm)
            self._normed.append(norm is not None)
        except BaseException:  # a field its column cannot hold: undo the columns written
            del (self._iterations[k:], self._uppers[k * self._width:], self._indicators[k:],
                 self._norms[k:], self._normed[k:])
            raise

    def rows(self):
        """Yield each record's (iteration, indicator, entries of its upper triangle).

        The entries are one pass over the upper column, so read each row's
        before taking the next row.
        """
        w, entries = self._width, iter(self._uppers)
        for it, indicator in zip(self._iterations, self._indicators):
            yield it, indicator, itertools.islice(entries, w)

    def __len__(self) -> int:
        return len(self._iterations)

    def __getitem__(self, k: int) -> TraceRecord:
        k = range(len(self))[operator.index(k)]  # out of range raises IndexError
        w = self._width
        return TraceRecord(self._iterations[k], tuple(self._uppers[k * w:(k + 1) * w]),
                           self._indicators[k], self._norms[k] if self._normed[k] else None)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, (tuple, TraceRecords)):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True)
class IterationTrace:
    """A run's records, filled by TraceRecords.append, and its clamps."""

    records: TraceRecords
    clamp_events: tuple[ClampEvent, ...] = ()


@dataclass(frozen=True)
class DescentResult:
    """One run: its order and scheme, trace, stop reason and best iterate, which every run has."""

    n: int
    scheme: str
    best_iter: int
    best_matrix: MultiplicativePCMatrix | AdditivePCMatrix
    best_indicator: float
    stop_reason: str
    trace: IterationTrace

    @property
    def best_upper(self) -> tuple[float, ...]:
        return self.best_matrix.upper


def step_multiplicative(
    n: int,
    upper: tuple[float, ...],
    v: tuple[float, ...],
    h: float,
    clamp_log: list | None = None,
) -> tuple[float, ...]:
    """One update a_ij + h*v_ij of a raw triangle, with per-entry positivity halving.

    If a raw update would leave the positive cone, only that entry's step is
    halved until it does not (at most MAX_HALVINGS times); each such clamp is
    appended to clamp_log as (i, j, halvings).  PositivityFailure is raised
    if the halvings are exhausted, and check_entries checks the result.
    """
    new = []
    for (i, j), a, c in zip(upper_pairs(n), upper, v):
        step = h * c
        value = a + step
        if value <= 0.0:
            halvings = 0
            while value <= 0.0:
                if halvings >= MAX_HALVINGS:
                    raise PositivityFailure(i, j, a, h * c, MAX_HALVINGS)
                step *= 0.5
                value = a + step
                halvings += 1
            if clamp_log is not None:
                clamp_log.append((i, j, halvings))
        new.append(value)
    check_entries(n, new, True)
    return tuple(new)


def step_additive(
    n: int, upper: tuple[float, ...], v: tuple[float, ...], h: float
) -> tuple[float, ...]:
    """One update b_ij + h*v_ij of a raw triangle, checked by check_entries."""
    new = tuple(x + h * c for x, c in zip(upper, v))
    check_entries(n, new, False)
    return new


def descend(mat: MultiplicativePCMatrix | AdditivePCMatrix, cfg: DescentConfig):
    """Iterate from mat (in cfg.scheme's form), yielding (record, clamps, stop).

    select_direction runs, and iterate 0 is evaluated, before the first
    item, so a start in p < 0's hole raises IndicatorUndefined.  Each later
    iterate is evaluated once, right after the step that made it, for the
    stop rule and the direction.  Every item is an iterate's TraceRecord,
    the ClampEvents of the step taken from it and None, the last the stop
    reason.  A step that its guard (halving, then check_entries) rejects, or
    whose iterate fails to evaluate, ends on the iterate it left, with
    positivity_failure or indicator_undefined.
    """
    direction = select_direction(mat.n, cfg.p, cfg.gradient, cfg.l)
    n, upper, mult = mat.n, mat.upper, mat.scheme == MULTIPLICATIVE
    pt = evaluate(n, upper, mult, cfg.p)
    ref, stall = math.inf, 0
    for it in itertools.count():
        ii = pt.value
        if ref - ii >= STALL_IMPROVEMENT:
            ref, stall = ii, 0
        else:
            stall += 1
        stop = None
        if ii < cfg.eps:
            stop = STOP_CONVERGED
        elif stall >= cfg.stall_window:
            stop = STOP_STALLED
        elif it >= cfg.max_iter:
            stop = STOP_MAX_ITER
        else:
            try:
                v = direction(pt)
            except EvaluationError:
                stop = STOP_UNDEFINED
        if stop is not None:
            yield TraceRecord(it, upper, ii, None), (), stop
            return
        record = TraceRecord(it, upper, ii, math.sqrt(math.fsum([c * c for c in v])))
        raw: list = []
        try:
            upper = (step_multiplicative(n, upper, v, cfg.h, raw) if mult
                     else step_additive(n, upper, v, cfg.h))
        except (PositivityFailure, ValidationError):
            yield record, (), STOP_POSITIVITY
            return
        clamps = tuple(ClampEvent(it, i, j, hv) for i, j, hv in raw) if raw else ()
        try:
            pt = evaluate(n, upper, mult, cfg.p)
        except EvaluationError:
            yield record, clamps, STOP_UNDEFINED
            return
        yield record, clamps, None


def run(m0: MultiplicativePCMatrix | AdditivePCMatrix, cfg: DescentConfig) -> DescentResult:
    """Descend from m0 under cfg and keep the record; every started run returns a DescentResult.

    m0 is converted to cfg.scheme's form once (EntryOverflow for an additive
    entry whose exp is no positive normal float); a start descend cannot
    evaluate raises.  best_matrix, the first record with the least indicator,
    is the one matrix a run builds.
    """
    convert = to_additive if cfg.scheme == ADDITIVE else to_multiplicative
    mat = m0 if m0.scheme == cfg.scheme else convert(m0)
    records = TraceRecords()
    clamps: list[ClampEvent] = []
    for record, events, stop in descend(mat, cfg):
        # the first record, then only a strictly smaller indicator: the first attainment
        if not records or record.indicator < best.indicator:
            best = record
        records.append(record)
        clamps.extend(events)
    return DescentResult(
        n=mat.n,
        scheme=cfg.scheme,
        best_iter=best.iteration,
        best_matrix=mat.replace_upper(best.upper),
        best_indicator=best.indicator,
        stop_reason=stop,
        trace=IterationTrace(records, tuple(clamps)),
    )
