"""Inconsistency reduction for pairwise comparison matrices.

Multiplicative (reciprocal, positive) and additive (antisymmetric) PC
matrices, a one-parameter family of triad-based inconsistency indicators,
their instant and forward-difference priority directions, and a
constant-step descent that drives a matrix toward consistency.
"""

from .core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    to_additive,
    to_multiplicative,
    upper_pairs,
    upper_size,
)
from .descent import (
    ClampEvent,
    DescentConfig,
    DescentResult,
    IterationTrace,
    TraceRecord,
    run,
    step_additive,
    step_multiplicative,
)
from .errors import (
    AntisymmetryViolation,
    BadDiagonal,
    DegenerateDefect,
    EntryOverflow,
    EvaluationError,
    IndicatorUndefined,
    InvalidExponent,
    MatrixFileError,
    NonFiniteEntry,
    NonPositiveEntry,
    NonSmoothExponent,
    OnConsistentLocus,
    OrderTooLarge,
    OrderTooSmall,
    PCReduceError,
    PositivityFailure,
    ReciprocityViolation,
    ValidationError,
    ZeroWithNegativeExponent,
)
from .gradients import difference_priority_vector, instant_pv_np, select_direction
from .indicators import kii, p_average, point_at
from .matrixio import (
    format_matrix,
    parse_matrix_text,
    read_matrix_file,
    read_trace_file,
    write_matrix_file,
    write_trace_file,
)
from .repro import REFERENCE_RUNS, run_all, run_row

__version__ = "0.1.0"

__all__ = [
    "AdditivePCMatrix",
    "AntisymmetryViolation",
    "BadDiagonal",
    "ClampEvent",
    "DegenerateDefect",
    "DescentConfig",
    "DescentResult",
    "EntryOverflow",
    "EvaluationError",
    "IndicatorUndefined",
    "InvalidExponent",
    "IterationTrace",
    "MatrixFileError",
    "MultiplicativePCMatrix",
    "NonFiniteEntry",
    "NonPositiveEntry",
    "NonSmoothExponent",
    "OnConsistentLocus",
    "OrderTooLarge",
    "OrderTooSmall",
    "PCReduceError",
    "PositivityFailure",
    "REFERENCE_RUNS",
    "ReciprocityViolation",
    "TraceRecord",
    "ValidationError",
    "ZeroWithNegativeExponent",
    "all_defects",
    "difference_priority_vector",
    "format_matrix",
    "instant_pv_np",
    "kii",
    "log_upper",
    "p_average",
    "parse_matrix_text",
    "point_at",
    "read_matrix_file",
    "read_trace_file",
    "run",
    "run_all",
    "run_row",
    "select_direction",
    "step_additive",
    "step_multiplicative",
    "to_additive",
    "to_multiplicative",
    "upper_pairs",
    "upper_size",
    "write_matrix_file",
    "write_trace_file",
]
