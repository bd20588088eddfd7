"""Exception hierarchy.

Two branches matter to callers: ``ValidationError`` covers malformed input
(bad grids, broken reciprocity, unusable exponents at construction time),
``EvaluationError`` covers domain failures of otherwise well-formed inputs
(indicator holes for p < 0, gradients requested where none exists).  The CLI
maps the former to exit code 1 and the latter to exit code 2.
"""


class PCReduceError(Exception):
    """Base class for all library errors."""


class ValidationError(PCReduceError):
    """Malformed or rejected input."""


class EvaluationError(PCReduceError):
    """Well-formed input outside the domain of the requested operation."""


class OrderTooSmall(ValidationError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"matrix order must be >= 3, got {n}")


class NonPositiveEntry(ValidationError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry ({i},{j}) must be > 0, got {value!r}")


class NonFiniteEntry(ValidationError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"additive entry ({i},{j}) must be finite, got {value!r}")


class EntryOverflow(ValidationError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"additive entry ({i},{j}) = {value!r} overflows exp")


class BadDiagonal(ValidationError):
    def __init__(self, i, value):
        self.i, self.value = i, value
        super().__init__(f"diagonal entry ({i},{i}) must be 1, got {value!r}")


class ReciprocityViolation(ValidationError):
    def __init__(self, i, j, residual):
        self.i, self.j, self.residual = i, j, residual
        super().__init__(
            f"entries ({i},{j}) and ({j},{i}) are not reciprocal: "
            f"|a_ij * a_ji - 1| = {residual:.3e}"
        )


class AntisymmetryViolation(ValidationError):
    def __init__(self, i, j, residual):
        self.i, self.j, self.residual = i, j, residual
        super().__init__(
            f"entries ({i},{j}) and ({j},{i}) are not antisymmetric: "
            f"|b_ij + b_ji| = {residual:.3e}"
        )


class NonPositiveWeight(ValidationError):
    def __init__(self, index, value):
        self.index, self.value = index, value
        super().__init__(f"weight {index} must be > 0, got {value!r}")


class InvalidExponent(ValidationError):
    def __init__(self, p, reason="p = 0 degenerates the indicator to a constant"):
        self.p = p
        super().__init__(f"invalid exponent p = {p!r}: {reason}")


class MatrixFileError(ValidationError):
    """Parse failure of a matrix file, with the offending location."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class ZeroWithNegativeExponent(EvaluationError):
    def __init__(self, value):
        self.value = value
        super().__init__(
            f"p-average with p < 0 undefined near zero: got value {value!r}"
        )


class IndicatorUndefined(EvaluationError):
    def __init__(self, p, triad, defect):
        self.p, self.triad, self.defect = p, triad, defect
        super().__init__(
            f"indicator undefined for p = {p}: triad {tuple(triad)} has defect "
            f"{defect:.3e}, inside the consistent hole"
        )


class NonSmoothExponent(EvaluationError):
    def __init__(self, p):
        self.p = p
        super().__init__(
            f"no analytic gradient for p = {p}: indicator is not C^1 there "
            f"(use the difference gradient)"
        )


class OnConsistentLocus(EvaluationError):
    def __init__(self, detail="gradient undefined on the consistent locus"):
        super().__init__(detail)


class DegenerateDefect(EvaluationError):
    def __init__(self, triad, defect):
        self.triad, self.defect = triad, defect
        super().__init__(
            f"triad {tuple(triad)} has near-zero defect {defect:.3e}; "
            f"analytic gradient is unstable there"
        )


class PositivityFailure(EvaluationError):
    def __init__(self, i, j, entry, step):
        self.i, self.j, self.entry, self.step = i, j, entry, step
        super().__init__(
            f"step at entry ({i},{j}) cannot preserve positivity: "
            f"entry {entry:.3e}, raw step {step:.3e} after 60 halvings"
        )
