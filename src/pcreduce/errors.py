"""Exception hierarchy.

Two branches matter to callers: ``ValidationError`` (a ``ValueError`` too)
covers rejected input (bad grids, broken reciprocity, unusable exponents or
settings), ``EvaluationError`` covers domain failures of otherwise well-formed
inputs (indicator holes for p < 0, gradients requested where none exists).
The CLI maps the former to exit code 1 and the latter to exit code 2.
"""

from inspect import Parameter, Signature


class PCReduceError(Exception):
    """Base class for all library errors.

    A class that declares ``fields``, the names of its details, and
    ``message``, a ``str.format`` template over them, takes those fields
    positionally or by name, keeps each as the attribute of that name and
    carries the formatted message as its one argument, and pickle and copy
    rebuild it from those fields.  A class without ``fields`` takes a free
    message, as ``Exception`` does.
    """

    fields: tuple[str, ...] = ()
    message: str

    def __init__(self, *args, **kwargs):
        if self.fields:
            names = [Parameter(f, Parameter.POSITIONAL_OR_KEYWORD) for f in self.fields]
            values = Signature(names).bind(*args, **kwargs).arguments
            vars(self).update(values)
            args, kwargs = (self.message.format_map(values),), {}
        super().__init__(*args, **kwargs)

    def __reduce__(self):
        # Exception's own would pass the formatted message back as the first field
        if not self.fields:
            return super().__reduce__()
        return type(self), tuple(getattr(self, name) for name in self.fields)


class ValidationError(PCReduceError, ValueError):
    """Malformed or rejected input."""


class EvaluationError(PCReduceError):
    """Well-formed input outside the domain of the requested operation."""


class OrderTooSmall(ValidationError):
    fields = ("n",)
    message = "matrix order must be >= 3, got {n}"


class OrderTooLarge(ValidationError):
    fields = ("n", "limit")
    message = "matrix order must be <= {limit}, got {n}"


class NonPositiveEntry(ValidationError):
    fields = ("i", "j", "value")
    message = "entry ({i},{j}) must be > 0, got {value!r}"


class NonFiniteEntry(ValidationError):
    fields = ("i", "j", "value")
    message = "additive entry ({i},{j}) must be finite, got {value!r}"


class EntryOverflow(ValidationError):
    fields = ("i", "j", "value")
    message = ("additive entry ({i},{j}) = {value!r} has no multiplicative image: "
               "exp overflows or underflows")


class BadDiagonal(ValidationError):
    """A full grid's diagonal entry is not the form's identity, 1 or 0."""

    fields = ("i", "value", "expected")
    message = "diagonal entry ({i},{i}) must be {expected}, got {value!r}"


class ReciprocityViolation(ValidationError):
    fields = ("i", "j", "residual")
    message = ("entries ({i},{j}) and ({j},{i}) are not reciprocal: "
               "|a_ij * a_ji - 1| = {residual:.3e}")


class AntisymmetryViolation(ValidationError):
    fields = ("i", "j", "residual")
    message = ("entries ({i},{j}) and ({j},{i}) are not antisymmetric: "
               "|b_ij + b_ji| = {residual:.3e}")


class InvalidExponent(ValidationError):
    fields = ("p", "reason")
    message = "invalid exponent p = {p!r}: {reason}"


class MatrixFileError(ValidationError):
    """Parse failure of a matrix file, with the offending location."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class ZeroWithNegativeExponent(EvaluationError):
    fields = ("value",)
    message = "p-average with p < 0 undefined near zero: got value {value!r}"


class IndicatorUndefined(EvaluationError):
    # every caller names the triad by core.triad's tuple, which {triad} prints
    fields = ("p", "triad", "defect")
    message = ("indicator undefined for p = {p}: triad {triad} has defect "
               "{defect:.3e}, inside the consistent hole")


class NonSmoothExponent(EvaluationError):
    fields = ("p",)
    message = ("no analytic gradient for p = {p}: indicator is not C^1 there "
               "(use the difference gradient)")


class OnConsistentLocus(EvaluationError):
    """The gradient is undefined on the consistent locus."""


class DegenerateDefect(EvaluationError):
    fields = ("triad", "defect")
    message = ("triad {triad} has near-zero defect {defect:.3e}; "
               "analytic gradient is unstable there")


class PositivityFailure(EvaluationError):
    fields = ("i", "j", "entry", "step", "halvings")
    message = ("step at entry ({i},{j}) cannot preserve positivity: "
               "entry {entry:.3e}, raw step {step:.3e} after {halvings} halvings")
