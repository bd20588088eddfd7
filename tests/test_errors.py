"""The library's exceptions: their branches, attributes and messages.

An outside number, wherever it enters, is taken or raises one of them.
"""

import copy
import math
import pickle
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

import pcreduce
from pcreduce.core import AdditivePCMatrix, MultiplicativePCMatrix
from pcreduce.descent import DescentConfig
from pcreduce.errors import (
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
from pcreduce.indicators import normalize_exponent, p_average

#: every library error class the package exports
EXPORTED_ERRORS = [cls for cls in map(vars(pcreduce).get, pcreduce.__all__)
                   if isinstance(cls, type) and issubclass(cls, PCReduceError)]

# (error, its branch, its attributes, str(error)): every class built once
CASES = [
    (OrderTooSmall(2), ValidationError, {"n": 2},
     "matrix order must be >= 3, got 2"),
    (OrderTooLarge(101, 100), ValidationError, {"n": 101, "limit": 100},
     "matrix order must be <= 100, got 101"),
    (NonPositiveEntry(1, 2, -0.5), ValidationError, {"i": 1, "j": 2, "value": -0.5},
     "entry (1,2) must be > 0, got -0.5"),
    (NonFiniteEntry(2, 3, math.inf), ValidationError, {"i": 2, "j": 3, "value": math.inf},
     "additive entry (2,3) must be finite, got inf"),
    (EntryOverflow(1, 3, 710.0), ValidationError, {"i": 1, "j": 3, "value": 710.0},
     "additive entry (1,3) = 710.0 has no multiplicative image: "
     "exp overflows or underflows"),
    (BadDiagonal(2, 3.0, 1), ValidationError, {"i": 2, "value": 3.0, "expected": 1},
     "diagonal entry (2,2) must be 1, got 3.0"),
    (ReciprocityViolation(1, 2, 0.25), ValidationError,
     {"i": 1, "j": 2, "residual": 0.25},
     "entries (1,2) and (2,1) are not reciprocal: |a_ij * a_ji - 1| = 2.500e-01"),
    (AntisymmetryViolation(3, 4, 1.5), ValidationError,
     {"i": 3, "j": 4, "residual": 1.5},
     "entries (3,4) and (4,3) are not antisymmetric: |b_ij + b_ji| = 1.500e+00"),
    (InvalidExponent(0.0, "p = 0 degenerates the indicator to a constant"), ValidationError,
     {"p": 0.0, "reason": "p = 0 degenerates the indicator to a constant"},
     "invalid exponent p = 0.0: p = 0 degenerates the indicator to a constant"),
    (InvalidExponent(math.nan, "NaN is not an exponent"), ValidationError,
     {"p": math.nan, "reason": "NaN is not an exponent"},  # the same nan object
     "invalid exponent p = nan: NaN is not an exponent"),
    (MatrixFileError("no data", 7), ValidationError, {"line": 7},
     "line 7: no data"),
    (MatrixFileError("empty file"), ValidationError, {"line": None},
     "empty file"),
    (ZeroWithNegativeExponent(0.0), EvaluationError, {"value": 0.0},
     "p-average with p < 0 undefined near zero: got value 0.0"),
    (IndicatorUndefined(-1.0, (1, 2, 3), 1e-20), EvaluationError,
     {"p": -1.0, "triad": (1, 2, 3), "defect": 1e-20},
     "indicator undefined for p = -1.0: triad (1, 2, 3) has defect 1.000e-20, "
     "inside the consistent hole"),
    (NonSmoothExponent(math.inf), EvaluationError, {"p": math.inf},
     "no analytic gradient for p = inf: indicator is not C^1 there "
     "(use the difference gradient)"),
    (OnConsistentLocus("triad is consistent"), EvaluationError, {},
     "triad is consistent"),
    (DegenerateDefect((1, 2, 4), 1e-13), EvaluationError,
     {"triad": (1, 2, 4), "defect": 1e-13},
     "triad (1, 2, 4) has near-zero defect 1.000e-13; "
     "analytic gradient is unstable there"),
    (PositivityFailure(1, 2, 1e-300, -2.0, 30), EvaluationError,
     {"i": 1, "j": 2, "entry": 1e-300, "step": -2.0, "halvings": 30},
     "step at entry (1,2) cannot preserve positivity: "
     "entry 1.000e-300, raw step -2.000e+00 after 30 halvings"),
]


@pytest.mark.parametrize("exc, branch, attributes, text", CASES,
                         ids=[f"{type(c[0]).__name__}-{k}" for k, c in enumerate(CASES)])
def test_every_error_keeps_its_branch_attributes_and_message(exc, branch, attributes, text):
    assert isinstance(exc, branch) and isinstance(exc, PCReduceError)
    assert isinstance(exc, ValueError) == (branch is ValidationError)
    assert str(exc) == text
    assert exc.args == (text,)
    assert {name: getattr(exc, name) for name in attributes} == attributes


def test_fields_are_taken_by_name_too():
    exc = PositivityFailure(halvings=30, step=-2.0, entry=1e-300, j=2, i=1)
    assert str(exc) == str(PositivityFailure(1, 2, 1e-300, -2.0, 30))
    assert OrderTooLarge(101, limit=100).limit == 100


@pytest.mark.parametrize("build", [lambda: OrderTooLarge(101),
                                   lambda: OrderTooSmall(2, 3),
                                   lambda: OrderTooSmall(n=2, limit=3),
                                   lambda: OrderTooSmall(2, n=2)])
def test_a_missing_or_unknown_field_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_fields_name_every_detail_of_a_declared_error():
    # a stopped run's detail is {name: getattr(exc, name) for name in exc.fields}
    declared = [(exc, attributes) for exc, _, attributes, _ in CASES if exc.fields]
    assert len({type(exc) for exc, _ in declared}) == 14
    for exc, attributes in declared:
        assert {name: getattr(exc, name) for name in exc.fields} == attributes
        assert "__init__" not in vars(type(exc))


def test_only_the_base_and_matrix_file_errors_write_a_constructor():
    # any other error declares fields and a message and takes the base constructor
    written = {cls for cls in EXPORTED_ERRORS if "__init__" in vars(cls)}
    assert written == {PCReduceError, MatrixFileError}


def test_an_error_without_fields_takes_a_free_message():
    assert ValidationError("unknown scheme 'x'").args == ("unknown scheme 'x'",)
    assert EvaluationError().args == ()


@pytest.mark.parametrize("build", [pickle.loads, copy.copy], ids=["pickle", "copy"])
def test_a_declared_error_survives_pickle_and_copy(build):
    declared = [cls for cls in EXPORTED_ERRORS if cls.fields]
    assert len(declared) == 14
    for cls in declared:
        exc = cls(*[(k, k + 1) if name == "triad" else k + 2
                    for k, name in enumerate(cls.fields)])
        back = build(pickle.dumps(exc) if build is pickle.loads else exc)
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        assert [getattr(back, f) for f in cls.fields] == [getattr(exc, f) for f in cls.fields]


def test_an_error_with_a_free_message_pickles_as_an_exception_does():
    back = pickle.loads(pickle.dumps(MatrixFileError("no data", 7)))
    assert (type(back), str(back), back.line) == (MatrixFileError, "line 7: no data", 7)


#: numbers of every type a caller may pass, and things that are not numbers
OUTSIDE_VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), Decimal("sNaN")]),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.fractions(),
    st.text(),
    st.binary(),
    st.none(),
    st.complex_numbers(),
    st.booleans(),
)

#: each way an outside number enters the library
ENTRANCES = {
    "multiplicative entry": lambda v: MultiplicativePCMatrix(3, (2.0, v, 2.0)),
    "additive entry": lambda v: AdditivePCMatrix(3, (2.0, v, 2.0)),
    "normalize_exponent": normalize_exponent,
    "DescentConfig.p": lambda v: DescentConfig(p=v, h=0.1),
    "DescentConfig.h": lambda v: DescentConfig(p=2.0, h=v),
    "DescentConfig.eps": lambda v: DescentConfig(p=2.0, h=0.1, eps=v),
    "DescentConfig.l": lambda v: DescentConfig(p=2.0, h=0.1, l=v),
    "p_average value": lambda v: p_average([1.0, v], 2.0),
    "p_average p": lambda v: p_average([1.0, 2.0], v),
}


@given(st.sampled_from(sorted(ENTRANCES)), OUTSIDE_VALUES)
@settings(max_examples=1000)
def test_an_outside_value_is_taken_or_raises_a_library_error(entrance, value):
    # a raw TypeError, ValueError or OverflowError fails here
    try:
        ENTRANCES[entrance](value)
    except PCReduceError:
        pass
