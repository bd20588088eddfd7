import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    log_upper,
    to_additive,
    upper_size,
)
from pcreduce.errors import (
    IndicatorUndefined,
    InvalidExponent,
    ValidationError,
    ZeroWithNegativeExponent,
)
from pcreduce.indicators import (
    P_MIN,
    evaluate,
    kernels,
    kii,
    normalize_exponent,
    p_average,
)

from oracles import (
    consistent_from_weights,
    kii3,
    kii3_min_form,
    outcome,
    reference_kii_logs,
    reference_p_average,
    reference_residuals,
)

A4 = MultiplicativePCMatrix(
    4, (math.exp(-2.0), math.exp(3.0), 1.0, math.exp(1.0), 1.0, 1.0)
)

logs = st.floats(min_value=-3.0, max_value=3.0,
                 allow_nan=False, allow_infinity=False)


#: exponents that float() parses as text, cannot convert or makes infinite
NOT_REAL_OR_BEYOND_RANGE = [
    pytest.param(b"2", id="bytes"),
    pytest.param(bytearray(b"2"), id="bytearray"),
    pytest.param(Decimal("sNaN"), id="signaling_nan"),
    pytest.param(Decimal("1e400"), id="decimal_above_float_range"),
    pytest.param(Fraction(10**400), id="fraction_above_float_range"),
]


class TestNormalizeExponent:
    def test_accepts_common_values(self):
        assert normalize_exponent(2) == 2.0
        assert normalize_exponent(-1.0) == -1.0
        assert normalize_exponent(math.inf) == math.inf

    @pytest.mark.parametrize("bad", [0, 0.0, -0.0, float("nan"), -math.inf, "2",
                                     9.9e-7, -9.9e-7, 1e-17, 1e-300, 1e-320,
                                     pytest.param(10**400, id="int_above_float_range"),
                                     pytest.param(-(10**400), id="int_below_float_range"),
                                     None, 1j] + NOT_REAL_OR_BEYOND_RANGE)
    def test_rejects(self, bad):
        with pytest.raises(InvalidExponent):
            normalize_exponent(bad)

    def test_accepts_decimal_and_fraction_exponents(self):
        # Decimal("Infinity") equals math.inf, so it is no exponent beyond float range
        assert normalize_exponent(Decimal("Infinity")) == math.inf
        assert normalize_exponent(Fraction(5, 2)) == 2.5

    @given(st.floats(min_value=1e-6, max_value=1e3),
           st.integers(min_value=1, max_value=50),
           st.sampled_from([P_MIN, -P_MIN]))
    @settings(max_examples=200)
    def test_smallest_exponent_keeps_mean_accurate(self, d, k, p):
        assert normalize_exponent(p) == p
        assert abs(p_average([d] * k, p) - d) <= 1e-9 * d


#: exponents on both sides of 0 and of 1, the fixed branches, the smallest
#: accepted |p| and two whose x^p over- or underflows
AVERAGE_QS = (1.0, math.inf, 2.0, 0.5, 3.7, -1.0, -0.5, P_MIN, -P_MIN,
              628.0, -628.0, 1000.0, -1000.0)

#: values with zero, subnormal, tiny, huge and infinite members
average_values = st.lists(
    st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-12, 1e308, math.inf]),
              st.floats(min_value=0.0)),
    min_size=1, max_size=6)


class TestPAverage:
    @given(average_values, st.sampled_from(AVERAGE_QS))
    @settings(max_examples=1000)
    def test_matches_reference_bit_for_bit(self, xs, q):
        assert outcome(p_average, xs, q) == outcome(reference_p_average, xs, q)

    # the values TestNormalizeExponent.test_rejects rejects
    @pytest.mark.parametrize("bad", [0, 0.0, -0.0, float("nan"), -math.inf, "2",
                                     9.9e-7, -9.9e-7, 1e-17, 1e-300, 1e-320,
                                     pytest.param(10**400, id="int_above_float_range"),
                                     pytest.param(-(10**400), id="int_below_float_range"),
                                     None, 1j] + NOT_REAL_OR_BEYOND_RANGE)
    def test_rejects_what_normalize_exponent_rejects(self, bad):
        with pytest.raises(InvalidExponent):
            p_average((1.0, 2.0), bad)

    def test_arithmetic(self):
        assert p_average((1.0, 2.0, 3.0), 1.0) == pytest.approx(2.0)

    def test_quadratic(self):
        assert p_average((3.0, 4.0), 2.0) == pytest.approx(math.sqrt(12.5))

    def test_half(self):
        want = ((math.sqrt(1.0) + math.sqrt(4.0)) / 2.0) ** 2
        assert p_average((1.0, 4.0), 0.5) == pytest.approx(want, rel=1e-15)

    def test_harmonic(self):
        assert p_average((2.0, 2.0), -1.0) == pytest.approx(2.0)
        assert p_average((1.0, 3.0), -1.0) == pytest.approx(1.5)

    def test_scaled_when_plain_form_overflows(self):
        # 4^1000 overflows and 4^-1000 underflows to a zero mean
        assert p_average((4.0, 2.0), 1000.0) == pytest.approx(
            4.0 * ((1.0 + 0.5 ** 1000.0) / 2.0) ** 0.001, rel=1e-15)
        assert p_average((4.0, 8.0), -1000.0) == pytest.approx(
            4.0 * ((1.0 + 2.0 ** -1000.0) / 2.0) ** -0.001, rel=1e-15)
        # 0.5^5000 underflows to 0 without raising
        assert kii(AdditivePCMatrix(3, (0.5, 0.0, 0.0)), 5000) == pytest.approx(
            1.0 - math.exp(-0.5), rel=1e-15)
        # defects 0.5, 0.5, 0.3, 0.3: M_2000 = 0.5 * (1/2)^(1/2000)
        b = AdditivePCMatrix(4, (0.5, 0.0, 0.0, 0.0, 0.0, 0.3))
        assert kii(b, 2000) == pytest.approx(
            1.0 - math.exp(-0.5 * 0.5 ** (1.0 / 2000.0)), rel=1e-15)
        # 0.3053^628 is subnormal: its 1/628 root would magnify the lost bits
        assert p_average([0.3053], 628) == pytest.approx(0.3053, rel=1e-15)
        assert kii(AdditivePCMatrix(3, (0.3053, 0.0, 0.0)), 628) == pytest.approx(
            1.0 - math.exp(-0.3053), rel=1e-15)

    def test_infinite_value_gives_infinite_mean(self):
        # the scaled form would divide by s = inf: inf / inf is nan
        assert p_average([math.inf, 1e308], 2.0) == math.inf
        assert p_average([math.inf], -1.0) == math.inf
        # for p < 0 one finite value keeps the mean finite
        assert p_average([math.inf, 1.0], -1.0) == 2.0

    def test_nan_value_gives_nan_mean_in_either_order(self):
        # the plain terms overflow, so the mean falls back to its scaled
        # form, also when max() returns the nan that comes first
        assert math.isnan(p_average([math.nan, 1e200], 2.0))
        assert math.isnan(p_average([1e200, math.nan], 2.0))

    def test_max(self):
        assert p_average((1.0, 5.0, 2.0), math.inf) == 5.0

    @pytest.mark.parametrize("p", [1.0, 2.5, 0.5, -1.0, math.inf])
    @pytest.mark.parametrize("xs, bad", [
        ([-3.0, -1.0], "-3.0"),
        ([-1.0, 2.0], "-1.0"),
        # -0.0 is not below 0.0
        ([2.0, -0.0, -1e-300], "-1e-300"),
        ([1.0, -math.inf], "-inf"),
    ], ids=["all_negative", "one_negative", "after_negative_zero", "negative_inf"])
    def test_rejects_a_negative_value_naming_it(self, xs, bad, p):
        with pytest.raises(ValidationError, match=f"negative value: got {bad}$"):
            p_average(xs, p)

    def test_negative_p_rejects_zero(self):
        with pytest.raises(ZeroWithNegativeExponent):
            p_average((1.0, 0.0), -1.0)

    @pytest.mark.parametrize("bad", [None, "2", b"2", 1j, Decimal("sNaN")])
    def test_rejects_a_value_that_is_not_a_real_number(self, bad):
        with pytest.raises(ValidationError, match="p_average value must be a real number"):
            p_average([1.0, bad], 2.0)

    # bytes would iterate as their byte values, b"\x02\x04\x01" as (2.0, 4.0, 1.0)
    @pytest.mark.parametrize("xs", [None, 5, b"\x02\x04\x01", bytearray(b"\x02\x04\x01")],
                             ids=["none", "int", "bytes", "bytearray"])
    def test_rejects_values_that_are_not_iterable(self, xs):
        with pytest.raises(ValidationError, match=f"non-sequence: got {re.escape(repr(xs))}$"):
            p_average(xs, 2.0)

    def test_real_values_are_coerced(self):
        assert p_average([Decimal("2.5")], 2.0) == 2.5
        assert p_average([Fraction(1, 2), 10**400], math.inf) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            p_average((), 1.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=2, max_size=6))
    @settings(max_examples=200)
    def test_monotone_in_p(self, xs):
        # power-mean inequality: p <= q implies p-average <= q-average
        values = [p_average(xs, p) for p in (-2.0, -1.0, 0.5, 1.0, 2.0, 4.0, math.inf)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=2, max_size=6))
    def test_between_min_and_max(self, xs):
        avg = p_average(xs, 2.0)
        assert min(xs) - 1e-12 <= avg <= max(xs) + 1e-12


class TestKii3:
    def test_worked_value(self):
        # u = ln y - ln x - ln z = 3 - (-2) - 1 = 4
        got = kii3(math.exp(-2.0), math.exp(3.0), math.exp(1.0))
        assert got == pytest.approx(1.0 - math.exp(-4.0), rel=1e-12)

    def test_consistent_triad_is_zero(self):
        assert kii3(2.0, 4.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_huge_entries_no_overflow(self):
        # the min form would need x*z = e^600 here; the log form does not
        assert kii3(math.exp(300.0), 1.0, math.exp(300.0)) == pytest.approx(1.0)

    @given(logs, logs, logs)
    @settings(max_examples=500)
    def test_two_closed_forms_agree(self, bx, by, bz):
        x, y, z = math.exp(bx), math.exp(by), math.exp(bz)
        assert abs(kii3(x, y, z) - kii3_min_form(x, y, z)) <= 1e-12

    @given(logs, logs, logs)
    def test_bounds(self, bx, by, bz):
        v = kii3(math.exp(bx), math.exp(by), math.exp(bz))
        assert 0.0 <= v < 1.0


class TestKii:
    def test_same_on_both_forms(self):
        b = to_additive(A4)
        for p in (-1.0, 0.5, 1.0, 2.0, math.inf):
            assert kii(A4, p) == kii(b, p)

    def test_collapses_to_kii3_for_order_three(self):
        m = MultiplicativePCMatrix(3, (math.exp(-2.0), math.exp(3.0), math.exp(1.0)))
        want = kii3(*m.upper)
        # |p| >= 1000 overflows d^p (or underflows it to a zero mean) in the
        # plain power mean; the scaled fallback keeps the exact single defect
        for p in (-5000.0, -1000.0, -1.0, 0.5, 1.0, 2.0, 1000.0, 5000.0, math.inf):
            assert kii(m, p) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_p(self):
        ps = (-1000.0, -1.0, 0.5, 1.0, 2.0, 8.0, 1000.0, math.inf)
        values = [kii(A4, p) for p in ps]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-15

    def test_consistent_matrix_scores_zero(self):
        m = consistent_from_weights((1.0, 2.0, 5.0, 7.0))
        assert kii(m, 1.0) <= 1e-12
        assert kii(m, math.inf) <= 1e-12

    def test_rejects_p_zero(self):
        with pytest.raises(InvalidExponent):
            kii(A4, 0.0)

    def test_rejects_an_exponent_beyond_float_range(self):
        with pytest.raises(InvalidExponent, match="beyond float range"):
            kii(A4, 10**400)

    def test_negative_p_hole_names_triad(self):
        # triad (1,2,3) consistent, the rest not
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 1.0, 2.0, 1.0, 1.0))
        with pytest.raises(IndicatorUndefined) as err:
            kii(m, -1.0)
        assert tuple(err.value.triad) == (1, 2, 3)
        assert err.value.defect <= 1e-12

    def test_negative_p_hole_names_the_consistent_triad_not_the_first(self):
        # defects 2, 1, 3, 0: only the last triad, (2,3,4), is consistent
        b = AdditivePCMatrix(4, (1.0, 3.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(IndicatorUndefined) as err:
            kii(b, -1.0)
        assert err.value.triad == (2, 3, 4)
        assert err.value.defect == 0.0

    def test_overflowing_additive_defect_reads_one(self):
        # b12 + b23 - b13 overflows to an infinite defect
        assert kii(AdditivePCMatrix(3, (1e308, -1e308, 1e308)), -1) == 1.0
        b = AdditivePCMatrix(4, (1e308, -1e308, 0.0, 1e308, 0.0, 0.0))
        assert kii(b, 2) == 1.0

    def test_overflowing_mean_reads_one(self):
        # defects inf, 1e308, 1e308, 1e308: at p = -1e-6 the root of even the
        # scaled power mean overflows
        b = AdditivePCMatrix(4, (1e308, -1e308, 0.0, 1e308, 0.0, 0.0))
        assert kii(b, -P_MIN) == 1.0

    def test_negative_p_fine_away_from_hole(self):
        got = kii(A4, -1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.92), rel=1e-12)

    @given(st.lists(logs, min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_bounded_on_random_matrices(self, bs):
        m = MultiplicativePCMatrix(4, tuple(math.exp(x) for x in bs))
        v = kii(m, 2.0)
        assert 0.0 <= v < 1.0

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0),
                    min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_vanishes_exactly_on_consistent_set(self, w):
        m = consistent_from_weights(w)
        assert kii(m, 1.0) <= 1e-12


#: the exponents of the kernels' fixed branches, a general pow on either side
#: of 1, the hole side and one whose d^q over- or underflows
KERNEL_QS = (1.0, math.inf, 2.0, 0.5, 3.7, -1.0, 628.0)

#: logs drawn to reach every fallback: zero defects from exact sums, huge
#: and subnormal magnitudes from the whole float range
kernel_logs = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
kernel_entries = st.one_of(
    st.floats(min_value=1 / 9, max_value=9.0),
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)


def assert_fresh_matches_reference(fresh, n, logs, q):
    """fresh(logs) is the reference's (K_q, defects, mean), or its exception, with its residuals."""
    residuals = []

    def less_residuals(logs):
        value, us, ds, avg = fresh(logs)
        residuals.append(us)
        return value, ds, avg

    assert outcome(less_residuals, logs) == outcome(reference_kii_logs, n, logs, q)
    if residuals:
        assert repr(residuals[0]) == repr(reference_residuals(n, logs))


def assert_kernels_match_reference(n, logs, q):
    fresh, value_at = kernels(n, q)
    assert_fresh_matches_reference(fresh, n, logs, q)
    assert outcome(value_at, 0, logs) == outcome(lambda: reference_kii_logs(n, logs, q)[0])


class TestKernels:
    @given(st.data())
    @settings(max_examples=400)
    def test_kernel_matches_reference(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8))
        mult = data.draw(st.booleans())
        q = data.draw(st.sampled_from(KERNEL_QS))
        upper = tuple(data.draw(st.lists(kernel_entries if mult else kernel_logs,
                                         min_size=upper_size(n), max_size=upper_size(n))))
        logs = log_upper(upper, mult)
        assert_kernels_match_reference(n, logs, q)
        assert_fresh_matches_reference(lambda _: tuple(evaluate(n, upper, mult, q))[5:],
                                       n, logs, q)

    @pytest.mark.parametrize("n, logs, q", [
        # defects 1e308, 1e308, 0, 0: fsum overflows
        (4, (1e308, 0.0, 0.0, 0.0, 0.0, 0.0), 1.0),
        # and so does 1e308 ** 2
        (4, (1e308, 0.0, 0.0, 0.0, 0.0, 0.0), 2.0),
        # 0.3053 ** 628 is a subnormal mean
        (3, (0.3053, 0.0, 0.0), 628.0),
        # and so is a subnormal defect's mean at q = 1
        (3, (5e-324, 0.0, 0.0), 1.0),
        # defects 5e-324, 5e-324, 0, 0: the squared mean of the roots is 0
        (4, (5e-324, 0.0, 0.0, 0.0, 0.0, 0.0), 0.5),
        # defects 1, 1, 0, 0: 0.5 ** 1e6 underflows the root to 0
        (4, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), P_MIN),
        # 1 + 1 - 2: a zero defect in the hole
        (3, (1.0, 2.0, 1.0), -1.0),
    ], ids=["fsum_overflow", "pow_overflow", "subnormal_mean", "subnormal_plain_mean",
            "zero_sqrt_mean", "zero_root", "hole"])
    def test_fallback_matches_reference(self, n, logs, q):
        assert_kernels_match_reference(n, logs, q)

    @pytest.mark.parametrize("q", KERNEL_QS)
    @pytest.mark.parametrize("n, logs", [
        (3, (1e308, 0.0, 1e308)),
        (3, (math.nan, 0.0, 0.0)),
        # defects nan, nan, 0, 1: min(ds) is nan, yet (1,3,4) is in the hole
        (4, (math.nan, 1.0, 2.0, 0.0, 0.0, 1.0)),
    ], ids=["infinite_defect", "nan_defect", "nan_before_zero"])
    def test_non_finite_defect(self, n, logs, q):
        assert_kernels_match_reference(n, logs, q)
