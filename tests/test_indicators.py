import math

import pytest
from hypothesis import given, settings, strategies as st

from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    consistent_from_weights,
    to_additive,
)
from pcreduce.errors import (
    IndicatorUndefined,
    InvalidExponent,
    ZeroWithNegativeExponent,
)
from pcreduce.indicators import (
    P_MIN,
    kii,
    kii3,
    kii3_min_form,
    normalize_exponent,
    p_average,
)

A4 = MultiplicativePCMatrix(
    4, (math.exp(-2.0), math.exp(3.0), 1.0, math.exp(1.0), 1.0, 1.0)
)

logs = st.floats(min_value=-3.0, max_value=3.0,
                 allow_nan=False, allow_infinity=False)


class TestNormalizeExponent:
    def test_accepts_common_values(self):
        assert normalize_exponent(2) == 2.0
        assert normalize_exponent(-1.0) == -1.0
        assert normalize_exponent(math.inf) == math.inf

    @pytest.mark.parametrize("bad", [0, 0.0, -0.0, float("nan"), -math.inf, "2",
                                     9.9e-7, -9.9e-7, 1e-17, 1e-300, 1e-320])
    def test_rejects(self, bad):
        with pytest.raises(InvalidExponent):
            normalize_exponent(bad)

    @given(st.floats(min_value=1e-6, max_value=1e3),
           st.integers(min_value=1, max_value=50),
           st.sampled_from([P_MIN, -P_MIN]))
    @settings(max_examples=200)
    def test_smallest_exponent_keeps_mean_accurate(self, d, k, p):
        assert normalize_exponent(p) == p
        assert abs(p_average([d] * k, p) - d) <= 1e-9 * d


class TestPAverage:
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

    def test_max(self):
        assert p_average((1.0, 5.0, 2.0), math.inf) == 5.0

    def test_negative_p_rejects_zero(self):
        with pytest.raises(ZeroWithNegativeExponent):
            p_average((1.0, 0.0), -1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
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

    def test_negative_p_hole_names_triad(self):
        # triad (1,2,3) consistent, the rest not
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 1.0, 2.0, 1.0, 1.0))
        with pytest.raises(IndicatorUndefined) as err:
            kii(m, -1.0)
        assert tuple(err.value.triad) == (1, 2, 3)
        assert err.value.defect <= 1e-12

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
