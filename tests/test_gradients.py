import math
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    to_additive,
    upper_pairs,
    upper_size,
)
from pcreduce.errors import (
    DegenerateDefect,
    IndicatorUndefined,
    NonSmoothExponent,
    OnConsistentLocus,
    ValidationError,
)
from pcreduce.gradients import (
    ANALYTIC,
    DIFFERENCE,
    difference_priority_vector,
    instant_pv_np,
    select_direction,
)
from pcreduce.indicators import INCREMENTAL_MIN_ORDER, evaluate, kii, point_at

from oracles import instant_pv3_mult, outcome, reference_instant_pv_np, upper_index

logs = st.floats(min_value=-2.0, max_value=2.0,
                 allow_nan=False, allow_infinity=False)
smooth_p = st.sampled_from([-1.0, 0.5, 2.0, 3.0])


def mult_from_logs(n, bs):
    return MultiplicativePCMatrix(n, tuple(math.exp(x) for x in bs))


@st.composite
def log_matrices(draw):
    """Either matrix form of order 3 to 6 with log entries in [-2, 2]."""
    n = draw(st.integers(min_value=3, max_value=6))
    bs = draw(st.lists(logs, min_size=upper_size(n), max_size=upper_size(n)))
    if draw(st.booleans()):
        return AdditivePCMatrix(n, tuple(bs))
    return mult_from_logs(n, bs)


@st.composite
def wide_log_matrices(draw):
    """Either matrix form of order 3 to 10, with log entries in [-2, 2].

    Half the draws take integer logs, so that consistent triads occur: a
    defect an l-move sets to zero, or one already inside the p < 0 hole.
    """
    n = draw(st.integers(min_value=3, max_value=10))
    entries = st.integers(min_value=-2, max_value=2).map(float) if draw(st.booleans()) else logs
    bs = draw(st.lists(entries, min_size=upper_size(n), max_size=upper_size(n)))
    if draw(st.booleans()):
        return AdditivePCMatrix(n, tuple(bs))
    return mult_from_logs(n, bs)


#: the exponents of instant_pv_np's pow-free q = 2, a pow on either side of 1,
#: the hole side and one whose (d/D)^(p-1) under- or overflows
DIRECTION_QS = (2.0, 0.5, 3.0, 3.7, -1.0, 628.0)

#: logs with zero defects from exact sums, defects just under and over
#: DELTA_GRAD from 5e-10 offsets, a defect past 745 whose e^(-D) underflows,
#: sums that overflow to an infinite defect and, for the additive form
#: (which evaluate takes unvalidated), inf and nan entries for nan defects
SPECIAL_LOGS = (0.0, 1.0, -1.0, 2.0, 5e-10, -5e-10, 1.0 + 5e-10, 800.0, -800.0)
SPECIAL_ADDITIVE = SPECIAL_LOGS + (1.7e308, -1.7e308, math.inf, -math.inf, math.nan)


@st.composite
def direction_points(draw):
    """(n, upper, mult, q) for evaluate: order 3 to 8, either form, any of DIRECTION_QS."""
    n = draw(st.integers(min_value=3, max_value=8))
    mult = draw(st.booleans())
    q = draw(st.sampled_from(DIRECTION_QS))
    bs = st.floats(min_value=-3.0, max_value=3.0)
    if draw(st.booleans()):
        bs = st.one_of(bs, st.sampled_from(SPECIAL_LOGS if mult else SPECIAL_ADDITIVE))
    upper = draw(st.lists(bs, min_size=upper_size(n), max_size=upper_size(n)))
    # e^b of |b| = 800 is out of range: the multiplicative form keeps b / 2
    return n, tuple(math.exp(b / 2) for b in upper) if mult else tuple(upper), mult, q


def lifted(n, head, seed):
    """An additive order-n matrix with (b12, b13, b23) = head, the rest from [-2, 2]."""
    rng = random.Random(seed)
    rest = [rng.uniform(-2.0, 2.0) for _ in range(upper_size(n))]
    up = dict(zip(upper_pairs(n), rest))
    up[1, 2], up[1, 3], up[2, 3] = head
    return AdditivePCMatrix(n, tuple(up[ij] for ij in upper_pairs(n)))


def assert_matches_naive(m, p, l):
    """difference_priority_vector agrees with the naive oracle bit for bit, raises included."""
    try:
        want = naive_priority_vector(m, p, l)
    except IndicatorUndefined as err:
        with pytest.raises(IndicatorUndefined) as got:
            difference_priority_vector(point_at(m, p), l)
        assert str(got.value) == str(err)
        return
    assert signed(difference_priority_vector(point_at(m, p), l)) == signed(want)


def naive_priority_vector(m, p, l):
    """-(kii(A + l*e_k, p) - kii(A, p)) / l, each A + l*e_k built by its constructor.

    The naive oracle of difference_priority_vector: a multiplicative a_k + l
    enters kii as ln(a_k + l), and nothing is reused between components.
    """
    base = kii(m, p)
    out = []
    for k in range(len(m.upper)):
        up = list(m.upper)
        up[k] += l
        out.append(-(kii(type(m)(m.n, tuple(up)), p) - base) / l)
    return tuple(out)


def signed(v):
    return [(x, math.copysign(1.0, x)) for x in v]


def central_difference(m, p, k, l=1e-6):
    up = list(m.upper)
    up[k] += l
    hi = kii(m.replace_upper(up), p)
    up[k] -= 2 * l
    lo = kii(m.replace_upper(up), p)
    return (hi - lo) / (2 * l)


def analytic3(m, p):
    """The analytic direction a run takes at an order-3 matrix."""
    return select_direction(3, p, ANALYTIC)(point_at(m, p))


class TestInstantPv3:
    """The analytic direction at order 3, where every p gives the single-triad form."""

    def test_worked_multiplicative(self):
        # u = ln a12 + ln a23 - ln a13 = -2 + 1 - 3 = -4 < 0
        m = MultiplicativePCMatrix(3, (math.exp(-2.0), math.exp(3.0), math.exp(1.0)))
        for p in (1.0, 2.0, math.inf):
            v = analytic3(m, p)
            assert v[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
            assert v[1] == pytest.approx(-math.exp(-7.0), rel=1e-12)
            assert v[2] == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_sign_flips_with_u(self):
        # u > 0 here: a13 much smaller than a12 * a23
        v = analytic3(MultiplicativePCMatrix(3, (4.0, 1.0, 4.0)), 1.0)
        assert v[0] < 0 < v[1]
        assert v[2] < 0

    def test_worked_additive(self):
        e4 = math.exp(-4.0)
        for p in (1.0, 2.0, math.inf):
            v = analytic3(AdditivePCMatrix(3, (-2.0, 3.0, 1.0)), p)
            assert v == pytest.approx((e4, -e4, e4), rel=1e-12)

    def test_consistent_locus_raises(self):
        # the last triangle has |u| = 1e-10, below the guard DELTA_GRAD = 1e-9
        near = MultiplicativePCMatrix(3, (2.0, 4.0 * math.exp(1e-10), 2.0))
        for m in (MultiplicativePCMatrix(3, (2.0, 4.0, 2.0)),
                  AdditivePCMatrix(3, (1.0, 3.0, 2.0)),
                  near, to_additive(near)):
            for p in (1.0, math.inf, 2.0):
                with pytest.raises(OnConsistentLocus):
                    analytic3(m, p)

    @given(logs, logs, logs)
    @settings(max_examples=200)
    def test_is_descent_direction(self, bx, by, bz):
        b = AdditivePCMatrix(3, (bx, by, bz))
        assume(abs(bx + bz - by) > 1e-3)
        v = analytic3(b, 1.0)
        stepped = b.replace_upper(
            tuple(x + 1e-6 * c for x, c in zip(b.upper, v))
        )
        assert kii(stepped, 1.0) < kii(b, 1.0)


class TestInstantPvNp:
    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_nonsmooth_exponents_rejected(self, p):
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        with pytest.raises(NonSmoothExponent):
            select_direction(m.n, p, ANALYTIC)

    def test_consistent_locus(self):
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 8.0, 2.0, 4.0, 2.0))
        with pytest.raises(OnConsistentLocus):
            instant_pv_np(point_at(m, 2.0))

    def test_degenerate_defect_names_triad(self):
        # triad (1,2,3) exactly consistent, others not
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 1.0, 2.0, 1.0, 1.0))
        with pytest.raises(DegenerateDefect) as err:
            instant_pv_np(point_at(m, 2.0))
        assert tuple(err.value.triad) == (1, 2, 3)

    @given(st.lists(logs, min_size=3, max_size=3), smooth_p)
    @settings(max_examples=200)
    def test_order_three_collapses_to_pv3(self, bs, p):
        m = mult_from_logs(3, bs)
        assume(min(all_defects(m.n, log_upper(m.upper, True))) > 1e-3)
        got = instant_pv_np(point_at(m, p))
        want = instant_pv3_mult(*m.upper)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-15)

    @given(st.lists(logs, min_size=6, max_size=6), smooth_p)
    @settings(max_examples=300, deadline=None)
    def test_matches_central_difference(self, bs, p):
        m = mult_from_logs(4, bs)
        assume(min(all_defects(m.n, log_upper(m.upper, True))) > 0.1)
        v = instant_pv_np(point_at(m, p))
        for k in range(6):
            cd = -central_difference(m, p, k)
            assert abs(v[k] - cd) <= 1e-6 * max(1.0, abs(v[k]))

    @given(st.lists(logs, min_size=6, max_size=6))
    @settings(max_examples=100)
    def test_additive_variant_drops_entry_factor(self, bs):
        m = mult_from_logs(4, bs)
        b = to_additive(m)
        assume(min(all_defects(4, b.upper)) > 1e-3)
        vm = instant_pv_np(point_at(m, 2.0))
        vb = instant_pv_np(point_at(b, 2.0))
        for cm, cb, a in zip(vm, vb, m.upper):
            assert cm == pytest.approx(cb / a, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_underflowing_scale_gives_zero_direction(self, p):
        # the defect overflows: e^(-D) is 0 and (d/D)^(p-1) is nan or inf
        b = AdditivePCMatrix(3, (1e308, -1e308, 1e308))
        assert instant_pv_np(point_at(b, p)) == (0.0, 0.0, 0.0)

    @given(direction_points())
    @settings(max_examples=1500, deadline=None)
    def test_matches_per_triad_reference_bit_for_bit(self, point):
        try:
            pt = evaluate(*point)
        except IndicatorUndefined:  # the hole at q < 0: no Point to direct
            return
        assert outcome(instant_pv_np, pt) == outcome(reference_instant_pv_np, pt)

    @pytest.mark.parametrize("n, upper, q", [
        (3, (800.0, 0.0, 0.0), 2.0),
        (4, (800.0, -800.0, 800.0, 800.0, -800.0, 800.0), 3.7),
        (4, (1.7e308, 1.0, 0.5, 1.7e308, 2.0, 1.0), 2.0),
        (4, (1.7e308, 1.0, 0.5, 1.7e308, 2.0, 1.0), -1.0),
        (4, (math.nan, 1.0, 2.0, 0.5, 0.25, 1.0), 0.5),
        (4, (1.0, 2.0, 0.5, 1.0 + 5e-10, 0.25, 1.0), 2.0),
        (4, (1.0, 0.5, 0.25, 1.0, 2.0, 1.0), 628.0),
        (4, (1.0, 2.0, 3.0, 1.0, 2.0, 1.0), 3.0),
    ], ids=["underflow", "underflow_pow", "inf_defect", "inf_defect_hole_side",
            "nan_defect", "sub_delta_grad", "zero_defect", "consistent"])
    def test_matches_per_triad_reference_at_edges(self, n, upper, q):
        pt = evaluate(n, upper, False, q)
        assert outcome(instant_pv_np, pt) == outcome(reference_instant_pv_np, pt)

    def test_python_calls_do_not_grow_with_the_order(self):
        # the weights come from one comprehension and the scatter loop calls
        # nothing: one call costs the same Python frames at n = 8 and 16
        def calls(n):
            rng = random.Random(n)
            pt = point_at(mult_from_logs(n, [rng.uniform(-2.0, 2.0)
                                             for _ in range(upper_size(n))]), 2.0)
            events = []
            sys.setprofile(lambda frame, event, arg: events.append(event))
            try:
                instant_pv_np(pt)
            finally:
                sys.setprofile(None)
            return events.count("call")

        assert calls(8) == calls(16)

    def test_five_by_five_smoke(self):
        rng = random.Random(5)
        bs = [rng.uniform(-2.0, 2.0) for _ in range(10)]
        m = mult_from_logs(5, bs)
        v = instant_pv_np(point_at(m, 2.0))
        assert len(v) == 10
        # descent check with a small step
        stepped = m.replace_upper(
            tuple(a + 1e-7 * c for a, c in zip(m.upper, v))
        )
        assert kii(stepped, 2.0) < kii(m, 2.0)


class TestDifferenceGradient:
    @given(log_matrices(),
           st.sampled_from([2.0, 0.5, 1.0, 3.7, math.inf, -1.0]),
           st.sampled_from([1e-5, 1e-3, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_quotients_bit_for_bit(self, m, p, l):
        try:
            want = naive_priority_vector(m, p, l)
        except IndicatorUndefined:
            with pytest.raises(IndicatorUndefined):
                difference_priority_vector(point_at(m, p), l)
            return
        assert signed(difference_priority_vector(point_at(m, p), l)) == signed(want)

    @given(wide_log_matrices(),
           st.sampled_from([2.0, 0.5, 1.0, 3.7, math.inf, -1.0]),
           st.sampled_from([1e-5, 1e-3, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_quotients_up_to_order_ten(self, m, p, l):
        assert_matches_naive(m, p, l)

    def test_move_into_the_hole_raises_as_naive(self):
        # b12 + 0.5 makes triad (1,2,3)'s defect |0.5 + 0 - 0.5| exactly 0
        m = lifted(8, (0.0, 0.5, 0.0), seed=1)
        assert m.n >= INCREMENTAL_MIN_ORDER
        assert min(all_defects(m.n, m.upper)) > 1e-3
        with pytest.raises(IndicatorUndefined) as err:
            difference_priority_vector(point_at(m, -1.0), 0.5)
        assert tuple(err.value.triad) == (1, 2, 3)
        assert_matches_naive(m, -1.0, 0.5)

    @pytest.mark.parametrize("level,l", [(3.0, 1e-3), (2.7, 0.1)],
                             ids=["base_overflows", "move_overflows"])
    def test_overflowing_power_terms_take_the_scaled_mean(self, level, l):
        # every defect within 0.03 of level: 3^700 overflows, 2.73^700 does
        # not, but a 0.1 move takes touched defects past e^(709.78/700) = 2.757
        rng = random.Random(2)
        n = 8
        m = AdditivePCMatrix(n, tuple(level + rng.uniform(-0.01, 0.01)
                                      for _ in range(upper_size(n))))
        assert_matches_naive(m, 700.0, l)

    @pytest.mark.parametrize("p", [2.0, math.inf, 0.5, -1.0])
    def test_infinite_base_defect_takes_the_fresh_evaluation(self, p):
        # b12 + b23 - b13 overflows, so triad (1,2,3) has an infinite defect;
        # an exact sum over it would meet inf - inf
        m = lifted(6, (1e308, 0.0, 1e308), seed=4)
        assert all_defects(m.n, m.upper)[0] == math.inf
        assert_matches_naive(m, p, 1e-3)
        v = difference_priority_vector(point_at(m, p), 1e-3)
        assert any(v) == (p == -1.0)

    @pytest.mark.parametrize("l", [1e-3, 0.5])
    def test_max_when_the_largest_triad_is_touched(self, l):
        # triad (1,2,3) has defect |2 + 2 + 2| = 6, the largest
        m = lifted(8, (2.0, -2.0, 2.0), seed=3)
        ds = all_defects(m.n, m.upper)
        assert max(ds) == ds[0] == 6.0
        assert_matches_naive(m, math.inf, l)
        v = difference_priority_vector(point_at(m, math.inf), l)
        assert v[upper_index(m.n, 1, 3)] > 0.0

    def test_matches_definition_exactly(self):
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        l = 1e-3
        v = difference_priority_vector(point_at(m, 1.0), l)
        base = kii(m, 1.0)
        up = list(m.upper)
        up[2] += l
        want = -(kii(m.replace_upper(up), 1.0) - base) / l
        assert v[2] == want

    def test_priority_vector_is_negation(self):
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        l = 1e-3
        base = kii(m, 2.0)
        quotients = []
        for k in range(len(m.upper)):
            up = list(m.upper)
            up[k] += l
            quotients.append((kii(m.replace_upper(up), 2.0) - base) / l)
        v = difference_priority_vector(point_at(m, 2.0), l)
        assert signed(v) == signed(-q for q in quotients)

    def test_rejects_bad_increment(self):
        m = mult_from_logs(3, (-2.0, 3.0, 1.0))
        for l in (0.0, -1e-3, None):
            with pytest.raises(ValidationError):
                select_direction(m.n, 1.0, DIFFERENCE, l)

    def test_works_for_nonsmooth_p(self):
        # p = 1 and p = inf have no analytic gradient but difference
        # quotients always exist
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        for p in (1.0, math.inf):
            v = difference_priority_vector(point_at(m, p), 1e-3)
            assert all(math.isfinite(c) for c in v)

    def test_works_on_additive(self):
        b = AdditivePCMatrix(3, (-2.0, 3.0, 1.0))
        v = difference_priority_vector(point_at(b, 1.0), 1e-3)
        # forward quotient of 1 - exp(-|b12 + b23 - b13|) at u = -4
        want0 = -(math.exp(-abs(-4.0 + 1e-3)) - math.exp(-4.0)) / 1e-3
        assert v[0] == pytest.approx(-want0, rel=1e-9)

    @given(st.lists(logs, min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_approaches_instant_pv_as_l_shrinks(self, bs):
        m = mult_from_logs(3, bs)
        assume(min(all_defects(m.n, log_upper(m.upper, True))) > 0.1)
        want = instant_pv3_mult(*m.upper)
        coarse = difference_priority_vector(point_at(m, 1.0), 1e-3)
        fine = difference_priority_vector(point_at(m, 1.0), 1e-6)
        err_coarse = max(abs(a - b) for a, b in zip(coarse, want))
        err_fine = max(abs(a - b) for a, b in zip(fine, want))
        assert err_fine <= err_coarse + 1e-12
