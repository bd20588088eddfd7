import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    to_additive,
)
from pcreduce.errors import (
    DegenerateDefect,
    NonSmoothExponent,
    OnConsistentLocus,
)
from pcreduce.gradients import (
    DirectionVector,
    difference_gradient,
    difference_priority_vector,
    instant_pv3_add,
    instant_pv3_mult,
    instant_pv_np,
)
from pcreduce.indicators import kii

logs = st.floats(min_value=-2.0, max_value=2.0,
                 allow_nan=False, allow_infinity=False)
smooth_p = st.sampled_from([-1.0, 0.5, 2.0, 3.0])


def mult_from_logs(n, bs):
    return MultiplicativePCMatrix(n, tuple(math.exp(x) for x in bs))


def central_difference(m, p, k, l=1e-6):
    up = list(m.upper)
    up[k] += l
    hi = kii(m.replace_upper(up), p)
    up[k] -= 2 * l
    lo = kii(m.replace_upper(up), p)
    return (hi - lo) / (2 * l)


class TestDirectionVector:
    def test_norm_and_negate(self):
        v = DirectionVector(3, (3.0, 0.0, 4.0))
        assert v.norm() == pytest.approx(5.0)
        assert v.negate().components == (-3.0, -0.0, -4.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            DirectionVector(4, (1.0, 2.0))


class TestInstantPv3:
    def test_worked_multiplicative(self):
        # u = 3 - (-2) - 1 = 4 > 0
        v = instant_pv3_mult(math.exp(-2.0), math.exp(3.0), math.exp(1.0))
        assert v.components[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert v.components[1] == pytest.approx(-math.exp(-7.0), rel=1e-12)
        assert v.components[2] == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_sign_flips_with_u(self):
        # u < 0 here: y much smaller than x*z
        v = instant_pv3_mult(4.0, 1.0, 4.0)
        assert v.components[0] < 0 < v.components[1]
        assert v.components[2] < 0

    def test_worked_additive(self):
        v = instant_pv3_add(-2.0, 3.0, 1.0)
        e4 = math.exp(-4.0)
        assert v.components == pytest.approx((e4, -e4, e4), rel=1e-12)

    def test_consistent_locus_raises(self):
        with pytest.raises(OnConsistentLocus):
            instant_pv3_mult(2.0, 4.0, 2.0)
        with pytest.raises(OnConsistentLocus):
            instant_pv3_add(1.0, 3.0, 2.0)

    @given(logs, logs, logs)
    @settings(max_examples=200)
    def test_is_descent_direction(self, bx, by, bz):
        b = AdditivePCMatrix(3, (bx, by, bz))
        assume(abs(bx + bz - by) > 1e-3)
        v = instant_pv3_add(bx, by, bz)
        stepped = b.replace_upper(
            tuple(x + 1e-6 * c for x, c in zip(b.upper, v.components))
        )
        assert kii(stepped, 1.0) < kii(b, 1.0)


class TestInstantPvNp:
    @pytest.mark.parametrize("p", [0.0, 1.0, math.inf])
    def test_nonsmooth_exponents_rejected(self, p):
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        with pytest.raises(NonSmoothExponent):
            instant_pv_np(m, p)

    def test_consistent_locus(self):
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 8.0, 2.0, 4.0, 2.0))
        with pytest.raises(OnConsistentLocus):
            instant_pv_np(m, 2.0)

    def test_degenerate_defect_names_triad(self):
        # triad (1,2,3) exactly consistent, others not
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 1.0, 2.0, 1.0, 1.0))
        with pytest.raises(DegenerateDefect) as err:
            instant_pv_np(m, 2.0)
        assert tuple(err.value.triad) == (1, 2, 3)

    @given(st.lists(logs, min_size=3, max_size=3), smooth_p)
    @settings(max_examples=200)
    def test_order_three_collapses_to_pv3(self, bs, p):
        m = mult_from_logs(3, bs)
        assume(min(all_defects(m.n, log_upper(m))) > 1e-3)
        got = instant_pv_np(m, p)
        want = instant_pv3_mult(*m.upper)
        for g, w in zip(got.components, want.components):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-15)

    @given(st.lists(logs, min_size=6, max_size=6), smooth_p)
    @settings(max_examples=300, deadline=None)
    def test_matches_central_difference(self, bs, p):
        m = mult_from_logs(4, bs)
        assume(min(all_defects(m.n, log_upper(m))) > 0.1)
        v = instant_pv_np(m, p)
        for k in range(6):
            cd = -central_difference(m, p, k)
            assert abs(v.components[k] - cd) <= 1e-6 * max(1.0, abs(v.components[k]))

    @given(st.lists(logs, min_size=6, max_size=6))
    @settings(max_examples=100)
    def test_additive_variant_drops_entry_factor(self, bs):
        m = mult_from_logs(4, bs)
        b = to_additive(m)
        assume(min(all_defects(4, b.upper)) > 1e-3)
        vm = instant_pv_np(m, 2.0)
        vb = instant_pv_np(b, 2.0)
        for cm, cb, a in zip(vm.components, vb.components, m.upper):
            assert cm == pytest.approx(cb / a, rel=1e-12, abs=1e-15)

    def test_five_by_five_smoke(self):
        rng = random.Random(5)
        bs = [rng.uniform(-2.0, 2.0) for _ in range(10)]
        m = mult_from_logs(5, bs)
        v = instant_pv_np(m, 2.0)
        assert len(v.components) == 10
        # descent check with a small step
        stepped = m.replace_upper(
            tuple(a + 1e-7 * c for a, c in zip(m.upper, v.components))
        )
        assert kii(stepped, 2.0) < kii(m, 2.0)


class TestDifferenceGradient:
    def test_matches_definition_exactly(self):
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        l = 1e-3
        g = difference_gradient(m, 1.0, l)
        base = kii(m, 1.0)
        up = list(m.upper)
        up[2] += l
        want = (kii(m.replace_upper(up), 1.0) - base) / l
        assert g.components[2] == want

    def test_priority_vector_is_negation(self):
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        g = difference_gradient(m, 2.0, 1e-3)
        v = difference_priority_vector(m, 2.0, 1e-3)
        assert v.components == tuple(-x for x in g.components)

    def test_rejects_bad_increment(self):
        m = mult_from_logs(3, (-2.0, 3.0, 1.0))
        with pytest.raises(ValueError):
            difference_gradient(m, 1.0, 0.0)

    def test_works_for_nonsmooth_p(self):
        # p = 1 and p = inf have no analytic gradient but difference
        # quotients always exist
        m = mult_from_logs(4, (-2.0, 3.0, 0.0, 1.0, 0.0, 0.0))
        for p in (1.0, math.inf):
            v = difference_priority_vector(m, p, 1e-3)
            assert all(math.isfinite(c) for c in v.components)

    def test_works_on_additive(self):
        b = AdditivePCMatrix(3, (-2.0, 3.0, 1.0))
        v = difference_priority_vector(b, 1.0, 1e-3)
        # forward quotient of 1 - exp(-|b12 + b23 - b13|) at u = -4
        want0 = -(math.exp(-abs(-4.0 + 1e-3)) - math.exp(-4.0)) / 1e-3
        assert v.components[0] == pytest.approx(-want0, rel=1e-9)

    @given(st.lists(logs, min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_approaches_instant_pv_as_l_shrinks(self, bs):
        m = mult_from_logs(3, bs)
        assume(min(all_defects(m.n, log_upper(m))) > 0.1)
        want = instant_pv3_mult(*m.upper)
        coarse = difference_priority_vector(m, 1.0, 1e-3)
        fine = difference_priority_vector(m, 1.0, 1e-6)
        err_coarse = max(abs(a - b) for a, b in zip(coarse.components, want.components))
        err_fine = max(abs(a - b) for a, b in zip(fine.components, want.components))
        assert err_fine <= err_coarse + 1e-12
