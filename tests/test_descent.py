import math
import random

import pytest

from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    to_additive,
)
from pcreduce.descent import (
    ADDITIVE,
    ANALYTIC,
    DIFFERENCE,
    MULTIPLICATIVE,
    STOP_CONVERGED,
    STOP_MAX_ITER,
    STOP_POSITIVITY,
    STOP_STALLED,
    STOP_UNDEFINED,
    DescentConfig,
    run,
    select_direction,
    step_additive,
    step_multiplicative,
)
from pcreduce.errors import (
    InvalidExponent,
    NonSmoothExponent,
    PositivityFailure,
)
from pcreduce.gradients import instant_pv3_mult
from pcreduce.indicators import kii

A3 = MultiplicativePCMatrix(3, (math.exp(-2.0), math.exp(3.0), math.exp(1.0)))
B3 = AdditivePCMatrix(3, (-2.0, 3.0, 1.0))
A4 = MultiplicativePCMatrix(
    4, (math.exp(-2.0), math.exp(3.0), 1.0, math.exp(1.0), 1.0, 1.0)
)


def cfg(**kw):
    base = dict(p=1.0, h=0.01, scheme=MULTIPLICATIVE, gradient=DIFFERENCE,
                l=1e-3, eps=1e-3, max_iter=60000, stall_window=50)
    base.update(kw)
    return DescentConfig(**base)


class TestConfig:
    def test_defaults(self):
        c = DescentConfig(p=2.0, h=0.1, gradient=ANALYTIC)
        assert c.eps == 1e-4
        assert c.stall_window == 50
        assert c.l is None

    @pytest.mark.parametrize("bad", [{"scheme": "geometric"},
                                     {"gradient": "exact"},
                                     {"h": 0.0},
                                     {"h": -1.0},
                                     {"eps": 0.0},
                                     {"max_iter": 0},
                                     {"stall_window": 0}])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            cfg(**bad)

    def test_difference_requires_increment(self):
        with pytest.raises(ValueError):
            cfg(gradient=DIFFERENCE, l=None)

    def test_rejects_p_zero(self):
        with pytest.raises(InvalidExponent):
            cfg(p=0.0)


class TestSteps:
    def test_multiplicative_worked_example(self):
        v = instant_pv3_mult(*A3.upper)
        out = step_multiplicative(A3, v, 0.1)
        assert out.upper[0] == pytest.approx(0.148869, abs=1e-6)
        assert out.upper[1] == pytest.approx(20.085446, abs=1e-6)
        assert out.upper[2] == pytest.approx(2.718956, abs=1e-6)

    def test_additive_worked_example(self):
        e4 = math.exp(-4.0)
        v = (e4, -e4, e4)
        out = step_additive(B3, v, 0.1)
        assert out.upper[0] == pytest.approx(-1.998168, abs=1e-6)
        assert out.upper[1] == pytest.approx(2.998168, abs=1e-6)
        assert out.upper[2] == pytest.approx(1.001832, abs=1e-6)

    def test_clamp_halves_until_positive(self):
        m = MultiplicativePCMatrix(3, (0.01, 1.0, 1.0))
        v = (-100.0, 0.0, 0.0)
        log = []
        out = step_multiplicative(m, v, 0.1, log)
        # raw step -10 halved ten times is -10/1024, leaving 0.01 - 0.009765625
        assert out.upper[0] == pytest.approx(0.000234375, rel=1e-9)
        assert out.upper[0] > 0.0
        assert log == [(1, 2, 10)]

    def test_clamp_gives_up_after_sixty_halvings(self):
        m = MultiplicativePCMatrix(3, (0.01, 1.0, 1.0))
        v = (-1e30, 0.0, 0.0)
        with pytest.raises(PositivityFailure) as err:
            step_multiplicative(m, v, 0.1)
        assert (err.value.i, err.value.j) == (1, 2)

    def test_unclamped_entries_untouched(self):
        v = (0.0, 0.5, -0.25)
        out = step_multiplicative(A3, v, 0.1)
        assert out.upper[0] == A3.upper[0]
        assert out.upper[1] == A3.upper[1] + 0.05
        assert out.upper[2] == A3.upper[2] - 0.025

    def test_additive_never_clamps(self):
        v = (-1e6, 0.0, 0.0)
        out = step_additive(B3, v, 1.0)
        assert out.upper[0] == -2.0 - 1e6


class TestRunStops:
    def test_converges_on_easy_input(self):
        res = run(A3, cfg(h=0.1))
        assert res.stop_reason == STOP_CONVERGED
        assert res.best_indicator < 1e-3
        assert res.best_iter == res.trace.records[-1].iteration

    def test_max_iter_stop(self):
        res = run(A3, cfg(max_iter=5))
        assert res.stop_reason == STOP_MAX_ITER
        assert len(res.trace.records) == 6  # iterates 0..5 inclusive
        assert res.trace.records[-1].direction_norm is None

    def test_stalled_stop(self):
        # h too coarse to converge to eps=1e-9: the run must stall out
        res = run(A3, cfg(h=0.1, eps=1e-9))
        assert res.stop_reason == STOP_STALLED
        assert res.best_indicator < 1e-3

    def test_positivity_failure_stop(self):
        res = run(A4, cfg(h=1e30))
        assert res.stop_reason == STOP_POSITIVITY
        assert res.best_matrix is not None

    def test_undefined_at_start_returns_empty_result(self):
        # one exactly consistent triad puts p = -1 in its hole immediately
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 1.0, 2.0, 1.0, 1.0))
        res = run(m, cfg(p=-1.0))
        assert res.stop_reason == STOP_UNDEFINED
        assert res.best_matrix is None
        assert res.best_iter == -1
        assert res.trace.records == ()

    def test_undefined_from_gradient_keeps_best(self):
        # analytic gradient for p = 1 does not exist at order 4; the
        # indicator itself is fine, so iterate 0 is recorded before the stop
        res = run(A4, cfg(gradient=ANALYTIC, p=1.0, l=None))
        assert res.stop_reason == STOP_UNDEFINED
        assert res.best_iter == 0
        assert len(res.trace.records) == 1


class TestRunTrace:
    def test_trace_is_faithful(self):
        res = run(A3, cfg(h=0.1))
        recs = res.trace.records
        assert recs[0].iteration == 0
        assert recs[0].upper == A3.upper
        assert [r.iteration for r in recs] == list(range(len(recs)))
        # recorded indicators recompute exactly from recorded iterates
        for r in recs[::25]:
            m = MultiplicativePCMatrix(3, r.upper)
            assert kii(m, 1.0) == r.indicator
        # all but the stopping record carry the direction norm
        assert all(r.direction_norm is not None for r in recs[:-1])
        assert recs[-1].direction_norm is None

    def test_direction_norm_is_length_of_selected_direction(self):
        res = run(A4, cfg(p=2.0, max_iter=5))
        rec = res.trace.records[3]
        m = MultiplicativePCMatrix(4, rec.upper)
        v = select_direction(m, 2.0, DIFFERENCE, 1e-3)
        assert rec.direction_norm == math.sqrt(math.fsum(c * c for c in v))
        assert rec.direction_norm > 0.0

    def test_best_is_first_argmin(self):
        res = run(A3, cfg(h=0.1, eps=1e-9))
        inds = [r.indicator for r in res.trace.records]
        lo = min(inds)
        assert res.best_indicator == lo
        assert res.best_iter == inds.index(lo)
        assert res.best_matrix.upper == res.trace.records[res.best_iter].upper

    def test_reciprocity_of_every_iterate(self):
        res = run(A3, cfg(h=0.1))
        for r in res.trace.records:
            assert all(x > 0.0 for x in r.upper)

    def test_additive_scheme_converts_once(self):
        res = run(A3, cfg(scheme=ADDITIVE, h=0.1))
        assert isinstance(res.best_matrix, AdditivePCMatrix)
        assert res.trace.records[0].upper == to_additive(A3).upper

    def test_additive_start_accepted_by_multiplicative_scheme(self):
        res = run(B3, cfg(h=0.1))
        assert isinstance(res.best_matrix, MultiplicativePCMatrix)
        assert res.stop_reason == STOP_CONVERGED

    def test_clamp_events_carry_iteration(self):
        res = run(A4, cfg(p=-1.0, h=0.002, l=0.1, eps=1e-3))
        for ev in res.trace.clamp_events:
            assert 0 <= ev.iteration <= res.trace.records[-1].iteration
            assert 1 <= ev.halvings <= 60

    def test_clamped_run_records_events(self):
        # a12 must shrink by more than its own size: the step clamps
        m = MultiplicativePCMatrix(3, (0.01, 0.0001, 1.0))
        res = run(m, cfg(gradient=ANALYTIC, p=2.0, h=1.0, l=None, max_iter=3))
        assert any(ev.iteration == 0 and (ev.i, ev.j) == (1, 2)
                   for ev in res.trace.clamp_events)
        for r in res.trace.records:
            assert all(x > 0.0 for x in r.upper)


class TestSchemeEquivalence:
    def test_both_schemes_reach_low_defects_but_different_matrices(self):
        rm = run(A3, cfg(h=0.01))
        ra = run(A3, cfg(scheme=ADDITIVE, h=0.01))
        dm = max(all_defects(3, log_upper(rm.best_matrix)))
        da = max(all_defects(3, ra.best_matrix.upper))
        assert dm < 0.05
        assert da < 0.05
        lifted = tuple(math.exp(x) for x in ra.best_matrix.upper)
        assert max(abs(a - b) for a, b in zip(rm.best_matrix.upper, lifted)) > 0.5

    def test_four_by_four_both_schemes(self):
        # order-4 runs with p=2 stall well short of consistency (the fixed
        # step keeps bouncing across defect kinks), but both schemes must
        # cut the indicator hard from the same start
        start = kii(A4, 2.0)
        rm = run(A4, cfg(p=2.0, h=0.01))
        ra = run(A4, cfg(p=2.0, scheme=ADDITIVE, h=0.01))
        assert kii(rm.best_matrix, 2.0) < 0.3 * start
        assert kii(ra.best_matrix, 2.0) < 0.3 * start


class TestDescentProgress:
    def test_analytic_runs_strictly_improve(self):
        rng = random.Random(11)
        checked = 0
        while checked < 20:
            bs = [rng.uniform(-1.2, 1.2) for _ in range(6)]
            m = MultiplicativePCMatrix(4, tuple(math.exp(x) for x in bs))
            if min(all_defects(m.n, log_upper(m))) < 1e-2:
                continue
            for p in (0.5, 2.0):
                res = run(m, cfg(gradient=ANALYTIC, p=p, h=0.01, l=None,
                                 eps=1e-6, stall_window=200, max_iter=20000))
                inds = [r.indicator for r in res.trace.records]
                assert res.best_indicator == min(inds)
                assert res.best_indicator < inds[0] - 1e-6
                assert res.stop_reason in (STOP_CONVERGED, STOP_STALLED,
                                           STOP_MAX_ITER)
            checked += 1


class TestSelectDirection:
    def test_difference_requires_increment(self):
        with pytest.raises(ValueError):
            select_direction(A4, 1.0, DIFFERENCE)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            select_direction(A4, 1.0, "newton")

    def test_analytic_order_three_allows_any_p(self):
        want = instant_pv3_mult(*A3.upper)
        for p in (-1.0, 0.5, 1.0, 2.0, math.inf):
            got = select_direction(A3, p, ANALYTIC)
            assert got == want

    def test_analytic_order_four_rejects_nonsmooth_p(self):
        for p in (1.0, math.inf):
            with pytest.raises(NonSmoothExponent):
                select_direction(A4, p, ANALYTIC)
