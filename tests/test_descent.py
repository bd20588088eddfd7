import gc
import math
import pickle
import random
import sys
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from pcreduce import core, descent, gradients, indicators
from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    to_additive,
    upper_size,
)
from pcreduce.descent import (
    ADDITIVE,
    MULTIPLICATIVE,
    STOP_CONVERGED,
    STOP_MAX_ITER,
    STOP_POSITIVITY,
    STOP_STALLED,
    STOP_UNDEFINED,
    DescentConfig,
    IterationTrace,
    TraceRecord,
    TraceRecords,
    run,
    step_additive,
    step_multiplicative,
)
from pcreduce.errors import (
    IndicatorUndefined,
    InvalidExponent,
    NonFiniteEntry,
    NonPositiveEntry,
    NonSmoothExponent,
    PositivityFailure,
    ValidationError,
)
from pcreduce.gradients import (
    ANALYTIC,
    DIFFERENCE,
    select_direction,
)
from pcreduce.indicators import kii, point_at
from pcreduce.matrixio import read_trace_file, write_trace_file

from oracles import instant_pv3_mult, off_consistent, p2_additive_path, row_means

A3 = MultiplicativePCMatrix(3, (math.exp(-2.0), math.exp(3.0), math.exp(1.0)))
B3 = AdditivePCMatrix(3, (-2.0, 3.0, 1.0))
A4 = MultiplicativePCMatrix(
    4, (math.exp(-2.0), math.exp(3.0), 1.0, math.exp(1.0), 1.0, 1.0)
)
# triad (1,2,3) is exactly consistent: p < 0 is undefined here
HOLE4 = MultiplicativePCMatrix(4, (2.0, 4.0, 1.0, 2.0, 1.0, 1.0))


def cfg(**kw):
    base = dict(p=1.0, h=0.01, scheme=MULTIPLICATIVE, gradient=DIFFERENCE,
                l=1e-3, eps=1e-3, max_iter=60000, stall_window=50)
    base.update(kw)
    return DescentConfig(**base)


def traced(*records):
    """The TraceRecords of records, filled by append as run fills one."""
    store = TraceRecords()
    for record in records:
        store.append(record)
    return store


class TestConfig:
    def test_defaults(self):
        c = DescentConfig(p=2.0, h=0.1, gradient=ANALYTIC)
        assert c.eps == 1e-4
        assert c.stall_window == 50
        assert c.l == 1e-3

    @pytest.mark.parametrize("bad", [{"scheme": "geometric"},
                                     {"gradient": "exact"},
                                     {"h": 0.0},
                                     {"h": -1.0},
                                     {"eps": 0.0},
                                     {"max_iter": 0},
                                     {"stall_window": 0},
                                     {"max_iter": math.nan},
                                     {"max_iter": 2.5},
                                     {"max_iter": 10.0},
                                     {"max_iter": "10"},
                                     {"stall_window": math.nan},
                                     {"stall_window": 50.0},
                                     {"stall_window": None},
                                     {"eps": 1.0},
                                     {"eps": 700.0},
                                     {"eps": math.inf},
                                     {"h": math.inf},
                                     {"l": math.inf},
                                     # ints compare below inf but overflow a float
                                     {"h": 10**400},
                                     {"h": -(10**400)},
                                     {"l": 10**400},
                                     {"l": -(10**400)},
                                     {"p": 10**400},
                                     {"p": -(10**400)},
                                     # h, eps and l are coerced to float as p is
                                     {"h": "1"},
                                     {"h": None},
                                     {"h": 1j},
                                     {"eps": "x"},
                                     {"eps": None},
                                     {"l": "x"},
                                     {"l": 1j},
                                     # float would parse bytes as text
                                     {"p": b"2"},
                                     {"h": b"1"},
                                     {"eps": bytearray(b"0.1")},
                                     {"p": Decimal("sNaN")},
                                     {"h": Decimal("sNaN")},
                                     # an unhashable scheme reached a dict lookup
                                     {"scheme": []},
                                     {"scheme": {}}])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValidationError):
            cfg(**bad)

    def test_real_fields_are_stored_as_floats(self):
        # a Decimal step or increment runs as the float it rounds to
        c = cfg(h=Decimal("0.1"), l=Decimal("0.001"), eps=Decimal("0.001"), max_iter=20)
        assert (type(c.h), type(c.l), type(c.eps)) == (float, float, float)
        assert run(A4, c) == run(A4, cfg(h=0.1, l=0.001, eps=0.001, max_iter=20))
        assert cfg(gradient=ANALYTIC, l=None).l is None

    def test_difference_requires_increment(self):
        with pytest.raises(ValidationError):
            cfg(gradient=DIFFERENCE, l=None)

    def test_rejects_p_zero(self):
        with pytest.raises(InvalidExponent):
            cfg(p=0.0)


class TestSteps:
    def test_multiplicative_worked_example(self):
        v = instant_pv3_mult(*A3.upper)
        out = step_multiplicative(3, A3.upper, v, 0.1)
        assert out[0] == pytest.approx(0.148869, abs=1e-6)
        assert out[1] == pytest.approx(20.085446, abs=1e-6)
        assert out[2] == pytest.approx(2.718956, abs=1e-6)

    def test_additive_worked_example(self):
        e4 = math.exp(-4.0)
        v = (e4, -e4, e4)
        out = step_additive(3, B3.upper, v, 0.1)
        assert out[0] == pytest.approx(-1.998168, abs=1e-6)
        assert out[1] == pytest.approx(2.998168, abs=1e-6)
        assert out[2] == pytest.approx(1.001832, abs=1e-6)

    def test_clamp_halves_until_positive(self):
        m = MultiplicativePCMatrix(3, (0.01, 1.0, 1.0))
        v = (-100.0, 0.0, 0.0)
        log = []
        out = step_multiplicative(3, m.upper, v, 0.1, log)
        # raw step -10 halved ten times is -10/1024, leaving 0.01 - 0.009765625
        assert out[0] == pytest.approx(0.000234375, rel=1e-9)
        assert out[0] > 0.0
        assert log == [(1, 2, 10)]

    def test_clamp_gives_up_after_sixty_halvings(self):
        m = MultiplicativePCMatrix(3, (0.01, 1.0, 1.0))
        v = (-1e30, 0.0, 0.0)
        with pytest.raises(PositivityFailure) as err:
            step_multiplicative(3, m.upper, v, 0.1)
        assert (err.value.i, err.value.j) == (1, 2)

    def test_failure_reports_the_halving_limit(self, monkeypatch):
        # a = 0.01 and a raw step of -0.1 need four halvings
        monkeypatch.setattr(descent, "MAX_HALVINGS", 3)
        with pytest.raises(PositivityFailure) as err:
            step_multiplicative(3, (0.01, 1.0, 1.0), (-1.0, 0.0, 0.0), 0.1)
        assert err.value.halvings == 3
        assert "after 3 halvings" in str(err.value)

    def test_nonfinite_result_raises_the_constructors_error(self):
        # the guard is the only check of an iterate: it names the entry as
        # MultiplicativePCMatrix / AdditivePCMatrix would
        with pytest.raises(NonPositiveEntry) as err:
            step_multiplicative(3, A3.upper, (0.0, math.nan, 0.0), 0.1)
        assert (err.value.i, err.value.j) == (1, 3)
        with pytest.raises(NonPositiveEntry):
            step_multiplicative(3, A3.upper, (0.0, 0.0, 1.0), math.inf)
        with pytest.raises(NonFiniteEntry) as err:
            step_additive(3, B3.upper, (1.0, 0.5, -1.0), math.inf)
        assert (err.value.i, err.value.j, err.value.value) == (1, 2, math.inf)

    def test_unclamped_entries_untouched(self):
        v = (0.0, 0.5, -0.25)
        out = step_multiplicative(3, A3.upper, v, 0.1)
        assert out[0] == A3.upper[0]
        assert out[1] == A3.upper[1] + 0.05
        assert out[2] == A3.upper[2] - 0.025

    def test_additive_never_clamps(self):
        v = (-1e6, 0.0, 0.0)
        out = step_additive(3, B3.upper, v, 1.0)
        assert out[0] == -2.0 - 1e6


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

    def test_step_overflow_ends_with_positivity_failure(self):
        # h * w_1_2 overflows to -inf: check_entries rejects the new iterate,
        # and the run keeps iterate 0 instead of raising NonFiniteEntry
        m = AdditivePCMatrix(4, (1.0, 2.0, 0.5, 1.000000001, 3.0, -1.0))
        res = run(m, cfg(scheme=ADDITIVE, p=0.5, l=1e-6, h=1e307))
        assert res.stop_reason == STOP_POSITIVITY
        assert res.best_iter == 0
        assert res.best_matrix == m

    def test_undefined_at_start_raises(self):
        # one exactly consistent triad puts p = -1 in its hole at iterate 0:
        # that start is no run, in either scheme
        for scheme in (MULTIPLICATIVE, ADDITIVE):
            with pytest.raises(IndicatorUndefined) as err:
                run(HOLE4, cfg(p=-1.0, scheme=scheme))
            assert err.value.triad == (1, 2, 3)

    def test_undefined_from_gradient_keeps_best(self):
        # triad (1,2,3) is exactly consistent: K_2 is defined there but its
        # analytic direction is not, so iterate 0 is recorded before the stop
        m = MultiplicativePCMatrix(4, (2.0, 4.0, 1.0, 2.0, 1.0, 1.0))
        res = run(m, cfg(gradient=ANALYTIC, p=2.0, l=None))
        assert res.stop_reason == STOP_UNDEFINED
        assert res.best_iter == 0
        assert len(res.trace.records) == 1

    def test_order_three_below_direction_guard_is_undefined(self):
        # |u| = 1e-10: K_1 is defined, but below DELTA_GRAD (1e-9) the
        # analytic direction raises OnConsistentLocus
        m = MultiplicativePCMatrix(3, (2.0, 4.0 * math.exp(1e-10), 2.0))
        res = run(m, cfg(gradient=ANALYTIC, l=None, h=0.1, eps=1e-12))
        assert res.stop_reason == STOP_UNDEFINED
        assert res.best_iter == 0
        assert len(res.trace.records) == 1

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_analytic_nonsmooth_p_rejected_before_iterate_zero(self, p):
        with pytest.raises(NonSmoothExponent):
            run(A4, cfg(gradient=ANALYTIC, p=p, l=None))
        # the order-3 analytic route takes every p
        res = run(A3, cfg(gradient=ANALYTIC, p=p, l=None, h=0.1))
        assert res.stop_reason == STOP_CONVERGED


#: id: (stop reason, start, config) of the runs whose items TestDescend
#: checks, one for each stop reason and both ways to indicator_undefined
DESCEND_RUNS = {
    "converged": (STOP_CONVERGED, A3, dict(h=0.1)),
    # h too coarse to converge to eps=1e-9
    "stalled": (STOP_STALLED, A3, dict(h=0.1, eps=1e-9)),
    # the step from iterate 0 clamps a12, and iterate 0 stays the best
    "max_iter": (STOP_MAX_ITER, MultiplicativePCMatrix(3, (0.01, 0.0001, 1.0)),
                 dict(gradient=ANALYTIC, p=2.0, h=1.0, l=None, max_iter=3)),
    # K_2 is defined at iterate 0, but its analytic direction is not
    "indicator_undefined": (STOP_UNDEFINED, HOLE4, dict(gradient=ANALYTIC, p=2.0, l=None)),
    # the step from iterate 0 lands on u = 0, in p = -1's hole
    "step_into_hole": (STOP_UNDEFINED, AdditivePCMatrix(3, (1.0, 0.0, 0.0)),
                       dict(scheme=ADDITIVE, gradient=ANALYTIC, p=-1.0, h=math.e / 3, l=None)),
    "positivity_failure": (STOP_POSITIVITY, A4, dict(h=1e30)),
}


class TestDescend:
    def test_every_stop_reason_has_a_run(self):
        assert {reason for reason, _, _ in DESCEND_RUNS.values()} == set(descent.STOP_REASONS)

    @pytest.mark.parametrize("name", list(DESCEND_RUNS))
    def test_run_is_the_record_of_descend(self, name):
        reason, m, kw = DESCEND_RUNS[name]
        config = cfg(**kw)
        items = list(descent.descend(m, config))
        assert [stop for _, _, stop in items] == [None] * (len(items) - 1) + [reason]
        assert items[-1][1] == ()
        records = [r for r, _, _ in items]
        assert [r.iteration for r in records] == list(range(len(records)))
        assert all(ev.iteration == r.iteration for r, evs, _ in items for ev in evs)
        best = min(records, key=lambda r: r.indicator)
        assert run(m, config) == descent.DescentResult(
            n=m.n,
            scheme=config.scheme,
            best_iter=best.iteration,
            best_matrix=type(m)(m.n, best.upper),
            best_indicator=best.indicator,
            stop_reason=reason,
            trace=IterationTrace(
                traced(*records), tuple(ev for _, evs, _ in items for ev in evs)),
        )

    def test_hole_at_iterate_zero_records_nothing(self):
        # iterate 0 is evaluated before the first item: that next() raises
        items = descent.descend(HOLE4, cfg(p=-1.0))
        with pytest.raises(IndicatorUndefined) as err:
            next(items)
        assert err.value.triad == (1, 2, 3)

    def test_rejected_step_yields_its_iterate(self):
        # the step from iterate 0 fails its guard: iterate 0 is the last item,
        # with the norm of the direction it took and no clamps
        _, m, kw = DESCEND_RUNS["positivity_failure"]
        [(record, clamps, stop)] = descent.descend(m, cfg(**kw))
        assert (record.iteration, record.upper, stop) == (0, m.upper, STOP_POSITIVITY)
        assert record.direction_norm > 0.0
        assert clamps == ()

    def test_step_into_the_hole_yields_the_iterate_it_left(self):
        # iterate 1 has no K_p: iterate 0 is the one item, with the norm of
        # the direction it took, the step's clamps (none, additive) and the stop
        _, m, kw = DESCEND_RUNS["step_into_hole"]
        [(record, clamps, stop)] = descent.descend(m, cfg(**kw))
        assert (record.iteration, record.upper, stop) == (0, m.upper, STOP_UNDEFINED)
        assert record.direction_norm > 0.0
        assert clamps == ()


class TestRunTrace:
    def test_trace_is_faithful(self):
        res = run(A3, cfg(h=0.1))
        recs = res.trace.records
        assert recs[0].iteration == 0
        assert recs[0].upper == A3.upper
        assert [r.iteration for r in recs] == list(range(len(recs)))
        # recorded indicators recompute exactly from recorded iterates
        for k in range(0, len(recs), 25):
            m = MultiplicativePCMatrix(3, recs[k].upper)
            assert kii(m, 1.0) == recs[k].indicator
        # all but the stopping record carry the direction norm
        assert [r.direction_norm is None for r in recs] == [False] * (len(recs) - 1) + [True]

    def test_direction_norm_is_length_of_selected_direction(self):
        res = run(A4, cfg(p=2.0, max_iter=5))
        rec = res.trace.records[3]
        m = MultiplicativePCMatrix(4, rec.upper)
        v = select_direction(4, 2.0, DIFFERENCE, 1e-3)(point_at(m, 2.0))
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


class TestTraceRecords:
    """A trace's records read, by index, as the TraceRecords appended to them."""

    @pytest.fixture(scope="class")
    def res(self):
        return run(A4, cfg(p=2.0, h=0.1, max_iter=40))

    def test_indices_and_iteration_match_the_tuple(self, res):
        recs = res.trace.records
        records = tuple(recs)
        assert len(recs) == len(records) == 41
        assert all(type(r) is TraceRecord for r in records)
        for k in (0, 7, 40, -1, -41):
            assert recs[k] == records[k]
        for k in (41, -42):
            with pytest.raises(IndexError):
                recs[k]
        for cut in (slice(None), slice(1, 3)):
            with pytest.raises(TypeError):
                recs[cut]
        assert list(reversed(recs)) == list(reversed(records))
        assert recs.index(records[5]) == 5 and records[5] in recs

    def test_equality_agrees_with_the_tuple_and_hash_raises(self, res):
        recs = res.trace.records
        records = tuple(recs)
        assert recs == records and records == recs
        assert not recs != records
        assert recs != records[:-1] and records[:-1] != recs
        assert recs != list(records)
        for unhashable in (recs, res.trace, res):
            with pytest.raises(TypeError):
                hash(unhashable)
        assert IterationTrace(traced(*records)) == IterationTrace(recs)

    def test_a_direction_norm_of_none_is_not_nan(self):
        upper = (1.0, 2.0, 3.0)
        with_none = traced(TraceRecord(0, upper, 0.5, None))
        with_nan = traced(TraceRecord(0, upper, 0.5, math.nan))
        assert with_none[0].direction_norm is None
        assert math.isnan(with_nan[0].direction_norm)
        assert with_none != with_nan and with_nan != with_none

    def test_a_result_equals_itself_with_a_nan_field(self, res):
        nan = TraceRecord(0, (math.nan,) * 6, math.nan, math.nan)
        odd = res._replace(trace=IterationTrace(traced(nan)))
        assert odd == odd and odd.trace.records == odd.trace.records
        with pytest.raises(TypeError):
            hash(odd)

    def test_rows_give_each_record_but_its_norm(self, res):
        recs = res.trace.records
        assert [(it, indicator, tuple(upper)) for it, indicator, upper in recs.rows()] == [
            (r.iteration, r.indicator, r.upper) for r in recs]

    def test_records_are_read_only(self, res):
        recs = res.trace.records
        with pytest.raises(TypeError):
            recs[0] = recs[1]
        with pytest.raises(AttributeError):
            recs.extra = 1

    def test_records_share_one_width(self):
        store = traced(TraceRecord(0, (1.0,) * 6, 0.5, None))
        with pytest.raises(ValidationError, match=r"^trace record 1 has 3 entries, not 6$"):
            store.append(TraceRecord(1, (1.0, 2.0, 3.0), 0.5, None))
        assert store == (TraceRecord(0, (1.0,) * 6, 0.5, None),)

    def test_appended_records_read_back_as_given(self, res):
        records = [res.trace.records[k] for k in range(3)] + [
            TraceRecord(3, (1.0,) * 6, 0.5, None), TraceRecord(4, (2.0,) * 6, 0.25, math.nan)]
        store = traced(*records)
        assert len(store) == 5
        # a nan norm is not equal to itself, so the reprs compare the records
        assert repr(tuple(store)) == repr(tuple(records))
        assert all(type(store[k]) is TraceRecord for k in range(5))
        assert store[3].direction_norm is None and math.isnan(store[4].direction_norm)

    def test_a_wider_record_raises_at_that_record(self):
        narrow, wide = (1.0, 2.0, 3.0), (1.0,) * 6
        store = traced(TraceRecord(0, narrow, 0.5, None), TraceRecord(1, narrow, 0.25, 1.0))
        message = r"^trace record 2 has 6 entries, not 3$"
        with pytest.raises(ValidationError, match=message):
            store.append(TraceRecord(2, wide, 0.125, None))
        assert len(store) == 2 and store[-1] == TraceRecord(1, narrow, 0.25, 1.0)

    @pytest.mark.parametrize("bad,error", [
        # record k is iterate k: a record that is not the next iterate
        pytest.param((2**63, (1.0, 2.0, 3.0), 0.5, None), ValidationError, id="iteration"),
        pytest.param((1, (1.0, "2", 3.0), 0.5, None), TypeError, id="entry"),
        pytest.param((1, (1.0, 2.0, 3.0), "0.5", None), TypeError, id="indicator"),
        pytest.param((1, (1.0, 2.0, 3.0), 0.5, "1"), TypeError, id="norm"),
    ])
    def test_a_record_its_columns_cannot_hold_changes_nothing(self, bad, error):
        first = TraceRecord(0, (1.0, 2.0, 3.0), 0.5, 1.0)
        good = TraceRecord(1, (4.0, 5.0, 6.0), 0.25, None)
        store = traced(first)
        with pytest.raises(error):
            store.append(bad)
        assert len(store) == 1 and store == (first,)
        store.append(good)
        assert len(store) == 2 and store == (first, good)

    def test_an_empty_store_has_no_records(self):
        store = TraceRecords()
        assert len(store) == 0 and list(store) == [] and list(store.rows()) == []
        assert store == () and () == store and store == TraceRecords()

    def test_a_trace_file_reads_back_as_written(self, res, tmp_path):
        write_trace_file(tmp_path / "run.trace", res)
        back = read_trace_file(tmp_path / "run.trace")
        assert back.trace.records == tuple(
            r._replace(direction_norm=None) for r in res.trace.records)
        assert back == res._replace(trace=IterationTrace(back.trace.records))

    def test_a_result_survives_pickle(self, res):
        back = pickle.loads(pickle.dumps(res))
        assert back == res and back.trace.records == tuple(res.trace.records)


def retained_bytes(m, count):
    """Bytes that tracemalloc sees held after a run of count iterates from m."""
    c = cfg(p=2.0, h=1e-9, gradient=ANALYTIC, l=None, eps=1e-300,
            max_iter=count - 1, stall_window=10**9)
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    res = run(m, c)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - before
    assert len(res.trace.records) == count
    return held


@pytest.mark.parametrize("m", [A3, A4], ids=["n3", "n4"])
def test_a_record_retains_only_its_floats(m):
    # the slope between two run lengths cancels what every run holds
    # whatever its length, such as the interpreter's free lists
    # the triangle, indicator and norm as floats, and the norm's flag byte
    size = 8 * (core.upper_size(m.n) + 2) + 1
    tracemalloc.start()
    try:
        retained_bytes(m, 10)  # builds the order's tables
        per_record = (retained_bytes(m, 20000) - retained_bytes(m, 2000)) / 18000
    finally:
        tracemalloc.stop()
    assert per_record <= size * 1.25


#: the two triad sweeps: residuals for each fresh evaluation, all_defects
#: for each bare K_p value
SWEEPS = ("all_defects", "residuals")


class TestRunCost:
    def test_one_evaluation_per_iteration(self, monkeypatch):
        # a k-step analytic run at order 4 sweeps the triads once per
        # iterate (the signed residuals), never re-checks p and builds one
        # matrix, the best; its directions take their signs from the Point
        # and sweep nothing
        k = 20
        config = cfg(gradient=ANALYTIC, p=2.0, l=None, max_iter=k,
                     eps=1e-9, stall_window=k + 1)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (core, indicators, gradients, descent):
            for name in SWEEPS + ("normalize_exponent",):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        for cls in (MultiplicativePCMatrix, AdditivePCMatrix):
            monkeypatch.setattr(cls, "__post_init__",
                                counted("matrix", cls.__post_init__))
        res = run(A4, config)
        assert res.stop_reason == STOP_MAX_ITER
        assert len(res.trace.records) == k + 1
        assert sum(map(calls.count, SWEEPS)) == k + 1
        assert calls.count("normalize_exponent") == 0
        assert calls.count("matrix") == 1
        pt = point_at(A4, 2.0)
        calls.clear()
        gradients.instant_pv_np(pt)
        assert calls == []

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_small_difference_run_skips_the_power_mean(self, monkeypatch, p):
        # below the incremental order each iterate and each of its 6 moved
        # entries sweeps the triads once, and the kernel's mean is fixed in
        # advance: the checked power mean's exponent validation never runs
        k = 20
        config = cfg(p=p, max_iter=k, eps=1e-9, stall_window=k + 1)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (core, indicators, gradients, descent):
            for name in SWEEPS + ("normalize_exponent",):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        res = run(A4, config)
        assert res.stop_reason == STOP_MAX_ITER
        assert calls.count("normalize_exponent") == 0
        assert sum(map(calls.count, SWEEPS)) == (k + 1) + 6 * k

    def test_difference_direction_sweeps_no_triads_above_crossover(self, monkeypatch):
        # at order 8 each of the 28 components updates the base point's
        # defects instead of evaluating kii afresh
        n = 8
        assert n >= indicators.INCREMENTAL_MIN_ORDER
        rng = random.Random(8)
        m = AdditivePCMatrix(n, tuple(rng.uniform(-2.0, 2.0) for _ in range(28)))
        pt = point_at(m, 2.0)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (core, indicators):
            for name in SWEEPS:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        v = gradients.difference_priority_vector(pt, 1e-3)
        assert len(v) == 28
        assert calls == []


class TestSchemeEquivalence:
    def test_both_schemes_reach_low_defects_but_different_matrices(self):
        rm = run(A3, cfg(h=0.01))
        ra = run(A3, cfg(scheme=ADDITIVE, h=0.01))
        dm = max(all_defects(3, log_upper(rm.best_matrix.upper, True)))
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


def additive_analytic(n, b0, p, h, steps=50):
    """The records of an additive analytic run of steps steps from b0 that no stall ends."""
    res = run(AdditivePCMatrix(n, tuple(b0)), cfg(
        p=p, h=h, scheme=ADDITIVE, gradient=ANALYTIC, l=None, eps=1e-300,
        max_iter=steps, stall_window=10**9))
    return res.trace.records


@st.composite
def additive_starts(draw):
    """(n, b0, p, h): an order in 3..12, its start logs, a smooth p of either sign, a step.

    The logs are uniform in [-4, 4] from a drawn seed rather than Hypothesis
    floats: those repeat values, so a triad is often exactly consistent and
    the run ends at iterate 0.
    """
    n = draw(st.integers(min_value=3, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    b0 = [rng.uniform(-4.0, 4.0) for _ in range(upper_size(n))]
    p = draw(st.one_of(st.floats(min_value=-4.0, max_value=-0.25),
                       st.floats(min_value=0.25, max_value=0.75),
                       st.floats(min_value=1.25, max_value=4.0)))
    return n, b0, p, draw(st.sampled_from([0.01, 0.1, 0.5, 1.0]))


class TestAdditiveInvariants:
    """The gradient of K_p lies in the range of T^T, orthogonal to the
    consistent matrices, so an additive analytic step never moves Pb."""

    @given(additive_starts())
    @settings(max_examples=100, deadline=None)
    def test_row_means_stay_put(self, case):
        n, b0, p, h = case
        w0 = row_means(n, b0)
        bound = 1e-12 * max(1.0, *map(abs, b0))
        records = additive_analytic(n, b0, p, h)
        assert len(records) > 1  # the run takes steps, so the row means can move
        for rec in records:
            assert max(abs(a - b) for a, b in zip(row_means(n, rec.upper), w0)) <= bound

    @pytest.mark.parametrize("n", [3, 5, 10, 20, 30, 40])
    def test_p_two_moves_along_a_straight_line(self, n):
        # sum_t u_t^2 = n * ||b - Pb||^2: the iterates keep b - Pb parallel to b0 - Pb0
        rng = random.Random(n)
        b0 = [rng.uniform(-2.0, 2.0) for _ in range(upper_size(n))]
        r0 = off_consistent(n, b0)
        norm2 = math.fsum(x * x for x in r0)
        records = additive_analytic(n, b0, 2.0, 1.0)
        assert len(records) == 51
        for rec in records:
            r = off_consistent(n, rec.upper)
            c = math.fsum(x * y for x, y in zip(r, r0)) / norm2
            off = math.sqrt(math.fsum((x - c * y) ** 2 for x, y in zip(r, r0)))
            assert off <= 1e-12 * math.sqrt(norm2)
        assert c < 0.99  # the last iterate has moved along the line


@st.composite
def near_consistent_starts(draw):
    """(n, b0): an order in 3..16 and uniform start logs in [-0.5, 0.5], so D0 is small.

    The logs come from a drawn seed rather than from Hypothesis floats:
    those repeat values, and a triad of repeats is consistent, so most
    starts above n = 8 would fail the test's assume.
    """
    n = draw(st.integers(min_value=3, max_value=16))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return n, [rng.uniform(-0.5, 0.5) for _ in range(upper_size(n))]


class TestP2AdditivePath:
    """The p = 2 additive analytic run is the scalar recurrence of
    p2_additive_path until it first crosses the consistent matrix Pb0."""

    @given(near_consistent_starts(), st.sampled_from([0.01, 0.1, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_run_follows_the_model_to_its_first_crossing(self, start, h):
        n, b0 = start
        # no triad starts (nearly) consistent, so the run does not end at once
        assume(min(all_defects(n, b0)) >= 1e-6)
        d0, _ = p2_additive_path(n, b0, h, 0)
        estimate = math.comb(n, 3) * math.expm1(d0) / (h * n)
        steps = math.ceil(estimate) + 3
        _, s = p2_additive_path(n, b0, h, steps)
        cross = next(k for k, x in enumerate(s) if x < 0.0)
        assert abs(cross - estimate) <= 2.0
        records = additive_analytic(n, b0, 2.0, h, steps)
        if len(records) <= steps:  # DELTA_GRAD's guard: an iterate next to Pb0
            assert min(all_defects(n, records[-1].upper)) < gradients.DELTA_GRAD
        # the run's own s_k: its iterate's coordinate along b0 - Pb0
        r0 = off_consistent(n, b0)
        norm2 = math.fsum(x * x for x in r0)
        coords = [math.fsum(x * y for x, y in zip(off_consistent(n, rec.upper), r0)) / norm2
                  for rec in records]
        assert next((k for k, c in enumerate(coords) if c < 0.0), len(records)) == cross
        # near the crossing K is small and s_k has lost k ulps of s_0 = 1, so
        # the bound is relative to K_0 rather than to K_k; and the run's
        # 1 - e^(-D) is exact only to an ulp of 1
        bound = 1e-12 * -math.expm1(-d0) + sys.float_info.epsilon
        for k in range(min(cross + 1, len(records))):
            assert abs(records[k].indicator + math.expm1(-abs(s[k]) * d0)) <= bound

    @given(near_consistent_starts(), st.sampled_from([0.01, 0.1, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_chatter_stays_within_one_step_of_the_consistent_matrix(self, start, h):
        # past the crossing each step moves D = -log(1 - K) by at most h n / N,
        # across 0, so D stays within one step of the consistent matrix Pb0
        n, b0 = start
        assume(min(all_defects(n, b0)) >= 1e-6)
        d0, _ = p2_additive_path(n, b0, h, 0)
        steps = math.ceil(math.comb(n, 3) * math.expm1(d0) / (h * n)) + 3
        _, s = p2_additive_path(n, b0, h, steps)
        cross = next(k for k, x in enumerate(s) if x < 0.0)
        # a run that DELTA_GRAD's guard ends early is checked up to its last record
        records = additive_analytic(n, b0, 2.0, h, cross + 200)
        bound = h * n / math.comb(n, 3) * (1.0 + 1e-9)
        for k in range(cross, len(records)):
            assert -math.log1p(-records[k].indicator) <= bound


class TestDescentProgress:
    def test_analytic_runs_strictly_improve(self):
        rng = random.Random(11)
        checked = 0
        while checked < 20:
            bs = [rng.uniform(-1.2, 1.2) for _ in range(6)]
            m = MultiplicativePCMatrix(4, tuple(math.exp(x) for x in bs))
            if min(all_defects(m.n, log_upper(m.upper, True))) < 1e-2:
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
        with pytest.raises(ValidationError):
            select_direction(4, 1.0, DIFFERENCE)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            select_direction(4, 1.0, "newton")

    def test_analytic_order_three_allows_any_p(self):
        want = instant_pv3_mult(*A3.upper)
        for p in (-1.0, 0.5, 1.0, 2.0, math.inf):
            got = select_direction(3, p, ANALYTIC)(point_at(A3, p))
            assert got == want

    def test_analytic_order_four_rejects_nonsmooth_p(self):
        for p in (1.0, math.inf):
            with pytest.raises(NonSmoothExponent):
                select_direction(4, p, ANALYTIC)
