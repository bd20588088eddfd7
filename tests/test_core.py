import dataclasses
import math
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pcreduce.core import (
    ADDITIVE,
    CACHED_ORDERS,
    MATRIX_CLASSES,
    MAX_ORDER,
    MULTIPLICATIVE,
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    log_upper,
    residuals,
    to_additive,
    to_multiplicative,
    triad,
    triad_slots,
    upper_pairs,
    upper_size,
)
from pcreduce.errors import (
    AntisymmetryViolation,
    BadDiagonal,
    EntryOverflow,
    NonFiniteEntry,
    NonPositiveEntry,
    OrderTooLarge,
    OrderTooSmall,
    ReciprocityViolation,
    ValidationError,
)
from pcreduce.indicators import _pair_triads
from pcreduce.matrixio import parse_matrix_text

from oracles import (
    consistent_from_weights,
    entry,
    gmm_priority_vector,
    grid_text,
    is_consistent,
    to_grid,
    upper_index,
)

# the worked 3x3 and 4x4 starts used throughout
A3 = (math.exp(-2.0), math.exp(3.0), math.exp(1.0))
A4 = (math.exp(-2.0), math.exp(3.0), 1.0, math.exp(1.0), 1.0, 1.0)

log_entries = st.floats(min_value=-5.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False)


def random_mult(n, logs):
    return MultiplicativePCMatrix(n, tuple(math.exp(x) for x in logs))


class TestUpperIndexing:
    def test_sizes(self):
        assert [upper_size(n) for n in (3, 4, 5, 6)] == [3, 6, 10, 15]

    def test_known_positions_n4(self):
        want = {(1, 2): 0, (1, 3): 1, (1, 4): 2, (2, 3): 3, (2, 4): 4, (3, 4): 5}
        for (i, j), k in want.items():
            assert upper_index(4, i, j) == k

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_pairs_agree_with_index(self, n):
        pairs = upper_pairs(n)
        assert len(pairs) == upper_size(n)
        for k, (i, j) in enumerate(pairs):
            assert upper_index(n, i, j) == k

    @pytest.mark.parametrize("i,j", [(2, 2), (3, 2), (0, 1), (1, 5)])
    def test_bad_positions_raise(self, i, j):
        with pytest.raises(IndexError):
            upper_index(4, i, j)


class TestSchemes:
    def test_each_class_carries_its_scheme(self):
        assert MultiplicativePCMatrix.scheme == MULTIPLICATIVE == "multiplicative"
        assert AdditivePCMatrix.scheme == ADDITIVE == "additive"
        assert MultiplicativePCMatrix(3, A3).scheme == MULTIPLICATIVE
        assert AdditivePCMatrix(3, (-2.0, 3.0, 1.0)).scheme == ADDITIVE
        # a class constant, not a dataclass field
        assert [f.name for f in dataclasses.fields(AdditivePCMatrix)] == ["n", "upper"]

    def test_table_maps_each_scheme_to_its_class(self):
        assert list(MATRIX_CLASSES) == [MULTIPLICATIVE, ADDITIVE]
        for scheme, cls in MATRIX_CLASSES.items():
            assert cls.scheme == scheme


class TestMultiplicativeMatrix:
    def test_entries_and_reciprocals(self):
        m = MultiplicativePCMatrix(3, (2.0, 4.0, 2.0))
        assert entry(m, 1, 2) == 2.0
        assert entry(m, 2, 1) == 0.5
        assert entry(m, 2, 2) == 1.0
        grid = to_grid(m)
        assert grid[0] == [1.0, 2.0, 4.0]
        assert grid[2] == [0.25, 0.5, 1.0]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            MultiplicativePCMatrix(4, (1.0, 2.0, 3.0))

    def test_rejects_nonpositive_with_position(self):
        with pytest.raises(NonPositiveEntry) as err:
            MultiplicativePCMatrix(3, (2.0, -1.0, 2.0))
        assert (err.value.i, err.value.j) == (1, 3)

    def test_rejects_order_below_three(self):
        with pytest.raises(OrderTooSmall):
            MultiplicativePCMatrix(2, (2.0,))

    @pytest.mark.parametrize("cls", [MultiplicativePCMatrix, AdditivePCMatrix])
    def test_rejects_a_non_integer_order(self, cls):
        # a float order passed both bounds, then failed in the triad table
        with pytest.raises(ValidationError, match=r"integer, got 3\.0$"):
            cls(3.0, (1.0, 2.0, 3.0))
        assert cls(True + 2, (1.0, 2.0, 3.0)).n == 3

    @pytest.mark.parametrize("cls,upper,error,value,where", [
        pytest.param(MultiplicativePCMatrix, (10**400, 1, 1), NonPositiveEntry, math.inf,
                     (1, 2), id="mult_above"),
        pytest.param(MultiplicativePCMatrix, (1, -(10**400), 1), NonPositiveEntry, -math.inf,
                     (1, 3), id="mult_below"),
        pytest.param(AdditivePCMatrix, (1, 1, 10**400), NonFiniteEntry, math.inf,
                     (2, 3), id="add_above"),
        pytest.param(AdditivePCMatrix, (1, -(10**400), 1), NonFiniteEntry, -math.inf,
                     (1, 3), id="add_below"),
    ])
    def test_an_int_entry_beyond_float_range_is_named(self, cls, upper, error, value, where):
        # float() of such an int raised a raw OverflowError
        with pytest.raises(error) as err:
            cls(3, upper)
        assert (err.value.i, err.value.j, err.value.value) == (*where, value)

    @pytest.mark.parametrize("cls", [MultiplicativePCMatrix, AdditivePCMatrix])
    def test_rejects_order_above_max(self, cls):
        n = MAX_ORDER + 1
        before = triad_slots.cache_info().currsize
        with pytest.raises(OrderTooLarge):
            cls(n, (1.0,) * upper_size(n))
        assert triad_slots.cache_info().currsize == before
        assert cls(MAX_ORDER, (1.0,) * upper_size(MAX_ORDER)).n == MAX_ORDER

    def test_replace_upper_returns_same_kind(self):
        m = MultiplicativePCMatrix(3, A3)
        m2 = m.replace_upper((1.0, 2.0, 3.0))
        assert isinstance(m2, MultiplicativePCMatrix)
        assert m2.upper == (1.0, 2.0, 3.0)
        assert m.upper == A3  # untouched


class TestAdditiveMatrix:
    def test_antisymmetric_entries(self):
        b = AdditivePCMatrix(3, (-2.0, 3.0, 1.0))
        assert entry(b, 2, 1) == 2.0
        assert entry(b, 1, 2) == -2.0
        assert entry(b, 3, 3) == 0.0

    def test_rejects_nonfinite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteEntry) as err:
                AdditivePCMatrix(3, (0.0, bad, 0.0))
            assert (err.value.i, err.value.j) == (1, 3)


class TestGridValidation:
    """Full grids are a file format; core keeps only the triangle they reduce to."""

    def test_good_grid(self):
        grid = [[1.0, 2.0, 4.0], [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]]
        m = parse_matrix_text(grid_text(grid, True))
        assert m.upper == (2.0, 4.0, 2.0)

    def test_upper_triangle_wins_within_tolerance(self):
        # a_ji off by 5e-10 relative passes the 1e-9 gate, and the stored
        # value is the upper entry, never an average of the two
        grid = [[1.0, 2.0, 4.0], [0.5 * (1 + 5e-10), 1.0, 2.0],
                [0.25, 0.5, 1.0]]
        m = parse_matrix_text(grid_text(grid, True))
        assert m.upper[0] == 2.0

    def test_bad_diagonal(self):
        grid = [[1.0, 2.0, 4.0], [0.5, 1.1, 2.0], [0.25, 0.5, 1.0]]
        with pytest.raises(BadDiagonal) as err:
            parse_matrix_text(grid_text(grid, True))
        assert err.value.i == 2

    def test_reciprocity_violation_names_pair(self):
        grid = [[1.0, 2.0, 4.0], [0.6, 1.0, 2.0], [0.25, 0.5, 1.0]]
        with pytest.raises(ReciprocityViolation) as err:
            parse_matrix_text(grid_text(grid, True))
        assert (err.value.i, err.value.j) == (1, 2)
        assert err.value.residual == pytest.approx(0.2)

    def test_nonpositive_entry_rejected_first(self):
        grid = [[1.0, -2.0, 4.0], [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]]
        with pytest.raises(NonPositiveEntry):
            parse_matrix_text(grid_text(grid, True))

    def test_additive_grid(self):
        grid = [[0.0, -2.0, 3.0], [2.0, 0.0, 1.0], [-3.0, -1.0, 0.0]]
        b = parse_matrix_text(grid_text(grid, False))
        assert b.upper == (-2.0, 3.0, 1.0)

    def test_antisymmetry_violation(self):
        grid = [[0.0, -2.0, 3.0], [2.1, 0.0, 1.0], [-3.0, -1.0, 0.0]]
        with pytest.raises(AntisymmetryViolation) as err:
            parse_matrix_text(grid_text(grid, False))
        assert (err.value.i, err.value.j) == (1, 2)


class TestConversions:
    @given(st.lists(log_entries, min_size=6, max_size=6))
    def test_log_exp_round_trip(self, logs):
        m = random_mult(4, logs)
        back = to_multiplicative(to_additive(m))
        for a, b in zip(m.upper, back.upper):
            assert b == pytest.approx(a, rel=1e-12)

    def test_exp_outside_the_normal_floats_names_the_entry(self):
        # e^-709 is subnormal and e^-800 is 0.0: neither is a usable a_ij
        for v in (800.0, 709.8, -709.0, -800.0):
            with pytest.raises(EntryOverflow) as err:
                to_multiplicative(AdditivePCMatrix(3, (0.0, 0.0, v)))
            assert (err.value.i, err.value.j, err.value.value) == (2, 3, v)
        b = AdditivePCMatrix(3, (-708.0, 709.0, 0.0))
        assert to_multiplicative(b).upper == (math.exp(-708.0), math.exp(709.0), 1.0)

    @given(st.lists(log_entries, min_size=3, max_size=3))
    def test_additive_image_is_antisymmetric(self, logs):
        b = to_additive(random_mult(3, logs))
        for i in range(1, 4):
            for j in range(1, 4):
                assert entry(b, i, j) == -entry(b, j, i)


class TestTriads:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 10), (6, 20)])
    def test_counts(self, n, count):
        assert len(triad_slots(n)) == count

    def test_lexicographic_order_n4(self):
        assert [triad(4, t) for t in range(len(triad_slots(4)))] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_slots_match_pairs(self):
        # row t holds only positions; triad(n, t) names it, in combinations order
        for n in range(3, 9):
            pairs = upper_pairs(n)
            slots = triad_slots(n)
            labels = list(combinations(range(1, n + 1), 3))
            assert len(slots) == len(labels)
            for t, (i, j, k) in enumerate(labels):
                assert triad(n, t) == (i, j, k)
                assert tuple(pairs[x] for x in slots[t]) == ((i, j), (j, k), (i, k))

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_pair_triads_point_into_the_table(self, n):
        # each position lists the table's own row objects, no copies, and
        # every triad appears under exactly its three positions
        slots = triad_slots(n)
        seen = [set() for _ in slots]
        for k, (ts, rows) in enumerate(_pair_triads(n)):
            assert len(ts) == len(rows) == n - 2
            for t, row in zip(ts, rows):
                assert row is slots[t]
                assert k in row
                seen[t].add(k)
        assert seen == [set(row) for row in slots]

    def test_tables_stay_small(self):
        # the rows of both tables at n = 80 are position tuples shared by
        # reference: 12.9 MB, where label-carrying rows and per-position
        # copies took 22.4 MB
        caches = (upper_pairs, triad_slots, _pair_triads)
        for cache in caches:
            cache.cache_clear()
        tracemalloc.start()
        try:
            triad_slots(80)
            _pair_triads(80)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            for cache in caches:
                cache.cache_clear()
        assert size <= 13.4e6

    def test_table_caches_keep_only_the_latest_orders(self):
        # all of 3..MAX_ORDER would take about 640 MB: each per-order cache
        # keeps the tables of the CACHED_ORDERS orders used last
        caches = (upper_pairs, triad_slots, _pair_triads)
        for n in range(3, 31):
            for cache in caches:
                cache(n)
        assert [cache.cache_info().currsize for cache in caches] == [CACHED_ORDERS] * 3

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_order_below_three(self, n):
        with pytest.raises(OrderTooSmall):
            triad_slots(n)

    def test_rejects_order_above_max_before_building(self):
        before = triad_slots.cache_info().currsize
        with pytest.raises(OrderTooLarge) as err:
            triad_slots(MAX_ORDER + 1)
        assert (err.value.n, err.value.limit) == (MAX_ORDER + 1, MAX_ORDER)
        assert triad_slots.cache_info().currsize == before

    def test_worked_defects(self):
        m = MultiplicativePCMatrix(4, A4)
        assert all_defects(4, log_upper(m.upper, True)) == (4.0, 2.0, 3.0, 1.0)
        assert all_defects(4, to_additive(m).upper)[0] == 4.0

    def test_consistent_triad_has_zero_defect(self):
        b = AdditivePCMatrix(3, (1.0, 3.0, 2.0))
        assert all_defects(3, b.upper) == (0.0,)

    def test_worked_residuals_are_signed(self):
        assert residuals(3, (1.0, 3.0, 2.5)) == (0.5,)
        assert residuals(4, (1.0, 3.0, 0.0, 1.0, 2.0, 4.0)) == (-1.0, 3.0, 7.0, 3.0)

    @given(st.data())
    @settings(max_examples=300)
    def test_defects_are_abs_of_residuals(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8))
        logs = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0])),
                                  min_size=upper_size(n), max_size=upper_size(n)))
        assert repr(all_defects(n, logs)) == repr(tuple(map(abs, residuals(n, logs))))


class TestConsistency:
    def test_from_weights_is_consistent(self):
        m = consistent_from_weights((1.0, 2.0, 4.0, 8.0))
        assert is_consistent(m, tol=1e-12)
        assert entry(m, 1, 4) == pytest.approx(0.125)

    def test_inconsistent_detected(self):
        assert not is_consistent(MultiplicativePCMatrix(3, A3), tol=1e-6)

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=4))
    @settings(max_examples=50)
    def test_gmm_recovers_generating_weights(self, w):
        m = consistent_from_weights(w)
        got = gmm_priority_vector(m)
        total = math.fsum(w)
        for g, x in zip(got, w):
            assert g == pytest.approx(x / total, rel=1e-9)

    def test_gmm_handles_large_entries(self):
        m = consistent_from_weights((math.exp(200.0), 1.0, math.exp(-200.0)))
        got = gmm_priority_vector(m)
        assert got[0] == pytest.approx(1.0, rel=1e-9)
        assert math.fsum(got) == pytest.approx(1.0, rel=1e-12)
