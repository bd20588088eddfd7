import math

import pytest
from hypothesis import given, settings, strategies as st

from pcreduce.core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    all_defects,
    consistent_from_weights,
    enumerate_triads,
    gmm_priority_vector,
    is_consistent,
    log_upper,
    to_additive,
    to_multiplicative,
    triad_slots,
    upper_index,
    upper_pairs,
    upper_size,
    validate_additive,
    validate_multiplicative,
)
from pcreduce.errors import (
    AntisymmetryViolation,
    BadDiagonal,
    NonFiniteEntry,
    NonPositiveEntry,
    NonPositiveWeight,
    OrderTooSmall,
    ReciprocityViolation,
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


class TestMultiplicativeMatrix:
    def test_entries_and_reciprocals(self):
        m = MultiplicativePCMatrix(3, (2.0, 4.0, 2.0))
        assert m.entry(1, 2) == 2.0
        assert m.entry(2, 1) == 0.5
        assert m.entry(2, 2) == 1.0
        grid = m.to_grid()
        assert grid[0] == [1.0, 2.0, 4.0]
        assert grid[2] == [0.25, 0.5, 1.0]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            MultiplicativePCMatrix(4, (1.0, 2.0, 3.0))

    def test_rejects_nonpositive_with_position(self):
        with pytest.raises(NonPositiveEntry) as err:
            MultiplicativePCMatrix(3, (2.0, -1.0, 2.0))
        assert (err.value.i, err.value.j) == (1, 3)

    def test_rejects_order_below_three(self):
        with pytest.raises(OrderTooSmall):
            MultiplicativePCMatrix(2, (2.0,))

    def test_replace_upper_returns_same_kind(self):
        m = MultiplicativePCMatrix(3, A3)
        m2 = m.replace_upper((1.0, 2.0, 3.0))
        assert isinstance(m2, MultiplicativePCMatrix)
        assert m2.upper == (1.0, 2.0, 3.0)
        assert m.upper == A3  # untouched


class TestAdditiveMatrix:
    def test_antisymmetric_entries(self):
        b = AdditivePCMatrix(3, (-2.0, 3.0, 1.0))
        assert b.entry(2, 1) == 2.0
        assert b.entry(1, 2) == -2.0
        assert b.entry(3, 3) == 0.0

    def test_rejects_nonfinite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteEntry) as err:
                AdditivePCMatrix(3, (0.0, bad, 0.0))
            assert (err.value.i, err.value.j) == (1, 3)


class TestGridValidation:
    def test_good_grid(self):
        grid = [[1.0, 2.0, 4.0], [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]]
        m = validate_multiplicative(3, grid)
        assert m.upper == (2.0, 4.0, 2.0)

    def test_upper_triangle_wins_within_tolerance(self):
        # a_ji off by 5e-10 relative passes the 1e-9 gate, and the stored
        # value is the upper entry, never an average of the two
        grid = [[1.0, 2.0, 4.0], [0.5 * (1 + 5e-10), 1.0, 2.0],
                [0.25, 0.5, 1.0]]
        m = validate_multiplicative(3, grid)
        assert m.upper[0] == 2.0

    def test_bad_diagonal(self):
        grid = [[1.0, 2.0, 4.0], [0.5, 1.1, 2.0], [0.25, 0.5, 1.0]]
        with pytest.raises(BadDiagonal) as err:
            validate_multiplicative(3, grid)
        assert err.value.i == 2

    def test_reciprocity_violation_names_pair(self):
        grid = [[1.0, 2.0, 4.0], [0.6, 1.0, 2.0], [0.25, 0.5, 1.0]]
        with pytest.raises(ReciprocityViolation) as err:
            validate_multiplicative(3, grid)
        assert (err.value.i, err.value.j) == (1, 2)
        assert err.value.residual == pytest.approx(0.2)

    def test_nonpositive_entry_rejected_first(self):
        grid = [[1.0, -2.0, 4.0], [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]]
        with pytest.raises(NonPositiveEntry):
            validate_multiplicative(3, grid)

    def test_additive_grid(self):
        grid = [[0.0, -2.0, 3.0], [2.0, 0.0, 1.0], [-3.0, -1.0, 0.0]]
        b = validate_additive(3, grid)
        assert b.upper == (-2.0, 3.0, 1.0)

    def test_antisymmetry_violation(self):
        grid = [[0.0, -2.0, 3.0], [2.1, 0.0, 1.0], [-3.0, -1.0, 0.0]]
        with pytest.raises(AntisymmetryViolation) as err:
            validate_additive(3, grid)
        assert (err.value.i, err.value.j) == (1, 2)


class TestConversions:
    @given(st.lists(log_entries, min_size=6, max_size=6))
    def test_log_exp_round_trip(self, logs):
        m = random_mult(4, logs)
        back = to_multiplicative(to_additive(m))
        for a, b in zip(m.upper, back.upper):
            assert b == pytest.approx(a, rel=1e-12)

    @given(st.lists(log_entries, min_size=3, max_size=3))
    def test_additive_image_is_antisymmetric(self, logs):
        b = to_additive(random_mult(3, logs))
        for i in range(1, 4):
            for j in range(1, 4):
                assert b.entry(i, j) == -b.entry(j, i)


class TestTriads:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 4), (5, 10), (6, 20)])
    def test_counts(self, n, count):
        assert len(enumerate_triads(n)) == count

    def test_lexicographic_order_n4(self):
        assert [tuple(t) for t in enumerate_triads(4)] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_slots_match_pairs(self):
        pairs = upper_pairs(5)
        for t, ij, jk, ik in triad_slots(5):
            assert pairs[ij] == (t.i, t.j)
            assert pairs[jk] == (t.j, t.k)
            assert pairs[ik] == (t.i, t.k)

    def test_worked_defects(self):
        m = MultiplicativePCMatrix(4, A4)
        assert all_defects(4, log_upper(m)) == (4.0, 2.0, 3.0, 1.0)
        assert all_defects(4, to_additive(m).upper)[0] == 4.0

    def test_consistent_triad_has_zero_defect(self):
        b = AdditivePCMatrix(3, (1.0, 3.0, 2.0))
        assert all_defects(3, b.upper) == (0.0,)


class TestConsistency:
    def test_from_weights_is_consistent(self):
        m = consistent_from_weights((1.0, 2.0, 4.0, 8.0))
        assert is_consistent(m, tol=1e-12)
        assert m.entry(1, 4) == pytest.approx(0.125)

    def test_rejects_bad_weight(self):
        with pytest.raises(NonPositiveWeight) as err:
            consistent_from_weights((1.0, 0.0, 2.0))
        assert err.value.index == 1

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
