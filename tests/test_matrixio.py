import math

import pytest
from hypothesis import given, settings, strategies as st

from pcreduce.core import AdditivePCMatrix, MultiplicativePCMatrix
from pcreduce.descent import DescentConfig, run
from pcreduce.errors import (
    AntisymmetryViolation,
    BadDiagonal,
    MatrixFileError,
    NonFiniteEntry,
    OrderTooSmall,
    ReciprocityViolation,
    ValidationError,
)
from pcreduce.matrixio import (
    format_matrix,
    format_trace,
    parse_matrix_text,
    parse_trace_text,
    read_matrix_file,
    read_trace_file,
    write_matrix_file,
    write_trace_file,
)

A3 = MultiplicativePCMatrix(3, (math.exp(-2.0), math.exp(3.0), math.exp(1.0)))

NUMBERS = st.sampled_from(["0", "-0", "1", "2", "0.5", "-1", "800", "1e308",
                           "-1e308", "1e-320", "inf", "-inf", "nan", "x"])


@st.composite
def matrix_texts(draw):
    """A mode header, then an n= header and upper entries or a full grid."""
    n = draw(st.integers(min_value=2, max_value=4))
    size = n * (n - 1) // 2
    lines = [draw(st.sampled_from(["", "mode=additive", "mode=multiplicative",
                                   "mode=log"]))]
    if draw(st.booleans()):
        lines.append(f"n={n}")
        rows = [draw(st.lists(NUMBERS, min_size=size - 1, max_size=size + 1))]
    else:
        rows = draw(st.lists(st.lists(NUMBERS, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    return "\n".join(lines + [" ".join(row) for row in rows])


class TestParseMatrix:
    def test_full_grid_default_mode(self):
        text = """
        # a reciprocal 3x3
        1 2 4
        0.5 1 2
        0.25 0.5 1
        """
        m = parse_matrix_text(text)
        assert isinstance(m, MultiplicativePCMatrix)
        assert m.upper == (2.0, 4.0, 2.0)

    def test_upper_triangle_with_order_header(self):
        text = "mode=multiplicative\nn=4\n2 4 1\n2 1\n1\n"
        m = parse_matrix_text(text)
        assert m.n == 4
        assert m.upper == (2.0, 4.0, 1.0, 2.0, 1.0, 1.0)

    def test_additive_grid(self):
        text = "mode=additive\n0 -2 3\n2 0 1\n-3 -1 0\n"
        b = parse_matrix_text(text)
        assert isinstance(b, AdditivePCMatrix)
        assert b.upper == (-2.0, 3.0, 1.0)

    def test_additive_upper_allows_negatives(self):
        b = parse_matrix_text("mode=additive\nn=3\n-2 3 1\n")
        assert b.upper == (-2.0, 3.0, 1.0)

    def test_comments_and_blank_lines_ignored(self):
        text = "n=3  # order\n\n# data next\n2 4 2  # upper row\n"
        assert parse_matrix_text(text).upper == (2.0, 4.0, 2.0)

    def test_grid_reciprocity_checked(self):
        text = "1 2 4\n0.6 1 2\n0.25 0.5 1\n"
        with pytest.raises(ReciprocityViolation):
            parse_matrix_text(text)

    def test_bad_number_names_line(self):
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_text("n=3\n2 four 2\n")
        assert err.value.line == 2

    def test_wrong_entry_count(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_text("n=4\n2 4 2\n")

    def test_ragged_grid(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_text("1 2 4\n0.5 1\n0.25 0.5 1\n")

    def test_unknown_mode(self):
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_text("mode=geometric\nn=3\n2 4 2\n")
        assert err.value.line == 1

    def test_duplicate_header(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_text("n=3\nn=4\n2 4 2\n")

    def test_unknown_header(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_text("order=3\n2 4 2\n")

    @pytest.mark.parametrize("order", [0, 1])
    def test_order_header_below_three(self, order):
        with pytest.raises(OrderTooSmall):
            parse_matrix_text(f"n={order}\n1\n")

    def test_bad_order_value(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_text("n=three\n2 4 2\n")

    def test_empty_file(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_text("# nothing here\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_nonfinite_additive_entry_names_it(self, value):
        with pytest.raises(NonFiniteEntry) as err:
            parse_matrix_text(f"mode=additive\nn=3\n{value} 0 0\n")
        assert (err.value.i, err.value.j) == (1, 2)

    def test_nonfinite_additive_pair_fails_antisymmetry(self):
        # inf + -inf is a NaN residual, which must not pass the check
        with pytest.raises(AntisymmetryViolation) as err:
            parse_matrix_text("mode=additive\n0 inf 0\n-inf 0 0\n0 0 0\n")
        assert (err.value.i, err.value.j) == (1, 2)

    def test_nan_additive_diagonal_rejected(self):
        with pytest.raises(BadDiagonal):
            parse_matrix_text("mode=additive\nnan 0 0\n0 0 0\n0 0 0\n")

    @given(st.one_of(st.text(), matrix_texts()))
    @settings(max_examples=500)
    def test_any_text_gives_matrix_or_validation_error(self, text):
        try:
            m = parse_matrix_text(text)
        except ValidationError:
            return
        assert isinstance(m, (MultiplicativePCMatrix, AdditivePCMatrix))


class TestMatrixRoundTrip:
    def test_exact_round_trip_multiplicative(self):
        text = format_matrix(A3)
        back = parse_matrix_text(text)
        assert back.upper == A3.upper  # repr round-trips bit for bit

    def test_exact_round_trip_additive(self):
        b = AdditivePCMatrix(4, (-2.0, 3.0, 0.1, 1.0, -0.25, 1e-9))
        back = parse_matrix_text(format_matrix(b))
        assert isinstance(back, AdditivePCMatrix)
        assert back.upper == b.upper

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_file(path, A3)
        assert read_matrix_file(path).upper == A3.upper


@pytest.fixture(scope="module")
def result():
    cfg = DescentConfig(p=1.0, h=0.1, gradient="difference", l=1e-3,
                        eps=1e-3, max_iter=60000, stall_window=50)
    return run(A3, cfg)


class TestTraceFiles:
    def test_header_and_row_shape(self, result):
        text = format_trace(result, 3, "multiplicative")
        lines = text.splitlines()
        assert lines[0] == "iteration,indicator,a_1_2,a_1_3,a_2_3"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == A3.upper[0]

    def test_additive_prefix(self, result):
        text = format_trace(result, 3, "additive")
        assert text.splitlines()[0] == "iteration,indicator,b_1_2,b_1_3,b_2_3"

    def test_summary_block(self, result):
        text = format_trace(result, 3, "multiplicative")
        assert f"stop_reason,{result.stop_reason}" in text
        assert f"best_iter,{result.best_iter}" in text

    def test_round_trip_is_exact(self, result):
        data = parse_trace_text(format_trace(result, 3, "multiplicative"))
        assert data.n == 3
        assert data.mode == "multiplicative"
        assert len(data.records) == len(result.trace.records)
        for (it, ind, upper), rec in zip(data.records, result.trace.records):
            assert it == rec.iteration
            assert ind == rec.indicator
            assert upper == rec.upper
        assert data.stop_reason == result.stop_reason
        assert data.best_iter == result.best_iter
        assert data.best_indicator == result.best_indicator
        assert data.best_upper == result.best_matrix.upper

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "run.trace"
        write_trace_file(path, result, 3, "multiplicative")
        data = read_trace_file(path)
        assert data.best_upper == result.best_matrix.upper

    def test_rejects_unknown_mode(self, result):
        with pytest.raises(ValueError):
            format_trace(result, 3, "geometric")

    def test_rejects_non_trace_text(self):
        with pytest.raises(MatrixFileError):
            parse_trace_text("just,some,csv\n1,2,3\n")

    def test_rejects_missing_summary(self):
        with pytest.raises(MatrixFileError):
            parse_trace_text("iteration,indicator,a_1_2,a_1_3,a_2_3\n0,0.9,1,2,3\n")
