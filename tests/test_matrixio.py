import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pcreduce.core import (
    MAX_ORDER,
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    to_multiplicative,
    triad_slots,
    upper_pairs,
    upper_size,
)
from pcreduce.descent import (
    ADDITIVE,
    MULTIPLICATIVE,
    STOP_REASONS,
    DescentConfig,
    IterationTrace,
    TraceRecords,
    run,
)
from pcreduce.errors import (
    AntisymmetryViolation,
    BadDiagonal,
    IndicatorUndefined,
    MatrixFileError,
    NonFiniteEntry,
    OrderTooLarge,
    OrderTooSmall,
    ReciprocityViolation,
    ValidationError,
)
from pcreduce.indicators import kii
from pcreduce.matrixio import (
    read_matrix_file,
    read_trace_file,
    write_matrix_file,
    write_trace_file,
)
from pcreduce.repro import REFERENCE_RUNS, run_row

from oracles import grid_text, parse_matrix_text, validate_additive, validate_multiplicative

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


TRACE_HEAD = "iteration,indicator,a_1_2,a_1_3,a_2_3\n0,0.9,1,2,3\n"
TRACE_KEYS = st.sampled_from(["0", "1", "x", "", "stop_reason", "best_iter",
                              "best_indicator", "best"])


TRACE_FIELDS = st.one_of(NUMBERS, st.sampled_from(["stalled", "converged"]))
TRACE_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def trace_texts(draw):
    """A header naming an order's entries or 1 to 7 other columns, then rows of any key and width."""
    prefix = draw(st.sampled_from(["a", "b"]))
    n = draw(st.integers(min_value=2, max_value=4))
    names = [f"{prefix}_{i}_{j}" for i, j in upper_pairs(n)]
    if draw(st.booleans()):
        names = [f"{prefix}_{k}" for k in range(draw(st.integers(min_value=1, max_value=7)))]
    count = len(names)
    lines = ["iteration,indicator," + ",".join(names)]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        fields = draw(st.lists(TRACE_FIELDS, min_size=0, max_size=count + 2))
        lines.append(",".join([draw(TRACE_KEYS)] + fields))
    return "\n".join(lines)


@st.composite
def well_formed_traces(draw):
    """Trace text laid out as write_trace_file writes it, with any rows and summary.

    Entries are valid for the header's scheme (positive for a_, finite for
    b_), indicators lie in [0, 1], and the summary block has all four rows.
    """
    prefix = draw(st.sampled_from(["a", "b"]))
    n = draw(st.integers(min_value=3, max_value=5))
    entries = TRACE_FLOATS if prefix == "b" else st.floats(
        min_value=0.0, exclude_min=True, allow_infinity=False).map(repr)
    floats = st.lists(entries, min_size=upper_size(n), max_size=upper_size(n))
    indicators = st.floats(min_value=0.0, max_value=1.0).map(repr)
    names = [f"{prefix}_{i}_{j}" for i, j in upper_pairs(n)]
    lines = ["iteration,indicator," + ",".join(names)]
    for it in range(draw(st.integers(min_value=0, max_value=4))):
        lines.append(",".join([str(it), draw(indicators)] + draw(floats)))
    lines.append(f"stop_reason,{draw(st.sampled_from(STOP_REASONS))}")
    lines.append(f"best_iter,{draw(st.integers(min_value=0, max_value=10))}")
    lines.append(f"best_indicator,{draw(indicators)}")
    lines.append(",".join(["best"] + draw(floats)))
    return "\n".join(lines) + "\n"


@st.composite
def grids(draw):
    """A reciprocal (or antisymmetric) grid of order 1 to 5 with a few entries
    overwritten: bad diagonals, perturbed lower entries, 0, negatives, inf, nan."""
    mult = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=5))
    identity = 1.0 if mult else 0.0
    grid = [[identity] * n for _ in range(n)]
    for i, j in upper_pairs(n):
        x = draw(st.floats(min_value=-5.0, max_value=5.0))
        grid[i - 1][j - 1] = math.exp(x) if mult else x
        grid[j - 1][i - 1] = math.exp(-x) if mult else -x
    index = st.integers(0, n - 1)
    cells = st.one_of(st.tuples(index, index), index.map(lambda k: (k, k)))
    for i, j in draw(st.lists(cells, max_size=3)):
        nudge = draw(st.sampled_from([5e-10, -5e-10, 2e-9, 1e-3]))
        grid[i][j] = draw(st.one_of(
            st.just(grid[i][j] * (1.0 + nudge) if mult else grid[i][j] + nudge),
            st.just(identity + nudge),
            st.sampled_from([0.0, -0.0, -1.0]),
            st.sampled_from([math.inf, -math.inf, math.nan]),
        ))
    return mult, n, grid


def outcome(parse, *args):
    """A parsed matrix, or the error class with the fields that locate it."""
    try:
        return parse(*args)
    except ValidationError as exc:
        fields = ("n", "i", "j", "value", "residual")
        return type(exc), {k: repr(getattr(exc, k)) for k in fields if hasattr(exc, k)}


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
        for text in ("n=3\nn=4\n2 4 2\n", "mode=additive\nmode=additive\n2 4 2\n"):
            with pytest.raises(MatrixFileError) as err:
                parse_matrix_text(text)
            assert err.value.line == 2

    def test_unknown_header(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_text("order=3\n2 4 2\n")

    @pytest.mark.parametrize("order", [0, 1])
    def test_order_header_below_three(self, order):
        with pytest.raises(OrderTooSmall):
            parse_matrix_text(f"n={order}\n1\n")

    @pytest.mark.parametrize("text", [
        f"n={MAX_ORDER + 1}\n",
        "\n".join(" ".join(["1"] * (MAX_ORDER + 1)) for _ in range(MAX_ORDER + 1)),
    ], ids=["header", "grid"])
    def test_order_above_max(self, text):
        # a header-only file is rejected at its header, before any data
        before = triad_slots.cache_info().currsize
        with pytest.raises(OrderTooLarge):
            parse_matrix_text(text)
        assert triad_slots.cache_info().currsize == before

    def test_tall_grid_rejected_before_converting(self):
        # a grid wider than MAX_ORDER ends at its first row, before the other
        # rows' tokens become floats (converting all 90,000 peaks at 3.1 MB)
        text = "\n".join(" ".join(["1"] * 300) for _ in range(300))
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLarge) as err:
                parse_matrix_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.n, err.value.limit) == (300, MAX_ORDER)
        assert peak < 0.6e6

    @pytest.mark.parametrize("text, line, message", [
        ("1 1 1\n" * 300, 4, "first row makes the grid 3 x 3"),
        ("1 2 4\n0.5 1 2\n", 2, "first row makes the grid 3 x 3"),
        ("1 2 4\n0.5 1\n" + "1 1 1\n" * 300, 2, "first row makes the grid 3 x 3"),
        ("1 x 1\n" * 300, 1, "bad number 'x'"),
        ("1 2 4\v0.5 1 2\v0.25 0.5 1\n", 1, "first row makes the grid 9 x 9"),
    ], ids=["tall", "short", "ragged", "bad_number", "vertical_tab"])
    def test_malformed_grid_stops_at_its_first_bad_line(self, text, line, message):
        with pytest.raises(MatrixFileError) as err:
            parse_matrix_text(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_read_the_same(self, end):
        for text in ("1 2 4\n0.5 1 2\n0.25 0.5 1\n", "n=4\n2 4\f1\n2 1\x1c1\n"):
            assert parse_matrix_text(text.replace("\n", end)) == parse_matrix_text(text)

    def test_a_trace_file_stops_at_its_header(self, tmp_path):
        # 20,000 rows after a header that is no matrix line: reading ends at
        # line 1, where reading the whole text first peaked above 6 MB
        path = tmp_path / "long.trace"
        with open(path, "w", encoding="utf-8") as f:
            f.write("iteration,indicator,a_1_2,a_1_3,a_2_3\n")
            for k in range(20000):
                f.write(f"{k},{1.0 / (k + 3)!r},{math.pi * k!r},{math.e * k!r},{k / 7!r}\n")
        assert path.stat().st_size >= 1e6
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFileError) as err:
                read_matrix_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == 1
        assert str(err.value) == "line 1: bad number 'iteration,indicator,a_1_2,a_1_3,a_2_3'"
        assert peak < 64 * 1024

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

    def test_additive_bad_diagonal_names_zero(self):
        with pytest.raises(BadDiagonal) as err:
            parse_matrix_text("mode=additive\n0.5 1 2\n-1 0 3\n-2 -3 0\n")
        assert (err.value.i, err.value.value) == (1, 0.5)
        assert str(err.value) == "diagonal entry (1,1) must be 0, got 0.5"

    @given(grids())
    @example((False, 3, [[0.0, 1.0, 2.0], [math.nan, 0.0, 3.0], [-2.0, -3.0, 0.0]]))
    @settings(max_examples=500, deadline=None)
    def test_grid_check_matches_the_reference_validators(self, case):
        mult, n, grid = case
        reference = validate_multiplicative if mult else validate_additive
        assert outcome(parse_matrix_text, grid_text(grid, mult)) == outcome(
            reference, n, grid)

    @given(st.one_of(st.text(), matrix_texts()))
    @settings(max_examples=500, deadline=None)
    def test_any_text_gives_matrix_or_validation_error(self, text):
        try:
            m = parse_matrix_text(text)
        except ValidationError:
            return
        assert isinstance(m, (MultiplicativePCMatrix, AdditivePCMatrix))


class TestMatrixRoundTrip:
    def test_exact_round_trip_multiplicative(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_file(path, A3)
        assert path.read_bytes() == (b"mode=multiplicative\nn=3\n"
                                     b"0.1353352832366127 20.085536923187668\n2.718281828459045\n")
        assert read_matrix_file(path).upper == A3.upper  # repr round-trips bit for bit

    def test_exact_round_trip_additive(self, tmp_path):
        path = tmp_path / "b.txt"
        b = AdditivePCMatrix(4, (-2.0, 3.0, 0.1, 1.0, -0.25, 1e-9))
        write_matrix_file(path, b)
        back = read_matrix_file(path)
        assert isinstance(back, AdditivePCMatrix)
        assert back.upper == b.upper

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix_file(path, A3)
        assert read_matrix_file(path).upper == A3.upper

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"mode=additive\nn=3\n1 2 \xff\n")
        with pytest.raises(MatrixFileError) as err:
            read_matrix_file(path)
        assert err.value.line == 3


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """One directory for the trace files that Hypothesis examples write."""
    return tmp_path_factory.mktemp("traces")


def trace_text(result, directory):
    """The text of result's trace file, written by write_trace_file into directory."""
    path = directory / "run.trace"
    write_trace_file(path, result)
    return path.read_text(encoding="utf-8")


def read_text(text, directory):
    """read_trace_file of a file in directory that holds text as it stands, line ends too."""
    path = directory / "text.trace"
    path.write_text(text, encoding="utf-8", newline="")
    return read_trace_file(path)


@pytest.fixture(scope="module")
def result():
    cfg = DescentConfig(p=1.0, h=0.1, gradient="difference", l=1e-3,
                        eps=1e-3, max_iter=60000, stall_window=50)
    return run(A3, cfg)


def as_written(result):
    """result as its trace file holds it: no direction norms, no clamp events."""
    records = TraceRecords()
    for rec in result.trace.records:
        records.append(rec._replace(direction_norm=None))
    return dataclasses.replace(result, trace=IterationTrace(records))


# triad (1,2,3) exactly consistent: p = -1 is undefined at iterate 0, so
# run raises before it
HOLE4 = (math.log(2.0), math.log(4.0), 0.0, math.log(2.0), 0.0, 0.0)


@st.composite
def descent_runs(draw):
    """(scheme, p, n, start logs, h) of a short difference-direction run."""
    n = draw(st.integers(min_value=3, max_value=5))
    logs = draw(st.lists(st.one_of(st.integers(-3, 3).map(float),
                                   st.floats(min_value=-4.0, max_value=4.0)),
                         min_size=upper_size(n), max_size=upper_size(n)))
    return (draw(st.sampled_from([MULTIPLICATIVE, ADDITIVE])),
            draw(st.sampled_from([2.0, 1.0, math.inf, 0.5, -1.0])),
            n, tuple(logs), draw(st.sampled_from([0.01, 0.1, 1.0, 10.0, 1e307])))


class TestTraceFiles:
    def test_header_and_row_shape(self, result, tmp_path):
        text = trace_text(result, tmp_path)
        lines = text.splitlines()
        assert lines[0] == "iteration,indicator,a_1_2,a_1_3,a_2_3"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == A3.upper[0]

    def test_additive_prefix(self, tmp_path):
        res = run(A3, DescentConfig(p=1.0, h=0.1, scheme=ADDITIVE, max_iter=5))
        text = trace_text(res, tmp_path)
        assert text.splitlines()[0] == "iteration,indicator,b_1_2,b_1_3,b_2_3"

    def test_summary_block(self, result, tmp_path):
        text = trace_text(result, tmp_path)
        assert f"stop_reason,{result.stop_reason}" in text
        assert f"best_iter,{result.best_iter}" in text

    def test_round_trip_is_exact(self, result, tmp_path):
        data = read_text(trace_text(result, tmp_path), tmp_path)
        assert data.n == 3
        assert data.scheme == MULTIPLICATIVE
        assert data == as_written(result)

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "run.trace"
        write_trace_file(path, result)
        assert read_trace_file(path) == as_written(result)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_read_back(self, result, tmp_path, end):
        text = trace_text(result, tmp_path).replace("\n", end)
        assert read_text(text, tmp_path) == as_written(result)

    def test_a_long_trace_reads_in_a_small_multiple_of_its_size(self, tmp_path):
        # row 03's 22,725 iterates: 1.83 MB of text, read line by line into
        # columns that peak near 0.64 times that
        res = run_row(REFERENCE_RUNS[2]).result
        path = tmp_path / "03.trace"
        write_trace_file(path, res)
        tracemalloc.start()
        try:
            back = read_trace_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == as_written(res)
        assert peak < path.stat().st_size

    @given(descent_runs())
    @example((MULTIPLICATIVE, -1.0, 4, HOLE4, 0.1))
    @example((ADDITIVE, -1.0, 4, HOLE4, 0.1))
    @settings(max_examples=120, deadline=None)
    def test_real_runs_read_back_as_written(self, trace_dir, case):
        scheme, p, n, logs, h = case
        start = AdditivePCMatrix(n, logs)
        if scheme == MULTIPLICATIVE:
            start = to_multiplicative(start)
        config = DescentConfig(p=p, h=h, scheme=scheme, max_iter=30, stall_window=10)
        try:
            kii(start, p)
        except IndicatorUndefined:
            # a start in p < 0's hole is no run: nothing to write
            assert p < 0
            with pytest.raises(IndicatorUndefined):
                run(start, config)
            return
        res = run(start, config)
        assert read_text(trace_text(res, trace_dir), trace_dir) == as_written(res)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "run.trace"
        path.write_bytes(TRACE_HEAD.encode() + b"1,0.5,1,\xff,3\nstop_reason,stalled\n"
                         b"best_iter,-1\n")
        with pytest.raises(MatrixFileError) as err:
            read_trace_file(path)
        assert err.value.line == 3

    def test_rejects_non_trace_text(self, tmp_path):
        with pytest.raises(MatrixFileError):
            read_text("just,some,csv\n1,2,3\n", tmp_path)

    def test_rejects_missing_summary(self, tmp_path):
        with pytest.raises(MatrixFileError):
            read_text("iteration,indicator,a_1_2,a_1_3,a_2_3\n0,0.9,1,2,3\n", tmp_path)

    @pytest.mark.parametrize("text,line", [
        # one entry column is the order-2 triangle
        ("iteration,indicator,a_1_2\n0,0.5,1\nstop_reason,converged\nbest_iter,0\n", 1),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,x\n", 4),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,0\nbest_indicator,x\n", 5),
        (TRACE_HEAD + "stop_reason\nbest_iter,0\n", 3),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,0\nbest,1,2\n", 5),
        (TRACE_HEAD + "7\nstop_reason,stalled\nbest_iter,0\n", 3),
        ("iteration,indicator,q,b_1_3,zz\n0,0.9,1,2,3\nstop_reason,stalled\n"
         "best_iter,0\n", 1),
        (TRACE_HEAD + "stop_reason,x\nbest_iter,0\n", 3),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,0\nbest_indicator,0.9\n"
         "best,0,-1,2\n", 6),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,0\nbest,1,2,3\n", 5),
        (TRACE_HEAD + "stop_reason,stalled\nbest_indicator,0.9\nbest_iter,0\n", 5),
        (TRACE_HEAD + "1,0.5,-1.0,2.0,3.0\nstop_reason,stalled\nbest_iter,-1\n", 3),
        (TRACE_HEAD + "1,0.5,inf,2.0,3.0\nstop_reason,stalled\nbest_iter,-1\n", 3),
        ("iteration,indicator,b_1_2,b_1_3,b_2_3\n0,0.9,1,-inf,3\n"
         "stop_reason,stalled\nbest_iter,-1\n", 2),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,7\n", 4),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,-1\nbest_indicator,0.9\n"
         "best,1,2,3\n", 4),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,-2\nbest_indicator,0.9\n"
         "best,1,2,3\n", 4),
        ("iteration,indicator,a_1_2,a_1_3,a_2_3\n-3,0.5,1,2,3\n"
         "stop_reason,stalled\nbest_iter,-1\n", 2),
        (TRACE_HEAD + "0,0.5,1,2,3\nstop_reason,stalled\nbest_iter,-1\n", 3),
        (TRACE_HEAD + "5,0.5,1,2,3\n4,0.5,1,2,3\nstop_reason,stalled\nbest_iter,-1\n", 4),
        (TRACE_HEAD + "1,nan,1,2,3\nstop_reason,stalled\nbest_iter,-1\n", 3),
        (TRACE_HEAD + "1,7.5,1,2,3\nstop_reason,stalled\nbest_iter,-1\n", 3),
        (TRACE_HEAD + "1,-0.5,1,2,3\nstop_reason,stalled\nbest_iter,-1\n", 3),
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,0\nbest_indicator,inf\n"
         "best,1,2,3\n", 5),
        (TRACE_HEAD + "stop_reason,converged\nstop_reason,max_iter\nbest_iter,-1\n", 4),
        (TRACE_HEAD + "stop_reason,stalled\n1,0.5,1,2,3\nbest_iter,-1\n", 4),
        (TRACE_HEAD + "1_0,0.5,1,2,3\nstop_reason,stalled\nbest_iter,-1\n", 3),
        (TRACE_HEAD + f"{2**63},0.5,1,2,3\nstop_reason,stalled\nbest_iter,-1\n", 3),
        # the order-(MAX_ORDER + 1) triangle, in a trace without a best row
        ("iteration,indicator," + ",".join(f"a_{i}_{j}" for i, j in upper_pairs(MAX_ORDER + 1))
         + "\nstop_reason,stalled\nbest_iter,-1\n", 1),
        # a missing summary row is reported at the last line read
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,0\nbest_indicator,0.9\n", 5),
        # best_iter is a rank, checked on its own line
        (TRACE_HEAD + "stop_reason,stalled\nbest_iter,-1\n", 4),
    ], ids=["order_two", "bad_best_iter", "bad_best_indicator", "empty_stop_reason",
            "short_best_row", "bare_iteration", "wrong_entry_names", "unknown_stop_reason",
            "nonpositive_best", "best_without_indicator", "indicator_without_best",
            "nonpositive_iterate", "infinite_iterate", "infinite_additive_iterate",
            "best_iter_without_best", "best_with_best_iter_minus_one",
            "best_with_negative_best_iter", "negative_iteration", "repeated_iteration",
            "decreasing_iteration", "nan_indicator", "indicator_above_one",
            "negative_indicator", "infinite_best_indicator", "repeated_summary_row",
            "iterate_after_summary", "rank_not_as_written", "rank_above_int64",
            "order_above_max", "no_best", "negative_best_iter"])
    def test_malformed_trace_names_line(self, tmp_path, text, line):
        with pytest.raises(MatrixFileError) as err:
            read_text(text, tmp_path)
        assert err.value.line == line

    @given(st.one_of(st.text(), trace_texts(), well_formed_traces()))
    @settings(max_examples=500, deadline=None)
    def test_any_text_gives_trace_or_file_error(self, trace_dir, text):
        try:
            data = read_text(text, trace_dir)
        except MatrixFileError:
            return
        assert data.n >= 3
        assert data.stop_reason in STOP_REASONS
        assert len(data.best_upper) == upper_size(data.n)
        assert all(len(rec.upper) == upper_size(data.n) for rec in data.trace.records)
        assert data.trace.clamp_events == ()
        # write then read is the identity on what a read returns
        written = trace_text(data, trace_dir)
        assert trace_text(read_text(written, trace_dir), trace_dir) == written
