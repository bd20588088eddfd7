"""Plain-text exchange formats for PC matrices and descent traces.

Matrix files are whitespace/line structured with # comments and two
optional headers before the data:

    mode=multiplicative | mode=additive   (default multiplicative)
    n=<order>

With n= given the data is the strict upper triangle in row-major order
(any line layout); without it the data must be a full n x n grid, one row
per line, whose order n is the length of its first row.  Full grids exist
only here: _grid_matrix checks one for unit diagonal and reciprocity (or
zero diagonal and antisymmetry) to TAU_REC and keeps its upper triangle,
the only part a PC matrix stores.  read_matrix_file reads a file one line
at a time, as read_trace_file does, and stops at its first bad line.

Trace files are the text form of a descent.DescentResult, CSV-ish: a
header row naming the entries, one row per recorded iterate, numbered from
0 by its position, and a short summary block.  Floats are written with
repr, so reading a file back gives the DescentResult it was written from,
bit for bit, less the direction norms and clamp events that the file does
not hold.  The reader takes the result from the rows, by descent.conclude
as a run does, and the summary block must be the one those rows give.
"""

from itertools import islice
from math import isqrt

from .core import (
    ADDITIVE,
    MATRIX_CLASSES,
    MAX_ORDER,
    MULTIPLICATIVE,
    check_entries,
    check_order,
    upper_pairs,
    upper_size,
)
from .descent import STOP_REASONS, DescentResult, TraceRecords, conclude
from .errors import (
    AntisymmetryViolation,
    BadDiagonal,
    MatrixFileError,
    NonPositiveEntry,
    ReciprocityViolation,
    ValidationError,
)

#: tolerance of a full grid's diagonal and of a_ij * a_ji = 1 (b_ij + b_ji = 0);
#: the checks read not (residual <= TAU_REC), so a NaN residual fails them
TAU_REC = 1e-9


def read_matrix_file(path):
    """Read a matrix file line by line; returns a PC matrix of the mode header's scheme.

    A line ends at LF, CRLF or CR, and a bad byte reads as U+FFFD.  Each data
    line is converted and checked as it is read (a grid's first row by
    check_order), so reading stops at the first bad line, which the error names.
    """
    scheme = order = width = None
    rows = []  # each data line's numbers
    last = 0  # the last data line's number
    with open(path, encoding="utf-8", errors="replace") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.partition("#")[0]
            tokens = line.split()
            if not tokens:
                continue
            if "=" in line and not rows:
                key, _, value = map(str.strip, line.partition("="))
                if key == "mode":
                    if scheme is not None:
                        raise MatrixFileError("duplicate mode header", lineno)
                    if value not in MATRIX_CLASSES:
                        raise MatrixFileError(f"unknown mode {value!r}", lineno)
                    scheme = value
                elif key == "n":
                    if order is not None:
                        raise MatrixFileError("duplicate n header", lineno)
                    try:
                        order = int(value)
                    except ValueError:
                        raise MatrixFileError(f"bad order {value!r}", lineno) from None
                    check_order(order)
                else:
                    raise MatrixFileError(f"unknown header {key!r}", lineno)
                continue
            row = []
            for tok in tokens:
                try:
                    row.append(float(tok))
                except ValueError:
                    raise MatrixFileError(f"bad number {tok!r}", lineno) from None
            if order is None:  # a full grid, as wide as its first row and as tall
                if width is None:
                    width = len(row)
                    check_order(width)
                elif len(row) != width or len(rows) == width:
                    raise MatrixFileError(f"first row makes the grid {width} x {width}", lineno)
            rows.append(row)
            last = lineno
    if not rows:
        raise MatrixFileError("no matrix data")
    scheme = scheme or MULTIPLICATIVE
    if order is None:
        if len(rows) != width:
            raise MatrixFileError(f"first row makes the grid {width} x {width}", last)
        return _grid_matrix(width, rows, scheme)
    values = tuple(x for row in rows for x in row)
    if len(values) != upper_size(order):
        raise MatrixFileError(
            f"expected {upper_size(order)} upper-triangle entries for n={order}, "
            f"got {len(values)}",
            last,
        )
    return MATRIX_CLASSES[scheme](order, values)


def _grid_matrix(n: int, grid: list[list[float]], scheme: str):
    """The matrix of a square float grid, kept as its upper triangle.

    A multiplicative grid needs every entry positive, then a unit diagonal,
    then a_ij * a_ji = 1; an additive grid a zero diagonal, then
    b_ij + b_ji = 0; both within TAU_REC.  The lower triangle is then
    discarded, never averaged in.
    """
    mult = scheme == MULTIPLICATIVE
    if mult:
        for i, row in enumerate(grid, start=1):
            for j, v in enumerate(row, start=1):
                if not (v > 0.0):
                    raise NonPositiveEntry(i, j, v)
    identity = 1 if mult else 0
    for i in range(n):
        if not (abs(grid[i][i] - identity) <= TAU_REC):
            raise BadDiagonal(i + 1, grid[i][i], identity)
    for i, j in upper_pairs(n):
        a, b = grid[i - 1][j - 1], grid[j - 1][i - 1]
        residual = abs(a * b - 1.0) if mult else abs(a + b)
        if not (residual <= TAU_REC):
            violation = ReciprocityViolation if mult else AntisymmetryViolation
            raise violation(i, j, residual)
    upper = tuple(grid[i - 1][j - 1] for i, j in upper_pairs(n))
    return MATRIX_CLASSES[scheme](n, upper)


def write_matrix_file(path, m) -> None:
    """Write m in upper-triangle file form, a row per line; repr round-trips every entry."""
    entries = iter(m.upper)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"mode={m.scheme}\nn={m.n}\n")
        for i in range(1, m.n):
            f.write(" ".join(map(repr, islice(entries, m.n - i))) + "\n")


def upper_entry_names(n: int, scheme: str) -> tuple[str, ...]:
    """Upper-entry names a_i_j (b_i_j in the additive scheme), in storage order."""
    prefix = "b" if scheme == ADDITIVE else "a"
    return tuple(f"{prefix}_{i}_{j}" for i, j in upper_pairs(n))


def _trace_lines(result: DescentResult):
    """The lines of result's trace file, each ending in a newline.

    The rows are read from the trace's columns, not record by record.
    """
    yield "iteration,indicator," + ",".join(upper_entry_names(result.n, result.scheme)) + "\n"
    for it, indicator, upper in result.trace.records.rows():
        yield f"{it},{indicator!r},{','.join(map(repr, upper))}\n"
    for line in _summary_lines(result):
        yield line + "\n"


#: the keys of a trace's summary rows, in the order _summary_lines writes them
SUMMARY_KEYS = ("stop_reason", "best_iter", "best_indicator", "best")


def _summary_lines(result: DescentResult):
    """The summary block of result's trace file, a line per SUMMARY_KEYS key, without line ends."""
    yield f"stop_reason,{result.stop_reason}"
    yield f"best_iter,{result.best_iter}"
    yield f"best_indicator,{result.best_indicator!r}"
    yield "best," + ",".join(map(repr, result.best_upper))


def write_trace_file(path, result: DescentResult) -> None:
    """Write result's trace file to path, the text form of the run, line by line.

    The header names the entries of result.n in result.scheme's prefix, the
    rows carry each iterate and its indicator, and the summary block carries
    the stop reason and the best iterate.  Direction norms and clamp events
    stay on the in-memory trace only.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_trace_lines(result))


def _indicator(text: str) -> float:
    """An indicator read from a trace: K_p = 1 - e^(-M) lies in [0, 1]."""
    x = float(text)
    if not 0.0 <= x <= 1.0:  # a nan fails too
        raise ValidationError(f"indicator {x!r} is not in [0, 1]")
    return x


def read_trace_file(path) -> DescentResult:
    """Read a trace file back as the DescentResult it was written from, line by line.

    The inverse of write_trace_file up to what a file does not hold: every
    record's direction_norm is None and there are no clamp events.  The
    header must name the entries as write_trace_file does; then come one or
    more iterate rows, row k numbered str(k), each indicator in [0, 1] and
    each triangle valid for the header's scheme; then the summary block,
    its rows once each, whose stop reason must be one descent.run reports.
    descent.conclude makes the result of the rows and the stop reason, and
    every summary row must read as _summary_lines writes it for that
    result.  Any other text raises MatrixFileError naming the offending
    line, a missing row the last line read.  A bad byte reads as U+FFFD,
    and a line ends at LF, CRLF or CR.  Each line is parsed as it is read,
    each iterate row appended to the trace's TraceRecords.
    """
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = ((k, ln.rstrip("\n")) for k, ln in enumerate(f, start=1) if ln.strip())
        header_no, header = next(lines, (1, ""))
        if not header.startswith("iteration,indicator,"):
            raise MatrixFileError("not a trace file", header_no)
        names = header.split(",")[2:]
        count = len(names)
        n = (1 + isqrt(1 + 8 * count)) // 2  # the inverse of upper_size
        if not 3 <= n <= MAX_ORDER or upper_size(n) != count:
            raise MatrixFileError(
                f"{count} entry columns fit no matrix order in [3, {MAX_ORDER}]", header_no
            )
        scheme = ADDITIVE if names[0].startswith("b_") else MULTIPLICATIVE
        if tuple(names) != upper_entry_names(n, scheme):
            raise MatrixFileError(
                "entry columns must be " + ",".join(upper_entry_names(n, scheme)), header_no
            )
        records, summary, last = _trace_rows(lines, header_no, n, scheme)
    if not records:
        raise MatrixFileError("trace file has no iterate rows", last)
    stop = summary.get("stop_reason", (last, ""))[1].partition(",")[2]
    result = conclude(n, scheme, records, stop)
    for key, expected in zip(SUMMARY_KEYS, _summary_lines(result)):
        if key not in summary:
            raise MatrixFileError(f"trace file has no {key!r} row", last)
        lineno, line = summary[key]
        if key == "stop_reason" and stop not in STOP_REASONS:
            raise MatrixFileError(f"unknown stop reason {stop!r}", lineno)
        if line != expected:
            raise MatrixFileError(f"{key!r} row is not the summary of the iterate rows", lineno)
    return result


def _trace_rows(lines, lineno, n, scheme):
    """A trace's iterate rows as a TraceRecords, its summary rows by key, and the last line read.

    lines are the (line number, line) pairs after the header, on line
    lineno; summary maps each key read to its (line number, line).
    """
    count = upper_size(n)
    records, summary = TraceRecords(), {}
    for lineno, line in lines:
        key, *fields = line.split(",")
        if key in SUMMARY_KEYS:
            if key in summary:
                raise MatrixFileError(f"repeated {key!r} row", lineno)
            summary[key] = lineno, line
            continue
        if summary:
            raise MatrixFileError("an iterate row follows the summary block", lineno)
        if len(fields) != count + 1:
            raise MatrixFileError(f"{key!r} row has {len(fields)} values, expected {count + 1}",
                                  lineno)
        k = len(records)
        if key != str(k):
            raise MatrixFileError(f"iterate row {k} is numbered {key!r}", lineno)
        try:
            upper = tuple(map(float, fields[1:]))
            check_entries(n, upper, scheme == MULTIPLICATIVE)
            indicator = _indicator(fields[0])
        except ValueError as exc:  # a ValidationError among them
            raise MatrixFileError(f"bad trace row {line!r}: {exc}", lineno) from None
        records.append((k, upper, indicator, None))
    return records, summary, lineno
