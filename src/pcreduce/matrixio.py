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
header row naming the entries, one row per recorded iterate, and a short
summary block.  Floats are written with repr, so reading a file back gives
the DescentResult it was written from, bit for bit, less the direction
norms and clamp events that the file does not hold.
"""

from __future__ import annotations

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
from .descent import MAX_ITERATION, STOP_REASONS, DescentResult, IterationTrace, TraceRecords
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
    yield f"stop_reason,{result.stop_reason}\n"
    yield f"best_iter,{result.best_iter}\n"
    yield f"best_indicator,{result.best_indicator!r}\n"
    yield "best," + ",".join(map(repr, result.best_upper)) + "\n"


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


#: summary keys of a trace file with one value each, and their types
SUMMARY_FIELDS = {"stop_reason": str, "best_iter": int, "best_indicator": _indicator}


def read_trace_file(path) -> DescentResult:
    """Read a trace file back as the DescentResult it was written from, line by line.

    The inverse of write_trace_file up to what a file does not hold: every
    record's direction_norm is None and there are no clamp events.  The
    header must name the entries as write_trace_file does, iterate rows must
    precede the summary block, whose rows come once each, and have ranks
    >= 0 in increasing order, written as str(rank), every indicator must lie
    in [0, 1], every iterate row and best must be a valid triangle of the
    header's scheme, the stop reason must be one descent.run reports,
    best_iter must be a rank >= 0, and all four summary rows must be there.
    Any other text raises MatrixFileError naming the offending line.  A bad
    byte reads as U+FFFD, and a line ends at LF, CRLF or CR.  Each line is
    parsed as it is read, each iterate row appended to the trace's
    TraceRecords.
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
        records, summary = _trace_rows(lines, header_no, n, scheme)
    return DescentResult(
        n=n,
        scheme=scheme,
        best_iter=summary["best_iter"],
        best_matrix=summary["best"],
        best_indicator=summary["best_indicator"],
        stop_reason=summary["stop_reason"],
        trace=IterationTrace(records),
    )


def _trace_rows(lines, lineno, n, scheme):
    """(records, summary): a trace's iterate rows as a TraceRecords, its summary block as a dict.

    lines are the (line number, line) pairs after the header, on line
    lineno.  A missing summary row is reported at the last line read.
    """
    count = upper_size(n)
    records, summary = TraceRecords(), {}
    last = -1  # the previous iterate row's rank
    for lineno, line in lines:
        key, *fields = line.split(",")
        if key in summary:
            raise MatrixFileError(f"repeated {key!r} row", lineno)
        width = 1 if key in SUMMARY_FIELDS else count if key == "best" else count + 1
        if len(fields) != width:
            raise MatrixFileError(
                f"{key!r} row has {len(fields)} values, expected {width}", lineno
            )
        try:
            if key in SUMMARY_FIELDS:
                summary[key] = SUMMARY_FIELDS[key](fields[0])
            elif key == "best":
                summary[key] = MATRIX_CLASSES[scheme](n, tuple(map(float, fields)))
            else:
                upper = tuple(map(float, fields[1:]))
                check_entries(n, upper, scheme == MULTIPLICATIVE)
                rank = int(key)
                if summary:
                    raise ValidationError("an iterate row follows the summary block")
                if key != str(rank) or rank <= last:
                    raise ValidationError(f"iterations must be >= 0 and increasing, got {key}")
                if rank > MAX_ITERATION:
                    raise ValidationError(f"iteration {key} exceeds {MAX_ITERATION}")
                last = rank
                records.append((rank, upper, _indicator(fields[0]), None))
                continue
        except ValueError as exc:  # a ValidationError among them
            raise MatrixFileError(f"bad trace row {line!r}: {exc}", lineno) from None
        if key == "stop_reason" and summary[key] not in STOP_REASONS:
            raise MatrixFileError(f"unknown stop reason {summary[key]!r}", lineno)
        if key == "best_iter" and summary[key] < 0:
            raise MatrixFileError(f"best_iter must be >= 0, got {summary[key]}", lineno)
    for key in (*SUMMARY_FIELDS, "best"):
        if key not in summary:
            raise MatrixFileError(f"trace file has no {key!r} row", lineno)
    return records, summary
