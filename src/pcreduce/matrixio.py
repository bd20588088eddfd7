"""Plain-text exchange formats for PC matrices and descent traces.

Matrix files are whitespace/line structured with # comments and two
optional headers before the data:

    mode=multiplicative | mode=additive   (default multiplicative)
    n=<order>

With n= given the data is the strict upper triangle in row-major order
(any line layout); without it the data must be a full n x n grid, one row
per line.  Full grids exist only here: _grid_matrix checks one for unit
diagonal and reciprocity (or zero diagonal and antisymmetry) to TAU_REC and
keeps its upper triangle, the only part a PC matrix stores.

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


def _strip(line: str) -> str:
    return line.partition("#")[0].strip()


def parse_matrix_text(text: str):
    """Parse matrix file contents; returns a PC matrix of the mode header's scheme."""
    scheme = None
    order = None
    data_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if "=" in line and not data_lines:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
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
        data_lines.append((lineno, line))
    if scheme is None:
        scheme = MULTIPLICATIVE
    if not data_lines:
        raise MatrixFileError("no matrix data")
    if order is None and len(data_lines) > MAX_ORDER:
        # a full grid has one row per line: reject its order before converting it
        check_order(len(data_lines))

    rows = []
    for lineno, line in data_lines:
        row = []
        for tok in line.split():
            try:
                row.append(float(tok))
            except ValueError:
                raise MatrixFileError(f"bad number {tok!r}", lineno) from None
        rows.append((lineno, row))

    if order is not None:
        values = tuple(x for _, row in rows for x in row)
        want = upper_size(order)
        if len(values) != want:
            raise MatrixFileError(
                f"expected {want} upper-triangle entries for n={order}, "
                f"got {len(values)}",
                data_lines[-1][0],
            )
        return MATRIX_CLASSES[scheme](order, values)

    n = len(rows)
    for lineno, row in rows:
        if len(row) != n:
            raise MatrixFileError(
                f"grid is {n} rows but this row has {len(row)} entries", lineno
            )
    return _grid_matrix(n, [row for _, row in rows], scheme)


def _grid_matrix(n: int, grid: list[list[float]], scheme: str):
    """The matrix of a square float grid, kept as its upper triangle.

    A multiplicative grid needs every entry positive, then a unit diagonal,
    then a_ij * a_ji = 1; an additive grid a zero diagonal, then
    b_ij + b_ji = 0; both within TAU_REC.  The lower triangle is then
    discarded, never averaged in.
    """
    check_order(n)
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


def read_matrix_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:  # a bad byte reads as U+FFFD
        return parse_matrix_text(f.read())


def format_matrix(m) -> str:
    """Render a matrix in upper-triangle file form (round-trips via repr)."""
    lines = [f"mode={m.scheme}", f"n={m.n}"]
    entries = iter(m.upper)
    for i in range(1, m.n):
        lines.append(" ".join(map(repr, islice(entries, m.n - i))))
    return "\n".join(lines) + "\n"


def write_matrix_file(path, m) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_matrix(m))


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
    if result.best_matrix is not None:
        yield f"best_indicator,{result.best_indicator!r}\n"
        yield "best," + ",".join(map(repr, result.best_matrix.upper)) + "\n"


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
    best_indicator and best come together, and best_iter is -1 without them
    and a rank >= 0 with them.  Any other text raises MatrixFileError naming
    the offending line.  A bad byte reads as U+FFFD, and a line ends at LF,
    CRLF or CR.  Each line is parsed as it is read, each iterate row
    appended to the trace's TraceRecords.
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
        best_matrix=summary.get("best"),
        best_indicator=summary.get("best_indicator"),
        stop_reason=summary["stop_reason"],
        trace=IterationTrace(records),
    )


def _trace_rows(lines, lineno, n, scheme):
    """(records, summary): a trace's iterate rows as a TraceRecords, its summary block as a dict.

    lines are the (line number, line) pairs after the header, on line
    lineno.  Once they are read, the summary block is checked as a whole.
    """
    count = upper_size(n)
    records, summary = TraceRecords(), {}
    last = -1  # the previous iterate row's rank
    where = {}
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
        where[key] = lineno
        if key == "stop_reason" and summary[key] not in STOP_REASONS:
            raise MatrixFileError(f"unknown stop reason {summary[key]!r}", lineno)
    if "stop_reason" not in summary or "best_iter" not in summary:
        raise MatrixFileError("trace file is missing its summary block", lineno)
    lone = [where[key] for key in ("best", "best_indicator") if key in summary]
    if len(lone) == 1:
        raise MatrixFileError("best and best_indicator come only together", lone[0])
    best_iter = summary["best_iter"]
    if not (best_iter >= 0 if "best" in summary else best_iter == -1):
        raise MatrixFileError("best_iter is -1 exactly when best is absent", where["best_iter"])
    return records, summary
