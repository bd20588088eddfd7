"""Plain-text exchange formats for PC matrices and descent traces.

Matrix files are whitespace/line structured with # comments and two
optional headers before the data:

    mode=multiplicative | mode=additive   (default multiplicative)
    n=<order>

With n= given the data is the strict upper triangle in row-major order
(any line layout); without it the data must be a full n x n grid, one row
per line, which is checked for unit diagonal and reciprocity (or zero
diagonal and antisymmetry) to 1e-9 before the upper triangle is kept.

Trace files are CSV-ish: a header row, one row per recorded iterate, and
a short summary block.  Floats are written with repr so that reading a
file back reproduces the run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AdditivePCMatrix,
    MultiplicativePCMatrix,
    check_order,
    upper_pairs,
    upper_size,
    validate_additive,
    validate_multiplicative,
)
from .descent import DescentResult
from .errors import MatrixFileError

MODES = ("multiplicative", "additive")


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def parse_matrix_text(text: str):
    """Parse matrix file contents; returns a PC matrix of the header's mode."""
    mode = None
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
                if mode is not None:
                    raise MatrixFileError("duplicate mode header", lineno)
                if value not in MODES:
                    raise MatrixFileError(f"unknown mode {value!r}", lineno)
                mode = value
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
    if mode is None:
        mode = "multiplicative"
    if not data_lines:
        raise MatrixFileError("no matrix data")

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
        if mode == "multiplicative":
            return MultiplicativePCMatrix(order, values)
        return AdditivePCMatrix(order, values)

    n = len(rows)
    for lineno, row in rows:
        if len(row) != n:
            raise MatrixFileError(
                f"grid is {n} rows but this row has {len(row)} entries", lineno
            )
    grid = [row for _, row in rows]
    if mode == "multiplicative":
        return validate_multiplicative(n, grid)
    return validate_additive(n, grid)


def read_matrix_file(path):
    with open(path, encoding="utf-8") as f:
        return parse_matrix_text(f.read())


def format_matrix(m) -> str:
    """Render a matrix in upper-triangle file form (round-trips via repr)."""
    mode = "additive" if isinstance(m, AdditivePCMatrix) else "multiplicative"
    lines = [f"mode={mode}", f"n={m.n}"]
    pos = 0
    for i in range(1, m.n):
        width = m.n - i
        row = m.upper[pos : pos + width]
        pos += width
        lines.append(" ".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"


def write_matrix_file(path, m) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_matrix(m))


def upper_entry_names(n: int, mode: str) -> tuple[str, ...]:
    """Upper-entry names a_i_j (b_i_j in additive mode), in storage order."""
    prefix = "b" if mode == "additive" else "a"
    return tuple(f"{prefix}_{i}_{j}" for i, j in upper_pairs(n))


def format_trace(result: DescentResult, n: int, mode: str) -> str:
    """Render a descent result as a trace file.

    Rows carry the iterate and its indicator; the summary block carries the
    stop reason and the best iterate.  Direction norms and clamp events stay
    on the in-memory trace only.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    out = ["iteration,indicator," + ",".join(upper_entry_names(n, mode))]
    for rec in result.trace.records:
        out.append(
            f"{rec.iteration},{repr(rec.indicator)},"
            + ",".join(repr(x) for x in rec.upper)
        )
    out.append(f"stop_reason,{result.stop_reason}")
    out.append(f"best_iter,{result.best_iter}")
    if result.best_matrix is not None:
        out.append(f"best_indicator,{repr(result.best_indicator)}")
        out.append("best," + ",".join(repr(x) for x in result.best_matrix.upper))
    return "\n".join(out) + "\n"


def write_trace_file(path, result: DescentResult, n: int, mode: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_trace(result, n, mode))


@dataclass(frozen=True)
class TraceData:
    n: int
    mode: str
    records: tuple[tuple[int, float, tuple[float, ...]], ...]
    stop_reason: str
    best_iter: int
    best_indicator: float | None
    best_upper: tuple[float, ...] | None


def parse_trace_text(text: str) -> TraceData:
    """Read a trace file back; exact inverse of format_trace."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("iteration,indicator,"):
        raise MatrixFileError("not a trace file", 1)
    names = lines[0].split(",")[2:]
    if not names:
        raise MatrixFileError("trace header has no entry columns", 1)
    mode = "additive" if names[0].startswith("b_") else "multiplicative"
    count = len(names)
    n = 2
    while upper_size(n) < count:
        n += 1
    if upper_size(n) != count:
        raise MatrixFileError(f"{count} entry columns fit no matrix order", 1)

    records = []
    stop_reason = None
    best_iter = None
    best_indicator = None
    best_upper = None
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        key = fields[0]
        if key == "stop_reason":
            stop_reason = fields[1]
        elif key == "best_iter":
            best_iter = int(fields[1])
        elif key == "best_indicator":
            best_indicator = float(fields[1])
        elif key == "best":
            best_upper = tuple(float(x) for x in fields[1:])
        else:
            try:
                it = int(fields[0])
                ind = float(fields[1])
                upper = tuple(float(x) for x in fields[2:])
            except ValueError:
                raise MatrixFileError(f"bad trace row {line!r}", lineno) from None
            if len(upper) != count:
                raise MatrixFileError(
                    f"trace row has {len(upper)} entries, expected {count}", lineno
                )
            records.append((it, ind, upper))
    if stop_reason is None or best_iter is None:
        raise MatrixFileError("trace file is missing its summary block", len(lines))
    return TraceData(
        n=n,
        mode=mode,
        records=tuple(records),
        stop_reason=stop_reason,
        best_iter=best_iter,
        best_indicator=best_indicator,
        best_upper=best_upper,
    )


def read_trace_file(path) -> TraceData:
    with open(path, encoding="utf-8") as f:
        return parse_trace_text(f.read())
