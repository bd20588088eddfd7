"""Reproduction harness for the bundled reference runs.

Sixteen descent runs over two fixed start matrices — a 3x3 (in both its
multiplicative and additive forms) and a 4x4 exercised at p = inf, 1, 2,
1/2 and -1 — with the forward-difference gradient, eps = 1e-3,
stall_window = 50 and max_iter = 60000.  Each run's best iterate is
compared against the bundled reference values (best rank and matrix
entries); the harness reports absolute deviations and never aborts on an
error stop, it just records the stop reason; every run has a best
iterate, whatever its stop.

Four reference rows are not reproduced, and the report shows their
deviations rather than hiding them:

* row 10 (p = 1, h = 0.01) reaches its best iterate at rank 2854 against
  the reference 4700; its entries match within 0.05.  This is the one
  known acceptance failure (criterion 5).
* rows 15 and 16 (p = -1, h = 0.002) report a_1_3 = 21.434 and 21.737,
  above its start value e^3.  From START4, u_123 = -4 and u_134 = 3
  (u_t = b_ij + b_jk - b_ik, b = ln a); while u_123 < 0 < u_134 both
  defects grow with a_1_3, so every descent step lowers it.  At p = -1 the
  step is also bounded, |w_1_3| <= N / a_1_3 = 4 / a_1_3, so a_1_3 moves by
  at most 0.053 within rank 133 and 0.007 within rank 17.  The run keeps
  a_1_3 <= e^3 and its best a_1_3 is 20.0845; criterion 7 asserts this
  bound instead of the reference value.  The rows keep the paper's values.
* row 05 (additive, h = 0.01) ends at (-0.666, 1.668, 2.334) against the
  reference (-0.952, 1.120, 2.047), 0.548 off on a_1_3; no test asserts
  its reference.  A candidate cause: an exact-gradient additive step never
  moves the row means of the antisymmetric matrix, and the reference rows
  04 and 06 keep the start's (1/3, 1, -4/3), but the reference row 05's
  are (0.056, 1.000, -1.056), off that invariant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .core import ADDITIVE, MATRIX_CLASSES, MULTIPLICATIVE, upper_pairs
from .descent import DescentConfig, DescentResult, run
from .gradients import DIFFERENCE
from .matrixio import upper_entry_names, write_trace_file

HARNESS_EPS = 1e-3
HARNESS_MAX_ITER = 60000
HARNESS_STALL_WINDOW = 50

#: 3x3 start, upper triangle (a_1_2, a_1_3, a_2_3)
START3_MULT = (math.exp(-2.0), math.exp(3.0), math.exp(1.0))
START3_ADD = (-2.0, 3.0, 1.0)
#: 4x4 start, upper triangle (a_1_2, a_1_3, a_1_4, a_2_3, a_2_4, a_3_4)
START4_MULT = (math.exp(-2.0), math.exp(3.0), 1.0, math.exp(1.0), 1.0, 1.0)
#: the start triangle of each (order, scheme) in the table
STARTS = {(3, MULTIPLICATIVE): START3_MULT, (3, ADDITIVE): START3_ADD,
          (4, MULTIPLICATIVE): START4_MULT}


@dataclass(frozen=True)
class ReproRow:
    label: str
    n: int
    scheme: str
    p: float
    h: float
    l: float
    ref_iter: int
    ref_entries: tuple[float, ...]


REFERENCE_RUNS: tuple[ReproRow, ...] = (
    ReproRow("01_mult3_h0.1_l0.001", 3, MULTIPLICATIVE, 1.0, 0.1, 0.001,
             230, (4.045, 19.676, 4.867)),
    ReproRow("02_mult3_h0.01_l0.001", 3, MULTIPLICATIVE, 1.0, 0.01, 0.001,
             2300, (4.041, 19.675, 4.868)),
    ReproRow("03_mult3_h0.001_l0.0001", 3, MULTIPLICATIVE, 1.0, 0.001, 0.0001,
             23000, (4.041, 19.675, 4.868)),
    ReproRow("04_add3_h0.1_l0.001", 3, ADDITIVE, 1.0, 0.1, 0.001,
             180, (-0.714, 1.715, 2.285)),
    ReproRow("05_add3_h0.01_l0.001", 3, ADDITIVE, 1.0, 0.01, 0.001,
             1800, (-0.952, 1.120, 2.047)),
    ReproRow("06_add3_h0.001_l0.0001", 3, ADDITIVE, 1.0, 0.001, 0.0001,
             17800, (-0.667, 1.667, 2.332)),
    ReproRow("07_pinf_h0.1_l0.001", 4, MULTIPLICATIVE, math.inf, 0.1, 0.001,
             168, (2.517, 19.904, 3.696, 1.398, 1.0, 0.150)),
    ReproRow("08_pinf_h0.01_l0.001", 4, MULTIPLICATIVE, math.inf, 0.01, 0.001,
             3080, (3.865, 19.666, 4.812, 1.566, 0.415, 0.083)),
    ReproRow("09_p1_h0.1_l0.001", 4, MULTIPLICATIVE, 1.0, 0.1, 0.001,
             280, (2.768, 19.855, 3.952, 1.544, 0.533, 0.138)),
    ReproRow("10_p1_h0.01_l0.001", 4, MULTIPLICATIVE, 1.0, 0.01, 0.001,
             4700, (3.939, 19.669, 4.812, 1.112, 0.281, 0.057)),
    ReproRow("11_p2_h0.1_l0.001", 4, MULTIPLICATIVE, 2.0, 0.1, 0.001,
             220, (2.459, 19.892, 3.757, 1.641, 0.524, 0.106)),
    ReproRow("12_p2_h0.01_l0.001", 4, MULTIPLICATIVE, 2.0, 0.01, 0.001,
             3700, (3.571, 19.725, 4.573, 1.613, 0.422, 0.089)),
    ReproRow("13_phalf_h0.01_l0.001", 4, MULTIPLICATIVE, 0.5, 0.01, 0.001,
             280, (0.700, 20.074, 2.663, 0.926, 1.317, 0.506)),
    ReproRow("14_phalf_h0.001_l1e-05", 4, MULTIPLICATIVE, 0.5, 0.001, 1e-05,
             2700, (0.713, 20.074, 2.662, 0.973, 1.360, 0.512)),
    ReproRow("15_pminus1_h0.002_l0.1", 4, MULTIPLICATIVE, -1.0, 0.002, 0.1,
             133, (0.228, 21.434, 2.678, 0.991, 2.370, 0.895)),
    ReproRow("16_pminus1_h0.002_l0.01", 4, MULTIPLICATIVE, -1.0, 0.002, 0.01,
             17, (0.144, 21.737, 2.713, 0.999, 2.654, 0.986)),
)


def start_matrix(row: ReproRow):
    return MATRIX_CLASSES[row.scheme](row.n, STARTS[row.n, row.scheme])


def label_order(n: int) -> tuple[int, ...]:
    """Storage positions in table label order, by column: a_1_2, a_1_3, a_2_3, a_1_4, ..."""
    pairs = upper_pairs(n)
    return tuple(sorted(range(len(pairs)), key=lambda k: pairs[k][::-1]))


def entry_names(n: int, scheme: str) -> tuple[str, ...]:
    """Entry names in table label order."""
    names = upper_entry_names(n, scheme)
    return tuple(names[k] for k in label_order(n))


@dataclass(frozen=True)
class RowOutcome:
    row: ReproRow
    result: DescentResult
    best_entries: tuple[float, ...]  # in table label order
    entry_devs: tuple[float, ...]
    iter_dev: int


def run_row(row: ReproRow) -> RowOutcome:
    cfg = DescentConfig(
        p=row.p,
        h=row.h,
        scheme=row.scheme,
        gradient=DIFFERENCE,
        l=row.l,
        eps=HARNESS_EPS,
        max_iter=HARNESS_MAX_ITER,
        stall_window=HARNESS_STALL_WINDOW,
    )
    result = run(start_matrix(row), cfg)
    best = tuple(result.best_matrix.upper[k] for k in label_order(row.n))
    devs = tuple(abs(b - r) for b, r in zip(best, row.ref_entries))
    return RowOutcome(row, result, best, devs, abs(result.best_iter - row.ref_iter))


def format_report(outcomes) -> str:
    out = []
    for oc in outcomes:
        row = oc.row
        out.append(
            f"{row.label}  scheme={row.scheme} p={row.p:g} h={row.h:g} l={row.l:g} "
            f"stop={oc.result.stop_reason}"
        )
        names = entry_names(row.n, row.scheme)
        width = max(9, *(len(nm) for nm in names))
        out.append(
            f"    best_iter {oc.result.best_iter}   ref {row.ref_iter}   "
            f"dev {oc.iter_dev}"
        )
        out.append("    " + "  ".join(nm.rjust(width) for nm in names))
        for values, tag in ((oc.best_entries, "best"), (row.ref_entries, "ref"),
                            (oc.entry_devs, "dev")):
            out.append("    " + "  ".join(f"{x:{width}.6f}" for x in values) + "  " + tag)
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def write_summary_csv(path, outcomes) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(
            [
                "label", "scheme", "p", "h", "l", "stop_reason",
                "best_iter", "ref_iter", "iter_dev",
                "best_entries", "ref_entries", "entry_devs", "max_entry_dev",
            ]
        )
        for oc in outcomes:
            row = oc.row
            w.writerow(
                [
                    row.label, row.scheme, repr(row.p), repr(row.h), repr(row.l),
                    oc.result.stop_reason, oc.result.best_iter, row.ref_iter, oc.iter_dev,
                    ";".join(map(repr, oc.best_entries)),
                    ";".join(map(repr, row.ref_entries)),
                    ";".join(map(repr, oc.entry_devs)),
                    repr(max(oc.entry_devs)),
                ]
            )


def run_all(outdir=None, echo=None):
    """Run every reference row in table order; returns the outcomes.

    With outdir given, writes one trace file per run plus summary.csv and
    report.txt.  echo, if given, is called with one progress line per run.
    """
    outcomes = []
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    for row in REFERENCE_RUNS:
        oc = run_row(row)
        outcomes.append(oc)
        if outdir is not None:
            write_trace_file(outdir / f"{row.label}.trace", oc.result)
        if echo is not None:
            echo(
                f"{row.label}: stop={oc.result.stop_reason} "
                f"best_iter={oc.result.best_iter} max_entry_dev={max(oc.entry_devs):.6f}"
            )
    if outdir is not None:
        write_summary_csv(outdir / "summary.csv", outcomes)
        (outdir / "report.txt").write_text(format_report(outcomes), encoding="utf-8")
    return outcomes
