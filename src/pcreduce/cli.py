"""Command line front end.

Subcommands:
    evaluate  print the inconsistency indicator of a matrix file
    gradient  print the priority direction (analytic or difference)
    reduce    run the descent and print/store the best iterate
    repro     rerun the bundled reference table and report deviations

Exit codes: 0 success, 1 argument/file/validation problems, 2 indicator or
descent domain errors (including runs stopping on indicator_undefined or
positivity_failure).  Values are printed with six decimals, decimal point
always a dot.
"""

from __future__ import annotations

import argparse
import sys

from .core import upper_pairs
from .descent import (
    ADDITIVE,
    ANALYTIC,
    DIFFERENCE,
    MULTIPLICATIVE,
    STOP_POSITIVITY,
    STOP_UNDEFINED,
    DescentConfig,
    run,
    select_direction,
)
from .errors import EvaluationError, InvalidExponent, ValidationError
from .indicators import kii, normalize_exponent
from .matrixio import (
    read_matrix_file,
    upper_entry_names,
    write_matrix_file,
    write_trace_file,
)
from .repro import format_report, run_all


class Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; this tool reserves 2 for
    # domain errors, so parse failures must exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def exponent(text: str) -> float:
    try:
        return normalize_exponent(float(text))
    except InvalidExponent as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not (value > 0.0):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> Parser:
    parser = Parser(prog="pcreduce", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="inconsistency indicator of a matrix")
    ev.add_argument("matrix", help="matrix file")
    ev.add_argument("--p", type=exponent, default=1.0,
                    help="averaging exponent (decimal or inf; default 1)")

    gr = sub.add_parser("gradient", help="priority direction at a matrix")
    gr.add_argument("matrix", help="matrix file")
    gr.add_argument("--p", type=exponent, default=1.0,
                    help="averaging exponent (decimal or inf; default 1)")
    gr.add_argument("--kind", choices=(ANALYTIC, DIFFERENCE), default=ANALYTIC,
                    help="analytic (instant) or forward difference")
    gr.add_argument("--l", type=positive, default=1e-3,
                    help="difference increment (default 1e-3)")

    rd = sub.add_parser("reduce", help="descend to a less inconsistent matrix")
    rd.add_argument("matrix", help="matrix file")
    rd.add_argument("--p", type=exponent, default=1.0,
                    help="averaging exponent (decimal or inf; default 1)")
    rd.add_argument("--scheme", choices=(MULTIPLICATIVE, ADDITIVE),
                    default=MULTIPLICATIVE)
    rd.add_argument("--gradient", choices=(ANALYTIC, DIFFERENCE),
                    default=DIFFERENCE)
    rd.add_argument("--h", type=positive, required=True, help="step length")
    rd.add_argument("--l", type=positive, default=None,
                    help="difference increment (required with --gradient difference)")
    rd.add_argument("--eps", type=positive, default=1e-4,
                    help="convergence threshold on the indicator (default 1e-4)")
    rd.add_argument("--max-iter", type=int, default=100000)
    rd.add_argument("--stall-window", type=int, default=50)
    rd.add_argument("--trace", metavar="FILE", default=None,
                    help="write the full iteration trace here")
    rd.add_argument("--out", metavar="FILE", default=None,
                    help="write the best matrix here")

    rp = sub.add_parser("repro", help="rerun the bundled reference table")
    rp.add_argument("--outdir", default=None,
                    help="directory for per-run traces, summary.csv and report.txt")
    return parser


def cmd_evaluate(args) -> int:
    m = read_matrix_file(args.matrix)
    print(f"{kii(m, args.p):.6f}")
    return 0


def cmd_gradient(args) -> int:
    m = read_matrix_file(args.matrix)
    v = select_direction(m, args.p, args.kind, args.l)
    for (i, j), c in zip(upper_pairs(m.n), v):
        print(f"w_{i}_{j} {c:.6f}")
    return 0


def cmd_reduce(args) -> int:
    m = read_matrix_file(args.matrix)
    cfg = DescentConfig(
        p=args.p,
        h=args.h,
        scheme=args.scheme,
        gradient=args.gradient,
        l=args.l,
        eps=args.eps,
        max_iter=args.max_iter,
        stall_window=args.stall_window,
    )
    result = run(m, cfg)
    print(f"stop_reason {result.stop_reason}")
    print(f"best_iter {result.best_iter}")
    if result.best_matrix is not None:
        print(f"best_indicator {result.best_indicator:.6f}")
        names = upper_entry_names(m.n, args.scheme)
        for name, x in zip(names, result.best_matrix.upper):
            print(f"{name} {x:.6f}")
    if args.trace is not None:
        write_trace_file(args.trace, result, m.n, args.scheme)
    if args.out is not None and result.best_matrix is not None:
        write_matrix_file(args.out, result.best_matrix)
    if result.stop_reason in (STOP_UNDEFINED, STOP_POSITIVITY):
        return 2
    return 0


def cmd_repro(args) -> int:
    outcomes = run_all(outdir=args.outdir, echo=lambda line: print(line))
    print()
    print(format_report(outcomes), end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "evaluate": cmd_evaluate,
        "gradient": cmd_gradient,
        "reduce": cmd_reduce,
        "repro": cmd_repro,
    }[args.command]
    try:
        return handler(args)
    except (ValidationError, OSError, ValueError) as exc:
        print(f"pcreduce: error: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"pcreduce: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
