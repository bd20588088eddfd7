"""Command line front end.

Subcommands:
    evaluate  print the inconsistency indicator of a matrix file
    gradient  print the priority direction (analytic or difference)
    reduce    run the descent and print/store the best iterate
    repro     rerun the bundled reference table and report deviations

Exit codes: 0 success, 1 argument/file/validation problems, 2 indicator or
descent domain errors (a start in the indicator's hole, which prints
nothing, or a run stopping on indicator_undefined or positivity_failure).
Values are printed with six decimals, decimal point always a dot, except
where six decimals would show a nonzero value as zero or the value's
magnitude is 1e15 or more: those print as repr(x).
"""

import argparse
import os
import sys
from dataclasses import fields

from .core import MATRIX_CLASSES, upper_pairs
from .descent import (
    STOP_POSITIVITY,
    STOP_UNDEFINED,
    DescentConfig,
    run,
)
from .errors import EvaluationError, ValidationError
from .gradients import (
    ANALYTIC,
    DIFFERENCE,
    select_direction,
)
from .indicators import kii, point_at
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


def format_value(x: float) -> str:
    """x with six decimals, or repr(x) where those would read a nonzero x as zero or |x| >= 1e15."""
    text = f"{x:.6f}"
    if (x != 0.0 and float(text) == 0.0) or abs(x) >= 1e15:
        return repr(x)
    return text


def build_parser() -> Parser:
    parser = Parser(prog="pcreduce", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("matrix", help="matrix file")
    point.add_argument("--p", type=float, default=1.0,
                       help="averaging exponent (decimal or inf; default 1)")
    increment = argparse.ArgumentParser(add_help=False)
    increment.add_argument("--l", type=float, default=DescentConfig.l,
                           help="difference increment (default %(default)g)")

    sub.add_parser("evaluate", parents=[point], help="inconsistency indicator of a matrix")

    gr = sub.add_parser("gradient", parents=[point, increment],
                        help="priority direction at a matrix")
    gr.add_argument("--kind", choices=(ANALYTIC, DIFFERENCE), default=ANALYTIC,
                    help="analytic (instant) or forward difference")

    rd = sub.add_parser("reduce", parents=[point, increment],
                        help="descend to a less inconsistent matrix")
    rd.add_argument("--scheme", choices=tuple(MATRIX_CLASSES), default=DescentConfig.scheme)
    rd.add_argument("--gradient", choices=(ANALYTIC, DIFFERENCE),
                    default=DescentConfig.gradient)
    rd.add_argument("--h", type=float, required=True, help="step length in (0, inf)")
    rd.add_argument("--eps", type=float, default=DescentConfig.eps,
                    help="convergence threshold in (0, 1) (default %(default)g)")
    rd.add_argument("--max-iter", type=int, default=DescentConfig.max_iter)
    rd.add_argument("--stall-window", type=int, default=DescentConfig.stall_window)
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
    print(format_value(kii(m, args.p)))
    return 0


def cmd_gradient(args) -> int:
    m = read_matrix_file(args.matrix)
    pt = point_at(m, args.p)
    direction = select_direction(m.n, pt.q, args.kind, args.l)
    for (i, j), c in zip(upper_pairs(m.n), direction(pt)):
        print(f"w_{i}_{j} {format_value(c)}")
    return 0


def cmd_reduce(args) -> int:
    m = read_matrix_file(args.matrix)
    # the reduce options are named after the DescentConfig fields
    cfg = DescentConfig(**{f.name: getattr(args, f.name) for f in fields(DescentConfig)})
    # open the output files before the run, so one that cannot be written
    # fails before the first iterate; a file made here goes if the run raises
    made = []
    try:
        for path in (args.trace, args.out):
            if path is not None:
                new = not os.path.lexists(path)
                open(path, "a").close()
                if new:
                    made.append(path)
        result = run(m, cfg)
    except BaseException:
        for path in made:
            os.remove(path)
        raise
    if args.trace is not None:
        write_trace_file(args.trace, result)
    if args.out is not None:
        write_matrix_file(args.out, result.best_matrix)
    print(f"stop_reason {result.stop_reason}")
    print(f"best_iter {result.best_iter}")
    print(f"best_indicator {format_value(result.best_indicator)}")
    for name, x in zip(upper_entry_names(result.n, result.scheme), result.best_upper):
        print(f"{name} {format_value(x)}")
    if result.stop_reason in (STOP_UNDEFINED, STOP_POSITIVITY):
        return 2
    return 0


def cmd_repro(args) -> int:
    outcomes = run_all(outdir=args.outdir, echo=print)
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
    except (ValidationError, OSError, EvaluationError) as exc:
        print(f"pcreduce: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, EvaluationError) else 1
