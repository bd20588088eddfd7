"""The benchmark's workloads: seeded inputs, one pass of jobs, output checks.

A job is one call into pcreduce: ``repro.run_all``, ``descent.run`` or
``cli.main``.  A pass runs every job of a workload once, in a fixed order,
on one thread; the next job starts only when the previous one has returned
(a closed loop with one client).  Each job's output is reduced to an
observation (stop reason, best iteration, the exact best entries, the
iteration count, and for repro the summary.csv identity hash) that is
compared with the observation recorded in expected.json.

Seeded workloads draw their matrices from a pool: every job slot has
VARIANTS matrices, each generated from its own fixed key with entries
log-uniform on Saaty's range [1/9, 9], and the run's seed picks one variant
per slot.  That keeps the work per pass fixed (same orders, exponents,
schemes and iteration caps) while the seed changes the inputs, and every
input the seed can pick has a recorded output to check against.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
SAATY_LOG = math.log(9.0)

#: eps and stall window that never stop a job early, so every job runs to
#: its max_iter and the work per pass does not depend on the inputs
EPS_NEVER = 1e-300

#: the columns summary.csv has at this commit; hashing only these lets a
#: later change add timing columns without breaking the identity check
SUMMARY_IDENTITY_COLUMNS = (
    "label", "scheme", "p", "h", "l", "stop_reason", "best_iter", "ref_iter",
    "iter_dev", "best_entries", "ref_entries", "entry_devs", "max_entry_dev",
)


@dataclass(frozen=True)
class Slot:
    """A job shape: matrix order, exponent, scheme, step and iteration cap."""

    name: str
    n: int
    p: float
    scheme: str
    h: float
    max_iter: int
    l: float | None = None


@dataclass(frozen=True)
class Job:
    key: str
    slot: Slot
    upper: tuple[float, ...]


@dataclass
class PassResult:
    wall_s: float
    iterations: int
    trace_bytes: int
    observations: dict


def random_upper(key: str, n: int) -> tuple[float, ...]:
    """Upper triangle of an order-n matrix, log-uniform on [1/9, 9]."""
    rng = random.Random(key)
    return tuple(math.exp(rng.uniform(-SAATY_LOG, SAATY_LOG)) for _ in range(n * (n - 1) // 2))


class Seeded:
    """A workload whose jobs are one pool matrix per slot, picked by the seed."""

    name: str
    slots: tuple[Slot, ...]

    def job(self, slot: Slot, variant: int) -> Job:
        key = f"{slot.name}/v{variant}"
        return Job(key, slot, random_upper(f"{self.name}/{key}", slot.n))

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(seed)
        return [self.job(slot, rng.randrange(VARIANTS)) for slot in self.slots]

    def pool(self) -> list[Job]:
        """Every job any seed can pick."""
        return [self.job(slot, v) for slot in self.slots for v in range(VARIANTS)]


def outcome(stop_reason: str, best_iter: int, best_upper, iterations: int) -> dict:
    """A job's checked output; the best entries enter as the sha256 of their repr."""
    return {
        "stop_reason": stop_reason,
        "best_iter": best_iter,
        "best_upper_sha256": hashlib.sha256(repr(tuple(best_upper)).encode()).hexdigest(),
        "iterations": iterations,
    }


def summary_identity_sha256(path) -> str:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    cols = [rows[0].index(name) for name in SUMMARY_IDENTITY_COLUMNS]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([row[c] for c in cols])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def fresh_dir(path: Path) -> Path:
    """Empty directory at path, so no output of an earlier pass can pass a check."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- repro16 ---------------------------------------------------------------


class Repro16:
    """repro.run_all over the 16 bundled reference rows (n = 3 and 4).

    Tiny matrices, tens of thousands of iterations: per-call overhead
    (matrix validation, conversions, kii bookkeeping) dominates.  The rows
    are bundled with the program, so the seed does not change the inputs.
    """

    name = "repro16"

    def jobs(self, seed: int) -> list:
        return ["run_all"]

    def pool(self) -> list:
        return ["run_all"]

    def setup(self, pc, jobs, workdir: Path):
        for row in pc.repro.REFERENCE_RUNS:
            pc.indicators.kii(pc.repro.start_matrix(row), row.p)
        return None

    def run_pass(self, pc, state, jobs, outdir: Path) -> PassResult:
        outdir = fresh_dir(outdir)
        clock = time.perf_counter
        t0 = clock()
        outcomes = pc.repro.run_all(outdir=outdir)
        wall = clock() - t0
        rows = {
            oc.row.label: outcome(
                oc.result.stop_reason,
                oc.result.best_iter,
                oc.result.best_upper,
                oc.result.trace.records[-1].iteration,
            )
            for oc in outcomes
        }
        obs = {
            "rows": rows,
            "summary_identity_sha256": summary_identity_sha256(outdir / "summary.csv"),
        }
        return PassResult(
            wall_s=wall,
            iterations=sum(r["iterations"] for r in rows.values()),
            trace_bytes=sum(p.stat().st_size for p in outdir.glob("*.trace")),
            observations={"run_all": obs},
        )


# -- difference_large -----------------------------------------------------


class DifferenceLarge(Seeded):
    """Library descent.run with the forward-difference direction at n = 16-24.

    The O(n^5) difference direction does nearly all the work; no trace file
    is written.  Orders and iteration caps are set so each job takes about
    the same time (0.5-0.8 s on a 2-CPU x86 VM with Python 3.11); every
    exponent the difference direction serves specially (2, inf, 1/2, 1) and
    both schemes appear once.
    """

    name = "difference_large"
    slots = (
        Slot("n16_p2_mult", 16, 2.0, "multiplicative", 0.1, 30, 1e-3),
        Slot("n20_pinf_add", 20, math.inf, "additive", 0.1, 16, 1e-3),
        Slot("n24_phalf_mult", 24, 0.5, "multiplicative", 0.1, 5, 1e-3),
        Slot("n18_p1_add", 18, 1.0, "additive", 0.1, 20, 1e-3),
    )

    def setup(self, pc, jobs, workdir: Path):
        state = []
        for job in jobs:
            s = job.slot
            m = pc.core.MultiplicativePCMatrix(s.n, job.upper)
            cfg = pc.descent.DescentConfig(
                p=s.p, h=s.h, scheme=s.scheme, gradient="difference", l=s.l,
                eps=EPS_NEVER, max_iter=s.max_iter, stall_window=s.max_iter + 1,
            )
            pc.indicators.kii(m, s.p)
            state.append((m, cfg))
        return state

    def run_pass(self, pc, state, jobs, outdir: Path) -> PassResult:
        clock = time.perf_counter
        wall = 0.0
        iterations = 0
        observations = {}
        for job, (m, cfg) in zip(jobs, state):
            try:
                t0 = clock()
                res = pc.descent.run(m, cfg)
                wall += clock() - t0
                it = res.trace.records[-1].iteration
                iterations += it
                observations[job.key] = outcome(res.stop_reason, res.best_iter, res.best_upper, it)
            except Exception as exc:  # a job that raises is a failed job, not a crash
                observations[job.key] = {"error": repr(exc)}
        return PassResult(wall, iterations, 0, observations)


# -- analytic_cli ---------------------------------------------------------


class AnalyticCli(Seeded):
    """In-process ``pcreduce reduce --gradient analytic`` on matrix files, n = 24-32.

    The difference direction is bypassed.  Each job parses a full-grid
    matrix file (reciprocity is validated), runs the analytic direction and
    the step for a fixed number of iterations, and writes a full trace and
    the best matrix, so CLI, parsing and trace writing all carry weight.
    Exponents 2, 1/2 and 3 (all smooth) and both schemes appear.
    """

    name = "analytic_cli"
    slots = (
        Slot("n24_p2_mult", 24, 2.0, "multiplicative", 1.0, 150),
        Slot("n28_phalf_add", 28, 0.5, "additive", 1.0, 150),
        Slot("n32_p3_mult", 32, 3.0, "multiplicative", 1.0, 150),
        Slot("n30_p2_add", 30, 2.0, "additive", 1.0, 150),
    )

    def setup(self, pc, jobs, workdir: Path):
        indir = fresh_dir(workdir / "inputs")
        state = []
        for k, job in enumerate(jobs):
            s = job.slot
            path = indir / f"job{k}.txt"
            path.write_text(grid_text(s.n, job.upper), encoding="utf-8")
            m = pc.matrixio.read_matrix_file(path)
            pc.indicators.kii(m, s.p)
            argv_head = [
                "reduce", str(path), "--p", repr(s.p), "--scheme", s.scheme,
                "--gradient", "analytic", "--h", repr(s.h), "--eps", repr(EPS_NEVER),
                "--max-iter", str(s.max_iter), "--stall-window", str(s.max_iter + 1),
            ]
            state.append(argv_head)
        return state

    def run_pass(self, pc, state, jobs, outdir: Path) -> PassResult:
        outdir = fresh_dir(outdir)
        clock = time.perf_counter
        wall = 0.0
        iterations = 0
        trace_bytes = 0
        observations = {}
        for k, (job, argv_head) in enumerate(zip(jobs, state)):
            trace = outdir / f"job{k}.trace"
            out = outdir / f"job{k}.out"
            argv = argv_head + ["--trace", str(trace), "--out", str(out)]
            stdout = io.StringIO()
            try:
                t0 = clock()
                with contextlib.redirect_stdout(stdout):
                    try:
                        code = pc.cli.main(argv)
                    except SystemExit as exc:  # argparse rejected the arguments
                        code = exc.code
                wall += clock() - t0
                printed = dict(line.split(" ", 1) for line in stdout.getvalue().splitlines())
                it = last_trace_iteration(trace)
                iterations += it
                trace_bytes += trace.stat().st_size
                observations[job.key] = outcome(
                    printed["stop_reason"], int(printed["best_iter"]), matrix_file_upper(out), it
                ) | {"exit": code}
            except Exception as exc:  # a job that raises is a failed job, not a crash
                observations[job.key] = {"error": repr(exc)}
        return PassResult(wall, iterations, trace_bytes, observations)


def grid_text(n: int, upper) -> str:
    """Full multiplicative grid, one row per line, with a_ji = 1/a_ij
    (reciprocal well within the parser's 1e-9 check)."""
    grid = [[1.0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = upper[pos]
            grid[j][i] = 1.0 / upper[pos]
            pos += 1
    return "\n".join(" ".join(repr(x) for x in row) for row in grid) + "\n"


def matrix_file_upper(path) -> tuple[float, ...]:
    """Entries of an upper-triangle matrix file (the --out format)."""
    values = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if "=" not in line:
            values.extend(float(tok) for tok in line.split())
    return tuple(values)


def last_trace_iteration(path) -> int:
    """Iteration number of the last iterate row of a trace file."""
    last = None
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        head = line.split(",", 1)[0]
        if head.isdigit():
            last = int(head)
    if last is None:
        raise ValueError(f"{path} has no iterate rows")
    return last


WORKLOADS = {w.name: w for w in (Repro16(), DifferenceLarge(), AnalyticCli())}
