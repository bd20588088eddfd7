"""pcreduce benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload repro16 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; pcreduce is imported from its src/
directory, never from an installed copy.  With --trace 0 the run times
passes of the workload and reports the end-to-end metrics; with --trace 1 it
times untraced passes for half the budget and traced passes for the other
half, and reports the per-layer metrics.  Every job's output is checked
against expected.json.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: set-ups before the first pass of an untraced run; one more precedes
#: every pass, so set-ups sample the same stretch of time as the passes
EXTRA_SETUPS = 4

sys.path[:0] = [str(SRC), str(HERE)]
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_pcreduce() -> SimpleNamespace:
    """Import pcreduce afresh from ROOT/src and return its layer modules."""
    for name in [m for m in sys.modules if m == "pcreduce" or m.startswith("pcreduce.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        package = importlib.import_module("pcreduce")
    except ImportError as exc:
        raise BenchError(f"cannot import pcreduce from {SRC}: {exc}") from None
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"pcreduce was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"pcreduce.{layer}") for layer in LAYERS}
    )


def source_digest() -> str:
    """sha256 over src/pcreduce/*.py: identifies the code measured (the
    checkout the benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pcreduce").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def setup(workload, seed):
    """Import, input generation and parsing, cache warm-up; returns (pc, jobs, state, s)."""
    t0 = time.perf_counter()
    pc = import_pcreduce()
    jobs = workload.jobs(seed)
    workdir = WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(pc, jobs, workdir)
    return pc, jobs, state, time.perf_counter() - t0


class Tally:
    """Jobs attempted and failed, checked against the recorded outputs."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, observations: dict, jobs: int) -> None:
        self.attempted += jobs
        for key, obs in observations.items():
            want = self.expected.get(key)
            if obs != want:
                self.failed += 1
                print(f"output mismatch for {key}: got {obs!r}, expected {want!r}", file=sys.stderr)
        self.failed += jobs - len(observations)


def timed_passes(workload, seed, tally, budget_s, traced=False, setup_times=None):
    """Yield (PassResult, Tracer or None) per pass until the next pass would
    overrun budget_s; always runs at least one pass.

    The workload is set up once, or, with setup_times given, afresh before
    every pass, appending each set-up time to setup_times.
    """
    outdir = WORK / workload.name / "out"
    if setup_times is None:
        pc, jobs, state, _ = setup(workload, seed)
    started = time.perf_counter()
    last = None
    while last is None or time.perf_counter() - started + last <= budget_s:
        t0 = time.perf_counter()
        if setup_times is not None:
            pc, jobs, state, setup_s = setup(workload, seed)
            setup_times.append(setup_s)
        gc.collect()
        tracer = Tracer() if traced else None
        try:
            with tracer or contextlib.nullcontext():
                result = workload.run_pass(pc, state, jobs, outdir)
        except Exception:  # the pass's single program call raised: all its jobs failed
            traceback.print_exc()
            tally.check({}, len(jobs))
            return
        tally.check(result.observations, len(jobs))
        yield result, tracer
        last = time.perf_counter() - t0


def end_to_end(workload, seed, seconds, tally):
    """Pass wall time and throughput are totals over the run's passes
    divided by the pass count (see README.md for why not medians);
    setup_s is the median of all set-ups."""
    setup_times = [setup(workload, seed)[3] for _ in range(EXTRA_SETUPS)]
    walls, iterations = [], 0
    for result, _ in timed_passes(workload, seed, tally, seconds, setup_times=setup_times):
        walls.append(result.wall_s)
        iterations += result.iterations
    if not walls:
        return {}
    print(f"passes {len(walls)}  wall_s {[round(w, 4) for w in walls]}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "iters_per_s": (iterations / math.fsum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, seed, seconds, tally):
    """Untraced passes for half the budget, traced passes for the other half.

    Counts come from the first traced pass, whose spans are also written
    out; self times are medians over the traced passes.
    """
    plain = [r.wall_s for r, _ in timed_passes(workload, seed, tally, seconds / 2)]
    traced, totals = [], []
    for result, tracer in timed_passes(workload, seed, tally, seconds / 2, True):
        traced.append(result.wall_s)
        totals.append(tracer.group_totals())
        if len(traced) == 1:
            first, counters, spans = result, tracer.counters, len(tracer.name_ids)
            tracer.write_spans(WORK / workload.name / "spans")
    if not plain or not traced:
        return {}

    def calls(group):
        return totals[0][group][0]

    def self_s(group):
        return statistics.median(t[group][1] for t in totals)

    iterations = first.iterations
    clamped = counters["descent.clamped_steps"]
    metrics = {
        "core.matrix_new.calls": (calls("core.matrix_new"), "count"),
        "core.matrix_new.self_s": (self_s("core.matrix_new"), "s"),
        "core.to_additive.calls": (calls("core.to_additive"), "count"),
        "core.all_defects.calls": (calls("core.all_defects"), "count"),
        "core.all_defects.self_s": (self_s("core.all_defects"), "s"),
        "core.triads_evaluated": (counters["core.triads_evaluated"], "count"),
        "indicators.kii.calls": (calls("indicators.kii"), "count"),
        "indicators.kii.self_s": (self_s("indicators.kii"), "s"),
        "indicators.kii_per_iter": (calls("indicators.kii") / iterations, "count"),
        "gradients.difference.calls": (calls("gradients.difference"), "count"),
        "gradients.difference.self_s": (self_s("gradients.difference"), "s"),
        "gradients.analytic.calls": (calls("gradients.analytic"), "count"),
        "gradients.analytic.self_s": (self_s("gradients.analytic"), "s"),
        "descent.step.self_s": (self_s("descent.step"), "s"),
        "descent.clamp_events": (counters["descent.clamp_events"], "count"),
        "descent.unclamped_step_ratio": ((iterations - clamped) / iterations, "ratio"),
        "descent.run.self_s": (self_s("descent.run"), "s"),
        "descent.iterations": (iterations, "count"),
        "matrixio.format_trace.self_s": (self_s("matrixio.format_trace"), "s"),
        "matrixio.write.self_s": (self_s("matrixio.write"), "s"),
        "matrixio.trace_bytes": (first.trace_bytes, "B"),
        "matrixio.parse_matrix_text.self_s": (self_s("matrixio.parse_matrix_text"), "s"),
        "repro.write_summary_csv.self_s": (self_s("repro.write_summary_csv"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.spans": (spans, "count"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    workload = WORKLOADS[args.workload]
    try:
        if not SRC.is_dir():
            raise BenchError(f"no source tree at {SRC}")
        try:
            expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read expected outputs: {exc}") from None
        tally = Tally(expected[workload.name])
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, args.seed, args.seconds, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "source_sha256": source_digest(),
        "failed_share": tally.failed / max(tally.attempted, 1),
    }
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
