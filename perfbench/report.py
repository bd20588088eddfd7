"""Every metric of every workload in one table, plus the trace self-test.

    python3 perfbench/report.py [--seed 1] [--seconds 40] [--workload NAME ...]

For each workload this runs perfbench/run.py once untraced and twice traced
(each in its own process, same seed), prints every end-to-end metric with
its unit, the failed share, and every per-layer metric of the first traced
run.  It exits 1 if a job failed or if any exact per-layer count (every
metric not measured in seconds) differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
    return json.loads(lines[0])["info"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        info, plain = bench(workload, args.seed, args.seconds, 0)
        _, traced = bench(workload, args.seed, args.seconds, 1)
        _, again = bench(workload, args.seed, args.seconds, 1)
        failed = plain["failed"] + traced["failed"] + again["failed"]
        attempted = plain["attempted"] + traced["attempted"] + again["attempted"]
        print(f"== {workload}  seed {args.seed}  python {info['python']}  "
              f"nproc {info['nproc']}  source {info['source_sha256'][:12]}")
        for name, m in plain["metrics"].items():
            print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'failed_share':36s} {failed / attempted:>16.6g} ratio ({failed}/{attempted} jobs)")
        print("  -- traced")
        for name, m in traced["metrics"].items():
            repeat = ""
            if m["unit"] != "s":
                same = again["metrics"][name]["value"] == m["value"]
                repeat = "  repeats" if same else f"  DIFFERS: {again['metrics'][name]['value']}"
                ok &= same
            print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}{repeat}")
        ok &= failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
