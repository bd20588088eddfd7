"""Record the expected output of every job the benchmark can run.

    python3 perfbench/record.py

Runs repro.run_all once and every pool variant of every seeded job slot
once, and writes the observations to perfbench/expected.json.  The file
pins the outputs of the commit it was recorded at; run this again only for
a change that is meant to alter pcreduce's outputs, and say why.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import HERE, WORK, import_pcreduce
from workloads import WORKLOADS


def main() -> int:
    pc = import_pcreduce()
    expected = {}
    for name, workload in WORKLOADS.items():
        jobs = workload.pool()
        (WORK / name).mkdir(parents=True, exist_ok=True)
        state = workload.setup(pc, jobs, WORK / name)
        result = workload.run_pass(pc, state, jobs, WORK / name / "out")
        errors = {k: o for k, o in result.observations.items() if "error" in o}
        if errors:
            print(f"{name}: jobs raised: {errors}", file=sys.stderr)
            return 1
        expected[name] = result.observations
        print(f"{name}: {len(jobs)} jobs, {result.iterations} iterations, {result.wall_s:.2f} s")
    # at this commit the identity columns are the whole file
    summary = WORK / "repro16" / "out" / "summary.csv"
    whole = hashlib.sha256(summary.read_bytes()).hexdigest()
    if expected["repro16"]["run_all"]["summary_identity_sha256"] != whole:
        print("summary.csv has columns beyond the identity columns", file=sys.stderr)
        return 1
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
