"""Run every workload untraced and traced, and print all metrics by name and unit.

    python3 perfbench/report.py [--seed 7] [--seconds 20] [--workloads catalog,sweep]

Per workload this runs run.py once with --trace 0 and twice with --trace 1.
It prints the end-to-end metrics, failed_frac (failed / attempted), the
tracing overhead (traced wall time minus untraced wall_s), and the per-layer
metrics of the first traced run.  It exits 1 when any run fails the
correctness gate or when a work count differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_UNITS = ("count", "ratio")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workloads.split(","):
        plain = run(workload, args.seed, args.seconds, 0)
        traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        print(f"== {workload} (seed {args.seed})")
        for name, m in sorted(plain["metrics"].items()):
            print(f"  {name:<40} {m['value']:>14.6f} {m['unit']}")
        print(f"  {'failed_frac':<40} {plain['failed'] / plain['attempted']:>14.6f} ratio")
        overhead = traced[0]["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"  {'trace_overhead_s':<40} {overhead:>14.6f} s")
        for name, m in sorted(traced[0]["metrics"].items()):
            print(f"  {name:<40} {m['value']:>14.6f} {m['unit']}")
        unsteady = [
            name for name, m in traced[0]["metrics"].items()
            if m["unit"] in EXACT_UNITS and traced[1]["metrics"][name]["value"] != m["value"]
        ]
        print(f"  counts repeat across two traced runs: {'yes' if not unsteady else unsteady}")
        correct = all(r["correct"] for r in [plain, *traced])
        print(f"  correctness gate: {'passed' if correct else 'FAILED'}")
        if unsteady or not correct:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
