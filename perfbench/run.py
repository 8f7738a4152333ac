"""Benchmark for sqh: time whole workloads, or trace the layers inside them.

    python3 perfbench/run.py --workload catalog --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from ./src.  With
--trace 0 the workload's scenarios are run in whole passes, one after another
in this process, until --seconds have elapsed (at least one pass), and the
end-to-end metrics are medians over the passes.  With --trace 1 exactly one
pass runs under the tracer, the per-layer metrics are reported and the spans
are written to .perfbench/spans-<workload>-<seed>.jsonl.  Every
report is checked by the correctness gate (gate.py) in both modes.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Set-up is timed in fresh child processes, several times, and
reported as the median.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
import gate
import workloads

SETUP_PROBES = 11
SPANS_DIR = bootstrap.SRC.parent / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args) -> int:
    """Child process: import sqh and build the scenario list, print the seconds."""
    t0 = time.perf_counter()
    import sqh.scenarios  # noqa: F401  (the import is what is timed)

    workloads.scenarios(args.workload, args.seed)
    print(time.perf_counter() - t0)
    return 0


def setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_pass(scenarios, run_scenario) -> dict:
    """Run every scenario once; reports and errors are kept for the gate."""
    results = []
    c0, t0 = time.process_time(), time.perf_counter()
    for sc in scenarios:
        s0 = time.perf_counter()
        try:
            report, error = run_scenario(sc), None
        except Exception as e:  # a failing scenario is counted, not fatal
            report, error = None, f"{type(e).__name__}: {e}"
        results.append((sc, report, error, time.perf_counter() - s0))
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0, "results": results}


def gate_results(results, reference, log) -> tuple:
    """(failed scenarios, scenarios compared with a recorded reference)."""
    failed = hits = 0
    for sc, report, error, _ in results:
        problems, found = ([error], False) if error else gate.check(sc, report, reference)
        hits += found
        if problems:
            failed += 1
            log(f"FAILED {sc.name}: {problems}")
    return failed, hits


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        bootstrap.require_sqh()
    except bootstrap.MissingSources as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)

    import sqh.scenarios

    def log(msg):
        print(msg, file=sys.stderr)

    setup = setup_seconds(args) if not args.trace else None
    scenarios, rejected = workloads.scenarios(args.workload, args.seed)
    reference = gate.load_reference()

    passes = []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            passes.append(run_pass(scenarios, sqh.scenarios.run_scenario))
    else:
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(scenarios, sqh.scenarios.run_scenario))

    results = [r for p in passes for r in p["results"]]
    failed, hits = gate_results(results, reference, log)
    first = next((r for r in results if r[1] is not None), None)
    missed = gate.tampered_references_fail(first[0], first[1]) if first else ["no report to test on"]
    if missed:
        log(f"gate self-test: tampered references not rejected: {missed}")
    log(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(scenarios)} scenarios, "
        f"{failed} failed, {hits}/{len(results)} matched a recorded reference")

    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (passes[0]["wall"], "s")
        metrics["scenarios.sweep_rejected_draws"] = (rejected, "count")
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
            "max_scenario_s": (statistics.median(max(r[3] for r in p["results"]) for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:<10} {name:<40} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not missed,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
