"""Correctness gate for the benchmark's scenario reports.

A report passes when
  * its invariant outputs equal the reference recorded for the same scenario
    input (Betti numbers per field, model Betti numbers, torsion wherever both
    sides report it, every check's verdict, every evaluate_all row's verdict
    and observed value), and
  * it satisfies properties that need no reference: b(F_p) = b(Q) for every
    prime p not dividing |G|, b(F_p) >= b(Q) degreewise, the rational Betti
    numbers of S^{n-1}/G are those of a point or of S^{n-1}, the model is a
    sphere over every field, and every check and hard bound passed.

Fields that the planned orbit-complex pipeline will redefine
(quotient_f_vector, simplices_after, subdivisions, schema) are not compared.

    python3 perfbench/gate.py --record      rewrite reference.json from this tree
    python3 perfbench/gate.py --self-test   check that tampered references fail
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RECORD_SEEDS = tuple(range(0, 11))


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def scenario_key(scenario) -> str:
    """Digest of the scenario's input, so a reference never matches other input."""
    return _digest(scenario.to_json_dict())


def invariants(report: dict) -> dict:
    """The outputs a later engine must reproduce exactly.

    Betti numbers and torsion are kept as they are; the model Betti numbers,
    every check's verdict and every evaluate_all row's verdict and observed
    value are kept as one digest, which keeps the reference small."""
    bound = report["bound_report"] or {"evaluations": []}
    verdicts = {
        "model_betti": {row["field"]: row["betti"] for row in report["model_betti"]},
        "checks": [
            [c["name"], c["inputs"].get("p", c["inputs"].get("field")), c["passed"]]
            for c in report["checks"]
        ],
        "bounds": [[e["name"], e["field"], e["passed"], e["observed"]] for e in bound["evaluations"]],
    }
    return {
        "betti": {row["field"]: row["betti"] for row in report["betti"]},
        "torsion": report["betti"][0]["torsion"],
        "verdicts": _digest(verdicts),
    }


def compare(expected: dict, got: dict) -> list:
    """Differences between a reference entry and a report's invariants."""
    problems = []
    if expected["betti"] != got["betti"]:
        problems.append(f"betti: expected {expected['betti']}, got {got['betti']}")
    if None not in (expected["torsion"], got["torsion"]) and expected["torsion"] != got["torsion"]:
        problems.append(f"torsion: expected {expected['torsion']}, got {got['torsion']}")
    if expected["verdicts"] != got["verdicts"]:
        problems.append("model Betti numbers, check verdicts or evaluate_all rows differ from the reference")
    return problems


def intrinsic_problems(report: dict) -> list:
    """Properties every correct report has, whatever the scenario."""
    problems = []
    n = report["model"]["ambient_n"]
    order = report["model"]["group_order"]
    sphere = [2] if n == 1 else [1] + [0] * (n - 2) + [1]
    point = [1] + [0] * (n - 1)
    betti = {row["field"]: list(row["betti"]) + [0] * (n - len(row["betti"])) for row in report["betti"]}
    q = betti.get("Q")
    for label, b in betti.items():
        if label == "Q" or q is None:
            continue
        p = int(label[3:])
        if any(bp < bq for bp, bq in zip(b, q)):
            problems.append(f"b({label}) = {b} is below b(Q) = {q}")
        if order % p and b != q:
            problems.append(f"b({label}) = {b} differs from b(Q) = {q} though {p} does not divide |G| = {order}")
    if q is not None and q not in (sphere, point):
        problems.append(f"rational Betti {q} of S^{n - 1}/G is neither a point's nor a sphere's")
    for row in report["model_betti"]:
        if list(row["betti"]) != sphere:
            problems.append(f"model Betti over {row['field']} is {row['betti']}, not S^{n - 1}")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed:
        problems.append(f"checks failed: {failed}")
    if report["bound_report"] is not None and not report["bound_report"]["all_passed"]:
        problems.append("evaluate_all reports a failed hard bound")
    return problems


def load_reference(path: Path = REFERENCE) -> dict:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["scenarios"]


def check(scenario, report: dict, reference: dict) -> tuple:
    """(problems, whether a reference entry was found) for one report."""
    problems = intrinsic_problems(report)
    expected = reference.get(scenario_key(scenario))
    if expected is not None:
        problems += compare(expected, invariants(report))
    return problems, expected is not None


def tampered_references_fail(scenario, report: dict) -> list:
    """Self-test on a real report: each tampered reference must be rejected.

    Returns the tamperings the gate failed to notice (empty when sound)."""
    key = scenario_key(scenario)
    entry = invariants(report)
    missed = ["untampered reference rejected"] if check(scenario, report, {key: entry})[0] else []
    tampered = {"betti": copy.deepcopy(entry), "verdicts": dict(entry, verdicts="tampered")}
    first_field = next(iter(entry["betti"]))
    tampered["betti"]["betti"][first_field][0] += 1
    if entry["torsion"] is not None:
        tampered["torsion"] = copy.deepcopy(entry)
        tampered["torsion"]["torsion"][0].append(7)
    for name, bad in tampered.items():
        if not check(scenario, report, {key: bad})[0]:
            missed.append(name)
    if report["checks"]:
        flipped = copy.deepcopy(report)
        flipped["checks"][0]["passed"] = not flipped["checks"][0]["passed"]
        if not compare(entry, invariants(flipped)):
            missed.append("flipped check verdict")
    broken = copy.deepcopy(report)
    broken["betti"][0]["betti"] = [b + 1 for b in broken["betti"][0]["betti"]]
    if not intrinsic_problems(broken):
        missed.append("intrinsic check on a shifted Betti row")
    return missed


def _record() -> int:
    import workloads
    from sqh.scenarios import run_scenario

    entries = {}
    runs = [("catalog", 7), ("nonabelian", 7)] + [("sweep", s) for s in RECORD_SEEDS]
    for workload, seed in runs:
        scenarios, _ = workloads.scenarios(workload, seed)
        for sc in scenarios:
            key = scenario_key(sc)
            if key in entries:
                continue
            report = run_scenario(sc)
            problems = intrinsic_problems(report)
            if problems:
                print(f"{sc.name}: {problems}", file=sys.stderr)
                return 1
            entries[key] = {"name": sc.name, **invariants(report)}
        print(f"recorded {workload} seed {seed}: {len(entries)} entries", file=sys.stderr)
    lines = ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
        for k, v in sorted(entries.items())
    )
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write('{"schema": "perfbench_reference_v1", "scenarios": {\n' + lines + "\n}}\n")
    return 0


def _self_test() -> int:
    import workloads
    from sqh.scenarios import run_scenario

    scenarios, _ = workloads.scenarios("nonabelian", 7)
    reference = load_reference()
    status = 0
    for sc in scenarios:
        if sc.name not in ("reflection_s2", "d4_on_s2"):
            continue
        report = run_scenario(sc)
        missed = tampered_references_fail(sc, report)
        problems, found = check(sc, report, reference)
        print(f"{sc.name}: reference {'found' if found else 'missing'}, "
              f"problems {problems}, tamperings missed {missed}")
        status |= bool(missed or problems or not found)
    return status


if __name__ == "__main__":
    import bootstrap

    bootstrap.require_sqh()
    if sys.argv[1:] == ["--record"]:
        sys.exit(_record())
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(_self_test())
    print(__doc__, file=sys.stderr)
    sys.exit(2)
