"""The benchmark's correctness gate (perfbench/gate.py) on its seed-7 workloads.

gate.py and workloads.py are loaded from their files as they are.  Every
seed-7 catalog, nonabelian and sweep report must match its recorded
reference in perfbench/reference.json, torsion included where both sides
report it, and the gate must reject tampered references, so a change to a
reported number, or to the sweep's route, fails here and not only in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sqh.scenarios import run_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load("gate")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("workload", ["catalog", "nonabelian", "sweep"])
def test_seed7_reports_match_the_reference(gate, workloads, workload):
    reference = gate.load_reference()
    scenarios, rejected = workloads.scenarios(workload, 7)
    assert scenarios and (rejected == 0 or workload == "sweep")
    if workload == "sweep":
        assert len(scenarios) == 102
    for sc in scenarios:
        report = run_scenario(sc)
        problems, found = gate.check(sc, report, reference)
        assert found, f"{sc.name}: no recorded reference"
        assert problems == [], sc.name
        # the gate compares torsion only where both sides report it: the sweep
        # takes none (snf_cap 0) and records none, the other workloads both
        torsion = reference[gate.scenario_key(sc)]["torsion"]
        assert (torsion is None) == (workload == "sweep"), sc.name
        assert gate.invariants(report)["torsion"] == torsion, sc.name
        assert gate.tampered_references_fail(sc, report) == [], sc.name


def test_gate_self_test_passes(gate, workloads, monkeypatch):
    # the self-test imports `workloads` by name, as it does when run from perfbench/
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    assert gate._self_test() == 0
