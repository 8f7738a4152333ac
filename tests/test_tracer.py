"""The benchmark's tracer (perfbench/spans.py) wraps engine functions by name.

It is loaded from its file and installed around one scenario, so deleting or
renaming a name it patches fails here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import sqh.scenarios
from sqh.actions import make_admissible_and_quotient
from sqh.complexes import chain_complex
from sqh.scenarios import DEFAULT_FIELDS, build_model, builtin, report_bytes, sweep_scenarios
from conftest import nonabelian_workload
from test_sharing import S4_ON_S3

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_around_a_scenario():
    tracer = _spans_module().Tracer()
    scenario = builtin("rp", 2)
    plain = report_bytes(sqh.scenarios.run_scenario(scenario))
    original = sqh.scenarios.run_scenario
    with tracer.installed():
        traced = report_bytes(sqh.scenarios.run_scenario(scenario))
    assert sqh.scenarios.run_scenario is original
    assert traced == plain
    metrics = tracer.metrics()
    assert metrics["scenarios.run_scenario_calls"][0] == 1
    assert metrics["actions.quotient_calls"][0] == 1
    # torsion is on for rp(2): one SNF per boundary matrix of its quotient, none skipped
    assert scenario.snf_cap > 0
    quotient = make_admissible_and_quotient(build_model(scenario).action).complex
    assert metrics["homology.snf_calls"][0] == len(chain_complex(quotient).boundaries) == 3
    assert metrics["homology.snf_skipped"][0] == 0
    # every rational rank is certified, and each call is counted as such
    assert metrics["homology.q_rank_monte_carlo"][0] == 0
    assert metrics["homology.q_rank_certified"][0] == metrics["homology.rank_over_q_calls"][0] > 0
    # the table of checks looks each check up by name when it runs, so every one is traced
    checks = ("smith_floyd", "cyclic_chain", "transfer", "evaluate_all")
    assert [metrics[f"bounds.{name}_calls"][0] for name in checks] == [1, 1, 1, 1]


def test_tracer_counts_no_snf_on_a_sweep_scenario():
    """`snf_cap` 0 asks for no torsion, so no Smith normal form is attempted."""
    tracer = _spans_module().Tracer()
    (scenario,), _ = sweep_scenarios(2, 1, 7, DEFAULT_FIELDS, 200_000)
    assert scenario.snf_cap == 0
    with tracer.installed():
        sqh.scenarios.run_scenario(scenario)
    metrics = tracer.metrics()
    assert metrics["homology.betti_calls"][0] > 0
    assert metrics["homology.snf_calls"][0] == 0
    assert metrics["homology.snf_skipped"][0] == 0


def _traced(scenario):
    """The tracer's metrics for one run, whose report must equal an untraced run's."""
    tracer = _spans_module().Tracer()
    plain = report_bytes(sqh.scenarios.run_scenario(scenario))
    with tracer.installed():
        traced = report_bytes(sqh.scenarios.run_scenario(scenario))
    assert traced == plain
    return tracer.metrics()


def test_tracer_sees_each_cyclic_chain_on_s4():
    """The cyclic chain runs once per prime.  Each subgroup that is not
    admissible acts on its starred complex, and the quotient loop stops at
    depth 1, so the whole model is never subdivided."""
    metrics = _traced(S4_ON_S3)
    assert metrics["bounds.cyclic_chain_calls"][0] == 2
    assert metrics["complexes.subdivide_calls"][0] == 0


def test_tracer_sees_the_subdivision_of_a_depth_two_quotient():
    """The quotient loop calls `barycentric_subdivision` through `sqh.actions`,
    one of the modules the tracer patches, so the model's subdivision, which
    c3_on_s3's quotient loop builds to carry the group there for its depth-2
    quotient, stays in the trace."""
    (scenario,) = [sc for sc in nonabelian_workload() if sc.name == "c3_on_s3"]
    assert _traced(scenario)["complexes.subdivide_calls"][0] == 1
