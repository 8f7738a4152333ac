"""Report bytes pinned by sha256 on the acceptance corpus, the nonabelian
workload, the first 20 draws of the seed-7 sweep, the benchmark's seed-7
sweep pass (its anchor included) and two large groups on S^4 (B_5, of order
3840, the largest under the element cap, and S_5), and the scenario JSON of
builtins at parameters the corpus does not use.

The digests in report_digests.json were taken from a known-good engine.  A
change that moves any report byte fails here and prints the new digests;
when the change is intended, record them in report_digests.json with it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import nonabelian_workload, workload_pass
from sqh.scenarios import DEFAULT_FIELDS, Scenario, builtin, report_bytes, run_scenario, sweep_scenarios
from test_acceptance import CORPUS_SCENARIOS, corpus_report

PINNED = json.loads((Path(__file__).resolve().parent / "report_digests.json").read_text())


def _signed(perm, signs=None) -> dict:
    return {"perm": list(perm), "signs": list(signs or (1,) * len(perm))}


# the group work grows with |G|, so these check it where it is largest
LARGE_GROUPS = (
    ("b5_on_s4", [_signed((2, 1, 3, 4, 5)), _signed((2, 3, 4, 5, 1)), _signed((1, 2, 3, 4, 5), (-1, 1, 1, 1, 1))]),
    ("s5_on_s4", [_signed((2, 1, 3, 4, 5)), _signed((2, 3, 4, 5, 1))]),
)


def large_group_scenarios() -> list:
    return [
        Scenario(
            name=name,
            space={"signed_permutation": {"n": 5, "generators": gens}},
            fields=("Q", "Fp:2", "Fp:3"),
            checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
            snf_cap=16384,
        )
        for name, gens in LARGE_GROUPS
    ]


def _reports(group: str) -> list:
    if group == "corpus":
        return [(sc.name, corpus_report(sc)) for sc in CORPUS_SCENARIOS]
    if group == "nonabelian":
        scenarios = nonabelian_workload()
    elif group == "sweep_pass":
        scenarios = workload_pass("sweep", 7)
    elif group == "large_groups":
        scenarios = large_group_scenarios()
    else:  # the stream is drawn in order, so these are the first 20 of any longer sweep
        scenarios = sweep_scenarios(6, 20, 7, DEFAULT_FIELDS, 200_000)[0]
    return [(sc.name, run_scenario(sc)) for sc in scenarios]


@pytest.mark.parametrize("group", ["corpus", "nonabelian", "sweep", "sweep_pass", "large_groups"])
def test_report_digests_are_pinned(group):
    digests = {name: hashlib.sha256(report_bytes(report)).hexdigest() for name, report in _reports(group)}
    changed = {name: d for name, d in digests.items() if PINNED[group].get(name) != d}
    assert digests.keys() == PINNED[group].keys() and not changed, (
        f"{group} reports differ from report_digests.json; the new digests are\n"
        + json.dumps(changed, indent=2, sort_keys=True)
    )


# sha256 of the sorted-key JSON of `builtin(*params).to_json_dict()`
BUILTIN_JSON = {
    ("rp", 1): "1b518ad36195dd7b48fe40f58aff7f275957c7581472471873c48fa58d1882f0",
    ("lens", 2): "106efeb3391a579a7bd9f85d74b6598bfcd48e51f1214b054d165d368ac799b8",
    ("lens", 12, 5): "2abd0f7f388e2c95b9f3fb274e081406fb84cdf958159bd801c7006c86e731ac",
    ("lens", 13, 5): "b04360e69d5ef02d4d552605f8c0f1190a1b20331c521a63ffcda1e10c0b6828",
    ("dihedral_on_s1", 7): "ca65fc3c2cdf8b1da63470a32853e8fbd855097eab6054eddb297361b47324da",
    ("trivial_sphere", 1): "6e287fc437ca0a151a4d93e40c661d40ea374c3291d9b27c392fe7cfb907c7f5",
    ("trivial_sphere", 5): "85008fef72148cd0b86fe2fd3392ea994877539d9deefc774c9c291937608f74",
}


@pytest.mark.parametrize("params", BUILTIN_JSON, ids=lambda p: "-".join(map(str, p)))
def test_builtin_scenario_json_is_pinned(params):
    """A builtin's fields, checks and snf_cap, which the benchmark's reference is keyed on, at parameters the corpus lacks."""
    scenario_json = json.dumps(builtin(*params).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(scenario_json.encode("utf-8")).hexdigest() == BUILTIN_JSON[params], scenario_json
