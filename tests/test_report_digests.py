"""Report bytes pinned by sha256 on the acceptance corpus, the nonabelian
workload and the first 20 draws of the seed-7 sweep.

The digests in report_digests.json were taken from a known-good engine.  A
change that moves any report byte fails here and prints the new digests;
when the change is intended, record them in report_digests.json with it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import nonabelian_workload
from sqh.scenarios import DEFAULT_FIELDS, report_bytes, run_scenario, sweep_scenarios
from test_acceptance import CORPUS_SCENARIOS, corpus_report

PINNED = json.loads((Path(__file__).resolve().parent / "report_digests.json").read_text())


def _reports(group: str) -> list:
    if group == "corpus":
        return [(sc.name, corpus_report(sc)) for sc in CORPUS_SCENARIOS]
    if group == "nonabelian":
        scenarios = nonabelian_workload()
    else:  # the stream is drawn in order, so these are the first 20 of any longer sweep
        scenarios = sweep_scenarios(6, 20, 7, DEFAULT_FIELDS, 200_000)[0]
    return [(sc.name, run_scenario(sc)) for sc in scenarios]


@pytest.mark.parametrize("group", ["corpus", "nonabelian", "sweep"])
def test_report_digests_are_pinned(group):
    digests = {name: hashlib.sha256(report_bytes(report)).hexdigest() for name, report in _reports(group)}
    changed = {name: d for name, d in digests.items() if PINNED[group].get(name) != d}
    assert digests.keys() == PINNED[group].keys() and not changed, (
        f"{group} reports differ from report_digests.json; the new digests are\n"
        + json.dumps(changed, indent=2, sort_keys=True)
    )
