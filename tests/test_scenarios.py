import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqh.scenarios
from sqh.cli import main
from sqh.errors import BoundViolation, InvalidParameter, ResourceCapExceeded
from sqh.scenarios import (
    Scenario,
    build_model,
    builtin,
    predicted_model_size,
    random_character_data,
    report_bytes,
    run_scenario,
    sweep,
    sweep_scenarios,
)
from sqh.models import AbelianCharacterData, block_model
from test_report_digests import large_group_scenarios
import random

_SRC = Path(__file__).resolve().parent.parent / "src"


def betti_row(report, label):
    return next(r for r in report["betti"] if r["field"] == label)


def test_builtin_lens_definition():
    sc = builtin("lens", 5, 2)
    data = sc.space["character_join"]
    assert data["invariant_factors"] == [5]
    assert data["rotation_characters"] == [[1], [2]]
    assert "Fp:5" in sc.fields and "Q" in sc.fields


def test_builtin_rp2_shape():
    sc = builtin("rp", 2)
    payload = sc.space["signed_permutation"]
    assert payload["n"] == 3
    assert payload["generators"][0]["signs"] == [-1, -1, -1]


def test_builtin_unknown_name():
    with pytest.raises(InvalidParameter):
        builtin("binary_icosahedral")
    with pytest.raises(InvalidParameter):
        builtin("lens", 4, 2)


def test_builtin_q8_runs_with_expected_betti():
    report = run_scenario(builtin("quaternion_q8"))
    assert report["model"]["group_order"] == 8
    assert betti_row(report, "Fp:2")["betti"] == [1, 2, 2, 1]
    assert betti_row(report, "Q")["betti"] == [1, 0, 0, 1]
    assert betti_row(report, "Fp:3")["betti"] == [1, 0, 0, 1]
    assert betti_row(report, "Fp:2")["torsion"][1] == [2, 2]
    assert report["bound_report"]["all_passed"] is True


def test_builtin_lens51_report():
    report = run_scenario(builtin("lens", 5, 1))
    assert report["subdivisions"] == 2
    assert betti_row(report, "Fp:5")["betti"] == [1, 1, 1, 1]
    assert betti_row(report, "Q")["betti"] == [1, 0, 0, 1]
    assert betti_row(report, "Fp:2")["betti"] == [1, 0, 0, 1]
    assert betti_row(report, "Fp:5")["torsion"] == [[], [5], [], []]


def test_builtin_rp3_report():
    report = run_scenario(builtin("rp", 3))
    assert betti_row(report, "Fp:2")["betti"] == [1, 1, 1, 1]
    assert betti_row(report, "Q")["betti"] == [1, 0, 0, 1]


def test_builtin_dihedral_explicit_path():
    report = run_scenario(builtin("dihedral_on_s1", 5))
    assert report["model"]["group_order"] == 10
    assert report["model"]["kind"] == "explicit"
    for label in ("Q", "Fp:2", "Fp:3"):
        assert sum(betti_row(report, label)["betti"]) >= 1
    assert report["bound_report"]["all_passed"] is True


def test_explicit_facets_are_canonicalised_on_input():
    # reversed, repeated and nested facets are sorted, merged and dropped before anything runs
    sc = builtin("dihedral_on_s1", 5)
    data = sc.to_json_dict()
    facets = data["space"]["explicit"]["complex"]["facets"]
    noisy = _replaced(data, [f[::-1] for f in facets] + [[0], [3], facets[0]], *_DIHEDRAL, "complex", "facets")
    report, plain = run_scenario(Scenario.from_json_dict(noisy)), run_scenario(sc)
    del report["scenario"], plain["scenario"]
    assert report_bytes(report) == report_bytes(plain)


def test_builtin_trivial_sphere():
    report = run_scenario(builtin("trivial_sphere", 3))
    assert report["subdivisions"] == 0
    assert betti_row(report, "Q")["betti"] == [1, 0, 1]


def test_scenario_round_trip_and_validation():
    sc = builtin("rp", 2)
    blob = sc.to_json_dict()
    assert Scenario.from_json_dict(blob) == sc
    with pytest.raises(InvalidParameter):
        Scenario.from_json_dict({**blob, "space": {}})
    with pytest.raises(InvalidParameter):
        Scenario.from_json_dict({**blob, "fields": []})
    with pytest.raises(InvalidParameter):
        Scenario.from_json_dict({**blob, "checks": ["nonsense"]})
    two = {**blob, "space": {"signed_permutation": {}, "explicit": {}}}
    with pytest.raises(InvalidParameter):
        Scenario.from_json_dict(two)
    missing = dict(blob)
    del missing["name"]
    with pytest.raises(InvalidParameter):
        Scenario.from_json_dict(missing)


def test_report_determinism_three_scenarios():
    for args in (("rp", 2), ("lens", 3, 1), ("quaternion_q8",)):
        sc = builtin(*args)
        b1 = report_bytes(run_scenario(sc))
        b2 = report_bytes(run_scenario(sc))
        assert b1 == b2


def test_run_scenario_budget_cap():
    with pytest.raises(ResourceCapExceeded):
        run_scenario(builtin("rp", 2), budget=0.0)


@pytest.mark.parametrize("budget", [-1.0, float("nan")], ids=["negative", "nan"])
def test_run_scenario_rejects_malformed_budget(budget):
    with pytest.raises(InvalidParameter, match="budget"):
        run_scenario(builtin("rp", 2), budget=budget)


def test_simplex_cap_env(monkeypatch):
    monkeypatch.setenv("SQH_MAX_SIMPLICES", "10")
    with pytest.raises(ResourceCapExceeded):
        run_scenario(builtin("lens", 3, 1))


def test_predicted_model_size_matches_actual():
    from sqh.actions import make_admissible_and_quotient
    from sqh.complexes import barycentric_subdivision
    from sqh.models import character_join_model

    for data in (
        AbelianCharacterData((5,), ((1,), (1,)), ()),
        AbelianCharacterData((2,), ((1,),), ((1,),)),
        AbelianCharacterData((4, 2), ((1, 1),), ((0, 1),)),
    ):
        model = character_join_model(data)
        res = make_admissible_and_quotient(model.action)
        sphere = model.action.complex
        for _ in range(res.subdivisions):
            sphere = barycentric_subdivision(sphere).complex
        actual = sum(sphere.f_vector())
        assert res.simplices_after == actual
        assert predicted_model_size(data) >= actual  # forecast never undershoots the real run


def test_sweep_generator_deterministic():
    a, rej_a = sweep_scenarios(4, 10, 99, ("Q", "Fp:2"), 200_000)
    b, rej_b = sweep_scenarios(4, 10, 99, ("Q", "Fp:2"), 200_000)
    assert [s.to_json_dict() for s in a] == [s.to_json_dict() for s in b]
    assert rej_a == rej_b


def test_sweep_generator_distribution_shape():
    rng = random.Random(5)
    for _ in range(50):
        data = random_character_data(rng, 6)
        assert 1 <= data.factor_count <= 3
        assert all(2 <= m <= 12 for m in data.invariant_factors)
        assert 1 <= data.block_count
        assert 2 * data.rotation_count + data.sign_count <= 6


def test_sweep_small_run():
    report = sweep(n_max=3, samples=6, seed=11, fields=("Q", "Fp:2", "Fp:3"))
    assert report["schema"] == "sweep_report_v2"
    assert report["passed"] == 6
    assert report["slack"]["min"] >= 1.0
    for row in report["scenarios"]:
        assert "effective_order" not in row  # it was group_order again
        worst = max(row["totals"].values())
        assert worst <= row["cover_e1_total"] <= 3 ** row["n"]
    again = sweep(n_max=3, samples=6, seed=11, fields=("Q", "Fp:2", "Fp:3"))
    assert report_bytes(report) == report_bytes(again)


def test_sweep_zero_samples():
    report = sweep(n_max=4, samples=0, seed=1)
    assert report["passed"] == 0
    assert report["slack"]["min"] is None


def test_sweep_pool_matches_serial():
    kwargs = dict(n_max=3, samples=6, seed=11, fields=("Q", "Fp:2", "Fp:3"))
    assert report_bytes(sweep(**kwargs, jobs=2)) == report_bytes(sweep(**kwargs, jobs=1))


@pytest.mark.parametrize("cpus, workers", [(4, 4), (64, 6), (None, None)], ids=["cpus", "samples", "unknown_cpus"])
def test_sweep_jobs_are_bounded_by_cpus_and_samples(monkeypatch, cpus, workers):
    """A pool forks every worker at its first submit, so --jobs 1000 must not ask for 1000.

    The pool is a fake that maps in this process: no worker is started.
    """
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    kwargs = dict(n_max=3, samples=6, seed=11, fields=("Q", "Fp:2", "Fp:3"))
    assert report_bytes(sweep(**kwargs, jobs=1000)) == report_bytes(sweep(**kwargs, jobs=1))
    # an unknown CPU count means one: the sweep runs serially, with no pool
    assert asked == ([workers] if workers else [])


# run in a child with a timeout, so a guard that redraws forever fails the test
_GUARD_BELOW_TWO = (
    "from sqh.errors import InvalidParameter\n"
    "from sqh.scenarios import sweep, sweep_scenarios\n"
    "for call in (lambda: sweep_scenarios(2, 1, 0, ('Q',), 1),\n"
    "             lambda: sweep(n_max=2, samples=1, seed=0, max_model_simplices=1)):\n"
    "    try:\n"
    "        call()\n"
    "    except InvalidParameter as e:\n"
    "        assert 'max_model_simplices' in str(e), e\n"
    "    else:\n"
    "        raise SystemExit('guard below 2 accepted')\n"
)


def test_sweep_rejects_guard_below_two():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_BELOW_TWO], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_sweep_caps_n_max():
    with pytest.raises(InvalidParameter):
        sweep(n_max=7, samples=1, seed=0)
    with pytest.raises(InvalidParameter):
        sweep(n_max=0, samples=1, seed=0)


@pytest.mark.parametrize("call, named", [
    (lambda: sweep(2.5, 1, 0), "'n_max'"),
    (lambda: sweep(True, 1, 0), "'n_max'"),
    (lambda: sweep_scenarios(2.5, 1, 0, ("Q",), 1000), "'n_max'"),
    (lambda: sweep_scenarios(True, 1, 0, ("Q",), 1000), "'n_max'"),
    (lambda: sweep_scenarios(7, 1, 0, ("Q",), 1000), "n_max <= 6"),
    (lambda: sweep_scenarios(2, 2.5, 0, ("Q",), 1000), "'samples'"),
    (lambda: sweep_scenarios(2, True, 0, ("Q",), 1000), "'samples'"),
    (lambda: sweep_scenarios(2, -1, 0, ("Q",), 1000), "'samples'"),
], ids=["sweep_n_max_float", "sweep_n_max_bool", "stream_n_max_float", "stream_n_max_bool", "stream_n_max_seven",
        "stream_samples_float", "stream_samples_bool", "stream_samples_negative"])
def test_sweep_stream_checks_n_max_and_samples(call, named):
    """The stream refuses what `sweep` refuses: no float or bool is used as a count, and no negative is read as 0."""
    with pytest.raises(InvalidParameter, match=named):
        call()


def test_cli_run_and_out(tmp_path, capsys):
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(builtin("rp", 2).to_json_dict()))
    out_path = tmp_path / "report.json"
    code = main(["run", str(sc_path), "--out", str(out_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["schema"] == "run_report_v1"
    assert out_path.read_bytes() == stdout.encode()


def test_cli_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize(
    "content, named",
    [
        (b"\xff\xfe{}", "not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
        (b"{not json", "parse error at line 1, column 2"),
    ],
    ids=["utf16_bom", "deeply_nested", "not_json"],
)
def test_cli_unreadable_scenario_file_names_it(tmp_path, capsys, content, named):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and named in err


def test_cli_unknown_builtin(capsys):
    assert main(["builtin", "binary_icosahedral"]) == 2


def test_cli_builtin_wrong_parameter_count(capsys):
    assert main(["builtin", "rp", "2", "3"]) == 2
    err = capsys.readouterr().err
    assert "builtin rp expects `rp [n]`, got 2 parameters" in err
    assert main(["builtin", "lens"]) == 2
    assert "`lens p [q]`" in capsys.readouterr().err
    assert main(["builtin", "quaternion_q8", "1"]) == 2
    assert "`quaternion_q8`" in capsys.readouterr().err


def test_cli_dihedral_past_the_factor_cap_exits_2(capsys):
    # the explicit route's cost grows about as m^3: m = 2000 took minutes
    assert main(["builtin", "dihedral_on_s1", "65"]) == 2
    assert "3 <= m <= 64" in capsys.readouterr().err
    assert main(["builtin", "dihedral_on_s1", "2"]) == 2
    assert builtin("dihedral_on_s1", 64).name == "dihedral_on_s1(64)"


def test_builtin_parameter_defaults():
    assert builtin("rp").name == "rp(2)"
    assert builtin("lens", 5).name == "lens(5,1)"
    assert builtin("dihedral_on_s1").name == "dihedral_on_s1(5)"
    assert builtin("trivial_sphere").name == "trivial_sphere(3)"
    with pytest.raises(InvalidParameter):
        builtin("lens", 5, 2, 1)


@pytest.mark.parametrize("params, named", [
    (("rp", 2.7), "'n'"),
    (("rp", "x"), "'n'"),
    (("rp", True), "'n'"),
    (("lens", 5, 2.0), "'q'"),
    (("dihedral_on_s1", None), "'m'"),
])
def test_builtin_parameter_that_is_not_an_integer_is_refused(params, named):
    with pytest.raises(InvalidParameter, match=named):
        builtin(*params)


@pytest.mark.parametrize("seed", ["x", 1.5, True])
def test_scenario_seed_that_is_not_an_integer_is_refused(seed):
    """The seed is checked where a scenario is made, so every scenario that runs can be replayed from its JSON."""
    with pytest.raises(InvalidParameter, match="'seed'"):
        Scenario(name="a", space=builtin("rp", 2).space, fields=("Q",), seed=seed)


def test_field_label_that_is_not_a_string_is_refused():
    with pytest.raises(InvalidParameter, match="'fields'"):
        Scenario(name="a", space=builtin("rp", 2).space, fields=("Q", 5))
    with pytest.raises(InvalidParameter, match="'fields'"):
        sweep(n_max=2, samples=0, seed=0, fields=("Q", 5))


@pytest.mark.parametrize("kwargs, named", [
    ({"checks": "transfer"}, "'checks'"),
    ({"fields": "Q"}, "'fields'"),
    ({"fields": "Fp:2"}, "'fields'"),
], ids=["checks_string", "fields_q", "fields_fp2"])
def test_scenario_checks_or_fields_that_are_not_a_list_are_refused(kwargs, named):
    """A string is refused as a whole, by its field, not read label by label or stored."""
    with pytest.raises(InvalidParameter, match=f"field {named} must be a list, got"):
        Scenario(**{"name": "a", "space": builtin("rp", 2).space, "fields": ("Q",), **kwargs})


@pytest.mark.parametrize("kwargs, named", [
    ({"fields": "Q"}, "'fields' must be a list, got 'Q'"),
    ({"samples": -3}, "'samples'"),
    ({"samples": 2.5}, "'samples'"),
    ({"samples": True}, "'samples'"),
    ({"jobs": 0}, "'jobs'"),
    ({"jobs": -5}, "'jobs'"),
    ({"jobs": 1.5}, "'jobs'"),
    ({"jobs": True}, "'jobs'"),
], ids=["fields_string", "samples_negative", "samples_float", "samples_bool", "jobs_zero", "jobs_negative",
        "jobs_float", "jobs_bool"])
def test_sweep_refuses_a_malformed_argument_before_drawing(monkeypatch, kwargs, named):
    def no_draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(sqh.scenarios, "random_character_data", no_draw)
    with pytest.raises(InvalidParameter, match=named):
        sweep(**{"n_max": 2, "samples": 2, "seed": 0, "jobs": 1, **kwargs})


# values that no outside keyword should take at face value
_POOL = (None, True, 1.5, float("nan"), "x", -1, [], 10**30)
# each outside keyword of `sweep`, `sweep_scenarios` and `run_scenario`: a cheap valid value,
# and the positions in _POOL of the values it accepts (10**30 samples is valid, so it is not drawn)
_KEYWORDS = {
    "n_max": (1, ()),
    "samples": (1, (7,)),
    "seed": (0, (5, 7)),
    "fields": (("Q",), ()),
    "jobs": (1, (7,)),
    "max_model_simplices": (200_000, (7,)),
    "budget": (None, (0, 2, 7)),
}
_STREAM_KEYWORDS = ("n_max", "samples", "seed", "fields", "max_model_simplices")
_OUTSIDE_CALLS = {
    "sweep": (
        (*_STREAM_KEYWORDS, "jobs"),
        lambda kw: sweep(**{k: kw[k] for k in (*_STREAM_KEYWORDS, "jobs")}),
    ),
    "sweep_scenarios": (_STREAM_KEYWORDS, lambda kw: sweep_scenarios(*(kw[k] for k in _STREAM_KEYWORDS))),
    "run_scenario": (("budget",), lambda kw: run_scenario(builtin("rp", 1), budget=kw["budget"])),
}


def test_every_outside_keyword_is_accepted_or_refused_by_name():
    """Each keyword, drawn from _POOL with the others valid, either runs or raises
    InvalidParameter naming it; no other exception escapes.  `samples` stays at 0
    or 1, so no process pool starts, whatever `jobs` is."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = [(name, key) for name, (keys, _) in _OUTSIDE_CALLS.items() for key in keys]

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(st.sampled_from(cases), st.sampled_from(range(len(_POOL))), st.sampled_from((0, 1)))
    def check(case, index, samples):
        name, keyword = case
        hypothesis.assume(not (keyword == "samples" and index == 7))
        kwargs = {k: valid for k, (valid, _) in _KEYWORDS.items()}
        kwargs.update({"samples": samples, keyword: _POOL[index]})
        call = _OUTSIDE_CALLS[name][1]
        if index in _KEYWORDS[keyword][1]:
            call(kwargs)
        else:
            with pytest.raises(InvalidParameter, match=f"field '{keyword}'"):
                call(kwargs)

    check()


@pytest.mark.parametrize("call, named", [
    (lambda: sweep(2, 0, 0, max_model_simplices="x"), "'max_model_simplices'"),
    (lambda: sweep_scenarios(2, 0, 0, ("Q",), 2.5), "'max_model_simplices'"),
    (lambda: sweep(2, 0, "x"), "'seed'"),
    (lambda: run_scenario(builtin("rp", 2), budget="1"), "'budget'"),
    (lambda: run_scenario(builtin("rp", 2), budget=True), "'budget'"),
], ids=["sweep_guard_string", "stream_guard_float", "sweep_seed_string", "run_budget_string", "run_budget_bool"])
def test_python_api_refuses_what_the_cli_parser_used_to(call, named):
    """Values the CLI's argparse types once refused before the engine saw them."""
    with pytest.raises(InvalidParameter, match=named):
        call()


def test_cli_emit_scenario(capsys):
    assert main(["builtin", "lens", "7", "2", "--emit-scenario"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "scenario_v1"
    assert payload["space"]["character_join"]["rotation_characters"] == [[1], [2]]


def test_cli_bound_violation_exit_code(tmp_path, capsys, monkeypatch):
    import sqh.cli as cli

    def boom(*a, **k):
        raise BoundViolation("forced", dump={"schema": "bound_report_v1"})

    monkeypatch.setattr(cli, "run_scenario", boom)
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(builtin("rp", 2).to_json_dict()))
    assert main(["run", str(sc_path)]) == 3
    assert "bound_report_v1" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [None, ("transfer",)], ids=["all_checks", "transfer_alone"])
def test_bound_violation_dump_replays_the_run(tmp_path, capsys, monkeypatch, checks):
    """A failed check aborts the run with one dump shape, with or without evaluate_all,
    and the dump's scenario reads back as the scenario that failed."""

    import sqh.bounds

    transfer_check = sqh.bounds.transfer_check
    monkeypatch.setattr(
        sqh.bounds, "transfer_check", lambda *a: dataclasses.replace(transfer_check(*a), passed=False)
    )
    sc = builtin("rp", 2)
    if checks is not None:
        sc = dataclasses.replace(sc, checks=checks)
    with pytest.raises(BoundViolation) as err:
        run_scenario(sc)
    dump = err.value.dump
    assert set(dump) == {"scenario", "checks", "bound_report"}
    assert Scenario.from_json_dict(dump["scenario"]) == sc
    assert [c["name"] for c in dump["checks"] if not c["passed"]] == ["transfer"]
    if checks is None:
        assert dump["bound_report"]["all_passed"] is False
    else:
        assert dump["bound_report"] is None

    assert _run_scenario_file(tmp_path, sc.to_json_dict()) == 3
    message, payload = capsys.readouterr().err.split("\n", 1)
    assert "['transfer']" in message
    assert json.loads(payload)["scenario"] == dump["scenario"]


def test_cli_engine_fault_exits_5_with_the_scenario(capsys, monkeypatch):
    """A failed engine cross-check, here Bredon's depth-2 check on lens(5,2)
    with one flag orbit too many counted in the top degree, exits 5: the
    message names the check, and the scenario that replays the run follows."""
    import sqh.actions

    count = sqh.actions.flag_orbit_counts
    monkeypatch.setattr(sqh.actions, "flag_orbit_counts", lambda data: (*count(data)[:-1], count(data)[-1] + 1))
    assert main(["builtin", "lens", "5", "2"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    message, payload = err.split("\n", 1)
    assert message.startswith("engine fault: the depth-2 quotient is not simplicial, against Bredon")
    assert Scenario.from_json_dict(json.loads(payload)["scenario"]) == builtin("lens", 5, 2)


def test_cli_resource_cap_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("SQH_MAX_SIMPLICES", "10")
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(builtin("lens", 3, 1).to_json_dict()))
    assert main(["run", str(sc_path)]) == 4


@pytest.mark.parametrize("checks, stages", [
    (None, ("build_model", "model_betti", "quotient", "quotient_betti", "checks", "evaluate_all")),
    (("abelian_bound", "transfer"), ("build_model", "model_betti", "quotient", "quotient_betti", "checks")),
], ids=["with_ledger", "without_ledger"])
def test_timing_stages_in_run_order(checks, stages):
    sc = builtin("lens", 5, 2)
    if checks is not None:
        sc = dataclasses.replace(sc, checks=checks)
    timing = run_scenario(sc, with_timings=True)["timing"]
    assert tuple(timing) == stages
    assert all(t >= 0 for t in timing.values())


def test_cli_timings_flag(tmp_path, capsys):
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(builtin("trivial_sphere", 2).to_json_dict()))
    assert main(["run", str(sc_path), "--timings"]) == 0
    with_timings = json.loads(capsys.readouterr().out)
    assert with_timings["timing"] is not None
    assert main(["run", str(sc_path)]) == 0
    without = json.loads(capsys.readouterr().out)
    assert without["timing"] is None


def _run_scenario_file(tmp_path, data) -> int:
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    return main(["run", str(path)])


def test_cli_fields_not_a_list_names_the_field(tmp_path, capsys):
    data = {**builtin("rp", 2).to_json_dict(), "fields": 5}
    assert _run_scenario_file(tmp_path, data) == 2
    assert "field 'fields'" in capsys.readouterr().err


def test_cli_bad_field_label_names_the_field(tmp_path, capsys):
    data = {**builtin("rp", 2).to_json_dict(), "fields": ["Fp:x"]}
    assert _run_scenario_file(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "field 'fields'" in err and "'Fp:x'" in err


def test_cli_character_join_without_sign_characters_names_the_field(tmp_path, capsys):
    data = builtin("lens", 5, 1).to_json_dict()
    del data["space"]["character_join"]["sign_characters"]
    assert _run_scenario_file(tmp_path, data) == 2
    assert "'sign_characters'" in capsys.readouterr().err


def _without(data, *path):
    """data with the key at the end of `path` removed (in place; returns data)."""
    node = data
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


def _replaced(data, value, *path):
    """data with the entry at the end of `path` set to value (in place; returns data)."""
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


_RP2_PERM = ("space", "signed_permutation", "generators", 0, "perm")
_SIGNED = ("space", "signed_permutation")
_DIHEDRAL = ("space", "explicit")


def _character_join(factors, rotations, signs) -> dict:
    """lens(5, 2) with its character data replaced."""
    return _replaced(
        builtin("lens", 5, 2).to_json_dict(),
        {"invariant_factors": factors, "rotation_characters": rotations, "sign_characters": signs},
        "space", "character_join",
    )


@pytest.mark.parametrize(
    "data, named",
    [
        ({**builtin("rp", 2).to_json_dict(), "seed": "x"}, "'seed'"),
        ({**builtin("rp", 2).to_json_dict(), "snf_cap": "big"}, "'snf_cap'"),
        ({**builtin("rp", 2).to_json_dict(), "space": 5}, "'space'"),
        (_without(builtin("rp", 2).to_json_dict(), "space", "signed_permutation", "n"), "'n'"),
        (_without(builtin("rp", 2).to_json_dict(), "space", "signed_permutation", "generators", 0, "perm"),
         "'perm'"),
        (_without(builtin("dihedral_on_s1", 5).to_json_dict(), "space", "explicit", "complex"), "'complex'"),
        (_replaced(builtin("rp", 2).to_json_dict(), [1, "a", 3], *_RP2_PERM), "'perm[1]'"),
        (_replaced(builtin("rp", 2).to_json_dict(), [2.0, 1, 3], *_RP2_PERM), "'perm[0]'"),
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(), [1, "a", 0], *_DIHEDRAL, "generators", 0),
         "'generators[0][1]'"),
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(), [0, "b"], *_DIHEDRAL, "complex", "facets", 0),
         "'facets[0][1]'"),
        (_replaced(builtin("lens", 5, 2).to_json_dict(), ["a"], "space", "character_join", "invariant_factors"),
         "'invariant_factors[0]'"),
        ({**builtin("rp", 2).to_json_dict(), "subdivisions": True}, "'subdivisions'"),
        # the depth is no input: the quotient is taken at the least simplicial depth
        ({**builtin("rp", 2).to_json_dict(), "subdivisions": 0}, "'subdivisions'"),
        ({**builtin("rp", 2).to_json_dict(), "subdivisions": 2}, "'subdivisions'"),
        ({**builtin("rp", 2).to_json_dict(), "schema": "nope"}, "'schema'"),
        ({**builtin("rp", 2).to_json_dict(), "certified": "no"}, "'certified'"),
        ({**builtin("rp", 2).to_json_dict(), "certified": False}, "'certified'"),
        ({**builtin("rp", 2).to_json_dict(), "snf_cap": -1}, "'snf_cap'"),
        (_replaced(builtin("rp", 2).to_json_dict(), [2, 1], *_RP2_PERM), "'generators[0].perm'"),
        ({**builtin("rp", 2).to_json_dict(), "name": 5}, "'name'"),
        ({**builtin("rp", 2).to_json_dict(), "fields": ["Q", "Q"]}, "'fields'"),
        ({**builtin("rp", 2).to_json_dict(), "fields": ["Q", "Fp:02"]}, "'fields'"),
        ({**builtin("rp", 2).to_json_dict(), "checks": ["transfer", "transfer"]}, "'checks'"),
        # cover_e1 reads the character data of a character_join model
        ({**builtin("rp", 2).to_json_dict(), "checks": ["cover_e1"]}, "'checks'"),
        # explicit complexes that are not spheres: a disc under C_3, and two edges with b = (2, 0)
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(),
                   {"complex": {"vertex_count": 3, "facets": [[0, 1, 2]]}, "generators": [[1, 2, 0]]},
                   *_DIHEDRAL), "'complex'"),
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(),
                   {"complex": {"vertex_count": 4, "facets": [[0, 1], [2, 3]]}, "generators": [[2, 3, 0, 1]]},
                   *_DIHEDRAL), "'complex'"),
        # a facet past vertex_count: the validating constructor refuses it
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(),
                   {"complex": {"vertex_count": 3, "facets": [[0, 1], [1, 2], [0, 7]]}, "generators": [[1, 2, 0]]},
                   *_DIHEDRAL), "facet (0, 7) out of range [0, 3)"),
        # a triangle's boundary on 3 of 3,000,000 vertices: the group's vertex tuples would be that long
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(),
                   {"complex": {"vertex_count": 3_000_000, "facets": [[0, 1], [1, 2], [0, 2]]}, "generators": []},
                   *_DIHEDRAL), "'vertex_count'"),
        # no facets: no sphere, not even S^-1
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(),
                   {"complex": {"vertex_count": 0, "facets": []}, "generators": []},
                   *_DIHEDRAL), "field 'facets' must hold at least one nonempty facet"),
        (_replaced(builtin("trivial_sphere", 2).to_json_dict(), 0, *_SIGNED, "n"), "field 'n'"),
        (_replaced(builtin("trivial_sphere", 2).to_json_dict(), -1, *_SIGNED, "n"), "field 'n'"),
        (_replaced(builtin("rp", 2).to_json_dict(), [-1, -1], *_RP2_PERM[:-1], "signs"),
         "generator 0: field 'signs'"),
        (_replaced(builtin("rp", 2).to_json_dict(),
                   {"n": 2, "generators": [{"perm": [1, 1], "signs": [1, 1]}]}, *_SIGNED),
         "generator 0: field 'perm'"),
        (_character_join([-3], [[1]], []), "field 'invariant_factors[0]'"),
        (_character_join([128], [[1]], []), "field 'invariant_factors[0]'"),
        (_character_join([5], [[1], [2, 0]], []), "field 'rotation_characters[1]'"),
        (_character_join([4], [], [[1, 0]]), "field 'sign_characters[0]'"),
        (_character_join([4], [], [[2]]), "field 'sign_characters[0][0]'"),
        (_character_join([2, 3], [], [[1, 1]]), "field 'sign_characters[0][1]'"),
        (_character_join([4], [], []), "fields 'rotation_characters' and 'sign_characters'"),
        (_character_join([2], [], [[1]] * 9), "fields 'rotation_characters' and 'sign_characters'"),
        # a key no part of the scenario reads is refused by name, at every level, not dropped
        ({**builtin("rp", 2).to_json_dict(), "snfcap": 16384}, "scenario has unknown field 'snfcap'"),
        ({**builtin("rp", 2).to_json_dict(), "subdivision": 2}, "scenario has unknown field 'subdivision'"),
        ({**builtin("rp", 2).to_json_dict(), "space": {"signed_permutations": {}}},
         "space has unknown field 'signed_permutations'"),
        (_replaced(builtin("lens", 5, 2).to_json_dict(), 1, "space", "character_join", "signs"),
         "character_join has unknown field 'signs'"),
        (_replaced(builtin("rp", 2).to_json_dict(), 3, *_SIGNED, "order"),
         "signed_permutation has unknown field 'order'"),
        (_replaced(builtin("rp", 2).to_json_dict(), [1, 1, 1], *_SIGNED, "generators", 0, "sign"),
         "signed_permutation generator 0 has unknown field 'sign'"),
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(), [], *_DIHEDRAL, "generator"),
         "explicit has unknown field 'generator'"),
        (_replaced(builtin("dihedral_on_s1", 5).to_json_dict(), 1, *_DIHEDRAL, "complex", "dimension"),
         "explicit complex has unknown field 'dimension'"),
    ],
    ids=["seed", "snf_cap", "space", "no_n", "no_perm", "no_complex",
         "perm_str", "perm_float", "generator_str", "facet_str", "factor_str",
         "subdivisions_bool", "subdivisions_zero", "subdivisions_two", "schema_unknown",
         "certified_str", "certified_false", "snf_cap_negative", "perm_short",
         "name_int", "fields_repeated", "fields_not_canonical", "checks_repeated", "cover_e1_not_character_join",
         "explicit_disc", "explicit_two_edges", "explicit_facet_out_of_range", "explicit_unused_vertex",
         "explicit_no_facets", "n_zero", "n_negative", "signs_short", "perm_repeated",
         "factor_negative", "factor_past_cap", "rotation_character_long", "sign_character_long",
         "sign_character_two", "sign_character_odd_order", "no_blocks", "blocks_past_cap",
         "unknown_scenario_key", "unknown_scenario_key_near_a_known_one", "unknown_space_variant",
         "unknown_character_join_key",
         "unknown_signed_permutation_key", "unknown_generator_key", "unknown_explicit_key",
         "unknown_complex_key"],
)
def test_cli_malformed_scenario_names_the_field(tmp_path, capsys, monkeypatch, data, named):
    built = []
    build_model = sqh.scenarios.build_model
    monkeypatch.setattr(sqh.scenarios, "build_model", lambda sc: built.append(sc) or build_model(sc))
    assert _run_scenario_file(tmp_path, data) == 2
    assert named in capsys.readouterr().err
    # refused before any model is built
    if named in ("'checks'", "'subdivisions'", "'schema'") or named.startswith(("scenario has", "space has")):
        assert not built


@pytest.mark.parametrize("sc", [builtin("rp", 2), builtin("lens", 5, 2), builtin("dihedral_on_s1", 5)],
                         ids=lambda sc: sc.kind)
def test_every_key_the_scenario_writes_is_read_back(sc):
    """The key check refuses nothing that `to_json_dict` writes, `schema` included, at any level."""
    blob = json.loads(json.dumps(sc.to_json_dict()))
    assert "schema" in blob
    assert Scenario.from_json_dict(blob) == sc
    assert build_model(Scenario.from_json_dict(blob)).action.order == build_model(sc).action.order


def _explicit_quotient(sc: Scenario, fields) -> dict:
    """The simplicial quotient of a built-in scenario as explicit input, with no generators."""
    from sqh.actions import make_admissible_and_quotient
    from sqh.scenarios import build_model

    q = make_admissible_and_quotient(build_model(sc).action).complex
    data = builtin("dihedral_on_s1", 5).to_json_dict()
    data["name"] = f"explicit {sc.name}"
    data["space"] = {"explicit": {
        "complex": {"vertex_count": q.vertex_count, "facets": [list(f) for f in q.facets]},
        "generators": [],
    }}
    data["fields"] = list(fields)
    return data


@pytest.mark.parametrize(
    "sc, fields, degree",
    [(builtin("rp", 3), ["Q"], 2), (builtin("lens", 7, 1), ["Q", "Fp:2", "Fp:3", "Fp:5"], 2)],
    ids=["rp3_over_q", "lens71_default_fields"],
)
def test_explicit_complex_with_integral_torsion_is_refused(tmp_path, capsys, sc, fields, degree):
    """RP^3 and L(7,1) pass the sphere check over these fields, but their
    torsion (Z/2 and Z/7 in H_1) breaks the transfer that lets |G| = 1
    bound the quotient's torsion, so a torsion run refuses them."""
    data = _explicit_quotient(sc, fields)
    assert _run_scenario_file(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "field 'complex' is not certified free of integral torsion" in err
    assert f"the +-1 reduction of d_{degree} leaves" in err
    # without torsion nothing needs the certificate, and no torsion is reported
    report = run_scenario(Scenario.from_json_dict({**data, "snf_cap": 0}))
    assert report["betti"][0]["torsion"] is None


def _exit_code(argv) -> int:
    """main's return code, or the code argparse exits with on a bad flag."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sweep", "--n-max", "0"], "'n_max'"),
        (["sweep", "--samples", "-1"], "'samples'"),
        (["sweep", "--jobs", "0"], "'jobs'"),
        (["run", "{tmp_path}"], "{tmp_path}"),
        (["sweep", "--max-model-simplices", "1"], "'max_model_simplices'"),
        (["builtin", "rp", "2", "--budget", "-1"], "'budget'"),
        (["builtin", "rp", "2", "--budget", "nan"], "'budget'"),
        (["run", "{scenario}", "--budget", "-1"], "'budget'"),
        (["run", "{scenario}", "--budget", "nan"], "'budget'"),
        (["sweep", "--fields", ""], "'fields'"),
        # refused before any scenario is built, so also with no samples
        (["sweep", "--samples", "0", "--fields", "Fp:4"], "'fields'"),
        (["sweep", "--samples", "0", "--fields", "Q,Q"], "'fields'"),
        (["sweep", "--samples", "0", "--fields", "Fp:04"], "'fields'"),
        (["sweep", "--samples", "0", "--fields", "Fp:05"], "'fields'"),
    ],
    ids=["n_max_zero", "samples_negative", "jobs_zero", "run_directory", "guard_below_two",
         "builtin_budget_negative", "builtin_budget_nan", "run_budget_negative", "run_budget_nan",
         "sweep_fields_empty", "sweep_fields_not_prime", "sweep_fields_repeated", "sweep_fields_padded_not_prime",
         "sweep_fields_not_canonical"],
)
def test_cli_malformed_argument_names_it(tmp_path, capsys, argv, named):
    """The CLI only parses, so a value in range for argparse is refused by the engine, which names its field."""
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps(builtin("rp", 2).to_json_dict()))
    argv = [a.format(tmp_path=tmp_path, scenario=scenario) for a in argv]
    assert _exit_code(argv) == 2
    assert named.format(tmp_path=tmp_path) in capsys.readouterr().err


def test_sweep_bounds_of_n_max_come_from_one_check(capsys):
    """n_max = 0 and n_max = 7 are refused by the same check, with the same message."""
    messages = []
    for n_max in ("0", "7"):
        assert _exit_code(["sweep", "--n-max", n_max]) == 2
        messages.append(capsys.readouterr().err.replace(n_max, "N"))
    assert messages[0] == messages[1] == "invalid input: field 'n_max' must satisfy 1 <= n_max <= 6, got N\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "{scenario}", "--budget", "nan"], "'budget'"),
        (["sweep", "--n-max", "0"], "'n_max'"),
        (["builtin", "rp", "2", "--budget", "-1"], "'budget'"),
    ],
    ids=["run", "sweep", "builtin"],
)
def test_cli_entry_point_refuses_a_malformed_flag(tmp_path, argv, named):
    """`python -m sqh.cli`, as a user runs it: exit 2, the field named, and no traceback."""
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps(builtin("rp", 2).to_json_dict()))
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "sqh.cli", *(a.format(scenario=scenario) for a in argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("raw", ["-5", "abc"], ids=["negative", "not_an_integer"])
def test_cli_malformed_simplex_cap_names_it(monkeypatch, capsys, raw):
    monkeypatch.setenv("SQH_MAX_SIMPLICES", raw)
    assert _exit_code(["builtin", "rp", "2"]) == 2
    assert "SQH_MAX_SIMPLICES" in capsys.readouterr().err


# caps the child's address space, so a model built before its size is checked fails here
_LIMITED_MAIN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from sqh.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _boundary_of_simplex(n: int) -> dict:
    """∂Δ^n on n + 1 vertices, as explicit facets, with the trivial group: 2^(n+1) - 2 simplices."""
    facets = [list(f) for f in itertools.combinations(range(n + 1), n)]
    return {"explicit": {"complex": {"vertex_count": n + 1, "facets": facets}, "generators": []}}


@pytest.mark.parametrize("snf_cap", [0, 16384], ids=["no_torsion", "torsion"])
def test_trivial_group_quotient_is_the_model_ranked_once(monkeypatch, snf_cap):
    """X/1 is X: for an explicit ∂Δ^6 with no generators the quotient's table is
    taken on the model's own chain complex, and each boundary matrix is reduced
    over Z once, for the model and the quotient alike."""
    import collections

    import sqh.actions
    import sqh.homology

    chains = {"model": [], "quotient": []}
    reduced = collections.Counter()
    for module, key in ((sqh.actions, "model"), (sqh.scenarios, "quotient")):
        def recording(chain, fields, _betti=module.betti, _key=key, **kwargs):
            chains[_key].append(chain)
            return _betti(chain, fields, **kwargs)

        monkeypatch.setattr(module, "betti", recording)
    eliminate = sqh.homology._eliminate

    def counting(m, *args, **kwargs):
        if kwargs.get("pivot_rows") is not None:  # the unit reduction over Z
            reduced[id(m)] += 1
        return eliminate(m, *args, **kwargs)

    monkeypatch.setattr(sqh.homology, "_eliminate", counting)
    data = {**builtin("rp", 2).to_json_dict(), "space": _boundary_of_simplex(6), "checks": [], "snf_cap": snf_cap}
    report = run_scenario(Scenario.from_json_dict(data))
    (model,), (quotient,) = chains["model"], chains["quotient"]
    assert quotient is model
    assert reduced == {id(m): 1 for m in model.boundaries}
    assert report["quotient_f_vector"] == list(model.ranks)


def _cross_polytope_40(perm) -> dict:
    """rp(2) moved to the 40-cross-polytope: 2^40 facets and 3^40 - 1 simplices."""
    return {"signed_permutation": {"n": 40, "generators": [{"perm": perm, "signs": [1] * len(perm)}]}}


@pytest.mark.parametrize(
    "space, code, named",
    [
        (_cross_polytope_40([2, 1]), 2, "'generators[0].perm'"),
        (_cross_polytope_40([*range(2, 41), 1]), 4, "simplices (cap 2000000)"),
        # six 64-gons: 64^6 facets, within the block and factor caps
        ({"character_join": {"invariant_factors": [64], "rotation_characters": [[1]] * 6, "sign_characters": []}},
         4, "simplices (cap 2000000)"),
        # 3^(10^12) - 1 simplices: neither that count nor a list of 10^12 blocks fits in memory
        ({"signed_permutation": {"n": 10**12, "generators": []}}, 4, "simplices (cap 2000000)"),
        # more blocks than a C index can count
        ({"signed_permutation": {"n": 10**30, "generators": []}}, 4, "simplices (cap 2000000)"),
        # 2^30 - 2 simplices, and a face lattice of more than 1 GB
        (_boundary_of_simplex(29), 4, "faces (cap 2000000)"),
        # one facet of 2^20000 - 1 faces, a count past the digits an int may print
        ({"explicit": {"complex": {"vertex_count": 20000, "facets": [list(range(20000))]}, "generators": []}},
         4, "2^20000 - 1 faces (cap 2000000)"),
    ],
    ids=["short_perm", "valid_perm", "character_join", "many_blocks", "blocks_past_an_index", "explicit_lattice",
         "explicit_facet"],
)
def test_cli_signed_permutation_past_the_cap_fails_before_building(tmp_path, space, code, named):
    data = {**builtin("rp", 2).to_json_dict(), "space": space}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    env = {k: v for k, v in os.environ.items() if k != "SQH_MAX_SIMPLICES"}
    env["PYTHONPATH"] = str(_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, "run", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code
    assert named in proc.stderr


def test_cli_depth_past_the_cap_exit_code(tmp_path, monkeypatch, capsys):
    # rp(2)'s quotient is not simplicial at depth 0, and its first subdivision has 146 simplices
    monkeypatch.setenv("SQH_MAX_SIMPLICES", "145")
    assert _run_scenario_file(tmp_path, builtin("rp", 2).to_json_dict()) == 4
    assert "cap 145" in capsys.readouterr().err


@pytest.mark.parametrize("cap, code, named", [
    (62, 0, None),
    (61, 4, "the complex's face lattice already has 62 simplices (cap 61)"),
    (30, 4, "a facet of the complex has 5 vertices, so 2^5 - 1 faces (cap 30)"),
], ids=["within", "lattice_count", "largest_facet"])
def test_cli_explicit_face_lattice_is_counted_against_the_cap(tmp_path, monkeypatch, capsys, cap, code, named):
    # ∂Δ^5 has 62 simplices, and each of its facets 31
    monkeypatch.setenv("SQH_MAX_SIMPLICES", str(cap))
    data = {**builtin("rp", 2).to_json_dict(), "space": _boundary_of_simplex(5)}
    assert _run_scenario_file(tmp_path, data) == code
    if named:
        assert named in capsys.readouterr().err


def _large_group(name: str) -> dict:
    return next(sc for sc in large_group_scenarios() if sc.name == name).to_json_dict()


@pytest.mark.parametrize("name, size, named", [
    # |sd(X)| of the 5-cross-polytope, which bounds the depth-1 quotient, sd(X) and every Y′
    ("b5_rotations_on_s4", 24482, "sd(X) would have 24482 simplices"),
    # the depth-2 quotient, counted before it is built; sd²(X), which is not built, has 2911682
    ("b5_coxeter_on_s4", 291169, "the depth-2 quotient would have 291169 simplices"),
])
def test_cli_cap_names_the_complex_the_run_builds(tmp_path, monkeypatch, capsys, name, size, named):
    monkeypatch.setenv("SQH_MAX_SIMPLICES", str(size))
    assert _run_scenario_file(tmp_path, _large_group(name)) == 0
    capsys.readouterr()
    monkeypatch.setenv("SQH_MAX_SIMPLICES", str(size - 1))
    assert _run_scenario_file(tmp_path, _large_group(name)) == 4
    assert f"{named} (cap {size - 1})" in capsys.readouterr().err


@pytest.mark.parametrize("lengths, generators, named", [
    # the Heisenberg group mod 3 on a join of three triangles: sd(X) is built, its quotient is not
    ((3, 3, 3), [[(0, 0), (1, 1), (2, 2)], [(1, 0), (2, 0), (0, 0)]],
     "the depth-2 quotient would have 4734216 simplices (cap 2000000)"),
    # C_7 ⋊ C_3 on a join of three heptagons: sd(X) itself is past the cap
    ((7, 7, 7), [[(0, 1), (1, 2), (2, 4)], [(1, 0), (2, 0), (0, 0)]],
     "sd(X) would have 2259964 simplices (cap 2000000)"),
], ids=["heisenberg_mod_3", "c7_by_c3"])
def test_cli_block_groups_past_the_cap_name_what_would_be_built(
    tmp_path, monkeypatch, capsys, lengths, generators, named
):
    monkeypatch.delenv("SQH_MAX_SIMPLICES", raising=False)
    action = block_model(lengths, generators)
    gens = [list(action.elements[g]) for g in action.generator_indices]
    space = {"explicit": {"complex": action.complex.to_json_dict(), "generators": gens}}
    assert _run_scenario_file(tmp_path, {**builtin("rp", 2).to_json_dict(), "space": space}) == 4
    assert named in capsys.readouterr().err
