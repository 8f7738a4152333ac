import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqh.cli import main
from sqh.errors import BoundViolation, InvalidParameter, ResourceCapExceeded
from sqh.scenarios import (
    Scenario,
    builtin,
    predicted_model_size,
    random_character_data,
    report_bytes,
    run_scenario,
    sweep,
    sweep_scenarios,
)
from sqh.models import AbelianCharacterData
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


def test_fixed_subdivision_count_scenario():
    sc = builtin("rp", 2)
    manual = Scenario.from_json_dict({**sc.to_json_dict(), "subdivisions": 2, "checks": []})
    report = run_scenario(manual)
    assert report["subdivisions"] == 2
    assert betti_row(report, "Fp:2")["betti"] == [1, 1, 1]


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
        assert data.ambient_dimension <= 6


def test_sweep_small_run():
    report = sweep(n_max=3, samples=6, seed=11, fields=("Q", "Fp:2", "Fp:3"))
    assert report["passed"] == 6
    assert report["slack"]["min"] >= 1.0
    for row in report["scenarios"]:
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


def test_cli_resource_cap_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("SQH_MAX_SIMPLICES", "10")
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(builtin("lens", 3, 1).to_json_dict()))
    assert main(["run", str(sc_path)]) == 4


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
_DIHEDRAL = ("space", "explicit")


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
        ({**builtin("rp", 2).to_json_dict(), "certified": "no"}, "'certified'"),
        ({**builtin("rp", 2).to_json_dict(), "certified": False}, "'certified'"),
        ({**builtin("rp", 2).to_json_dict(), "snf_cap": -1}, "'snf_cap'"),
        (_replaced(builtin("rp", 2).to_json_dict(), [2, 1], *_RP2_PERM), "'generators[0].perm'"),
        ({**builtin("rp", 2).to_json_dict(), "name": 5}, "'name'"),
        ({**builtin("rp", 2).to_json_dict(), "fields": ["Q", "Q"]}, "'fields'"),
        ({**builtin("rp", 2).to_json_dict(), "fields": ["Q", "Fp:02"]}, "'fields'"),
        ({**builtin("rp", 2).to_json_dict(), "checks": ["transfer", "transfer"]}, "'checks'"),
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
    ],
    ids=["seed", "snf_cap", "space", "no_n", "no_perm", "no_complex",
         "perm_str", "perm_float", "generator_str", "facet_str", "factor_str",
         "subdivisions_bool", "certified_str", "certified_false", "snf_cap_negative", "perm_short",
         "name_int", "fields_repeated", "fields_not_canonical", "checks_repeated",
         "explicit_disc", "explicit_two_edges", "explicit_facet_out_of_range", "explicit_unused_vertex",
         "explicit_no_facets"],
)
def test_cli_malformed_scenario_names_the_field(tmp_path, capsys, data, named):
    assert _run_scenario_file(tmp_path, data) == 2
    assert named in capsys.readouterr().err


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
        (["sweep", "--n-max", "0"], "--n-max"),
        (["sweep", "--samples", "-1"], "--samples"),
        (["sweep", "--jobs", "0"], "--jobs"),
        (["run", "{tmp_path}"], "{tmp_path}"),
        (["sweep", "--max-model-simplices", "1"], "--max-model-simplices"),
        (["builtin", "rp", "2", "--budget", "-1"], "--budget"),
        (["builtin", "rp", "2", "--budget", "nan"], "--budget"),
        (["run", "{tmp_path}", "--budget", "-1"], "--budget"),
        (["run", "{tmp_path}", "--budget", "nan"], "--budget"),
        (["sweep", "--fields", ""], "--fields"),
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
    argv = [a.format(tmp_path=tmp_path) for a in argv]
    assert _exit_code(argv) == 2
    assert named.format(tmp_path=tmp_path) in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "perm, code, named",
    [([2, 1], 2, "'generators[0].perm'"), ([*range(2, 41), 1], 4, "cap")],
    ids=["short_perm", "valid_perm"],
)
def test_cli_signed_permutation_past_the_cap_fails_before_building(tmp_path, perm, code, named):
    # the 40-cross-polytope has 2^40 facets and 3^40 - 1 simplices
    data = _replaced(
        builtin("rp", 2).to_json_dict(),
        {"n": 40, "generators": [{"perm": perm, "signs": [1] * len(perm)}]},
        "space", "signed_permutation",
    )
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


def test_cli_forced_depth_past_the_cap_exit_code(tmp_path, monkeypatch, capsys):
    # rp(2)'s first subdivision has 146 simplices, its second 866
    monkeypatch.setenv("SQH_MAX_SIMPLICES", "146")
    data = {**builtin("rp", 2).to_json_dict(), "subdivisions": 2}
    assert _run_scenario_file(tmp_path, data) == 4
    assert "cap 146" in capsys.readouterr().err


def test_cli_forced_depth_without_simplicial_quotient_exit_code(tmp_path, capsys):
    data = {**builtin("rp", 2).to_json_dict(), "subdivisions": 0}
    assert _run_scenario_file(tmp_path, data) == 2
    assert "lie in different orbits" in capsys.readouterr().err
