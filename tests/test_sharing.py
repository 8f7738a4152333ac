"""Each subgroup's quotient and Betti numbers are computed once per scenario.

run_scenario builds the simplicial quotient of the whole group once;
cyclic_chain_check and transfer_check share the orbit chain complexes
cached on the action.  No action is transported, every element mapped
onto every vertex of a subdivision: a subgroup that is not admissible has
its generators carried onto its starred complex, built once for each set
of simplices starred (a subgroup that turns what the group turns restricts
the group's), and the quotient loop reads sd(X)/G off the group's own
orbit pass, and carries the group onto sd(X) the same way for a depth-2
quotient.  Each Sylow subgroup is grown once and each fixed subcomplex
built once.  These
tests count those constructions and check that results read from the
caches equal those of a fresh action.
"""

import gc
import json
import sys

import pytest

from conftest import nonabelian_workload, octahedron, subgroup_handles, workload_pass
from test_acceptance import CORPUS_SCENARIOS
from sqh.actions import VertexAction, admissible_subdivision, close_generators, sylow
from sqh.bounds import cyclic_chain_check, smith_floyd_check, transfer_check
from sqh.complexes import SimplicialComplex, chain_complex
from sqh.homology import F2, SparseIntMatrix, betti, prime_factors
from sqh.models import SignedPermutation
from sqh.scenarios import DEFAULT_FIELDS, Scenario, build_model, builtin, run_scenario, sweep_scenarios


def _record_calls(monkeypatch, attr, when=lambda action: True):
    """Actions passed to every call of sqh.actions.<attr> for which `when` holds, wherever it is imported."""
    import sqh.actions

    calls = []
    orig = getattr(sqh.actions, attr)

    def counting(action, *args, **kwargs):
        if when(action):
            calls.append((action.complex, action.elements))
        return orig(action, *args, **kwargs)

    for name in ("sqh.actions", "sqh.bounds", "sqh.scenarios"):
        module = sys.modules[name]
        if vars(module).get(attr) is orig:
            monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def quotient_calls(monkeypatch):
    return _record_calls(monkeypatch, "make_admissible_and_quotient")


@pytest.fixture
def orbit_complex_builds(monkeypatch):
    """Actions whose orbit chain complex is built, not read from the cache."""
    return _record_calls(monkeypatch, "orbit_chain_complex", when=lambda action: action._orbit_complex is None)


@pytest.fixture
def transports(monkeypatch):
    """Each action mapped onto a subdivision, wherever the transport is called from."""
    return _record_calls(monkeypatch, "induced_action_on_subdivision")


@pytest.fixture
def used_actions(monkeypatch):
    """The actions run_scenario builds, kept so checks can run on them afterwards."""
    import sqh.scenarios

    built = []
    orig = sqh.scenarios.build_model

    def keeping(*args, **kwargs):
        bundle = orig(*args, **kwargs)
        built.append(bundle.action)
        return bundle

    monkeypatch.setattr(sqh.scenarios, "build_model", keeping)
    return built


def test_lens72_one_quotient_per_subgroup(quotient_calls):
    run_scenario(builtin("lens", 7, 2))
    # the reported quotient of G; the checks on C_7 = Syl_7 = G use the orbit complex
    assert len(quotient_calls) == len(set(quotient_calls)) == 1


def test_q8_quotients_for_group_and_center(quotient_calls, orbit_complex_builds):
    run_scenario(builtin("quaternion_q8"))
    # the reported quotient row: one simplicial quotient, of G
    assert [len(elements) for _, elements in quotient_calls] == [8]
    # one orbit complex each for G (the reported torsion and transfer) and its centre C_2 (cyclic chain)
    assert len(orbit_complex_builds) == len(set(orbit_complex_builds)) == 2
    orders = sorted(len(elements) for _, elements in orbit_complex_builds)
    assert orders == [2, 8]


def test_restrict_is_cached_and_full_group_is_self():
    action = close_generators(octahedron(), [(3, 4, 5, 0, 1, 2), (1, 0, 2, 4, 3, 5)])
    assert action.restrict(action.full_subgroup()) is action
    sub = action.subgroup(action.closure_indices({1}))
    assert action.restrict(sub) is action.restrict(action.subgroup(sub.indices))
    assert action.restrict(sub).order == sub.order


B3_ON_S2 = Scenario(
    name="b3_on_s2",
    space={
        "signed_permutation": {
            "n": 3,
            "generators": [
                SignedPermutation((2, 1, 3), (-1, 1, 1)).to_json_dict(),
                SignedPermutation((2, 3, 1), (1, 1, 1)).to_json_dict(),
                SignedPermutation((1, 2, 3), (-1, 1, 1)).to_json_dict(),
            ],
        }
    },
    fields=("Q", "Fp:2", "Fp:3"),
    checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
    snf_cap=16384,
)


def _all_checks(action_for, p):
    """Every check at p, the cyclic chain on each subgroup of order p in index order.

    Each check runs on `action_for()`, so a fresh action per check shares nothing.
    """
    action = action_for()
    out = [
        smith_floyd_check(action, sylow(action, action.full_subgroup(), p), p),
        transfer_check(action_for(), p),
    ]
    seen = set()
    for i in range(1, action.order):
        if action.element_order(i) == p:
            indices = action.closure_indices({i})
            if indices not in seen:
                seen.add(indices)
                fresh = action_for()
                out.append(cyclic_chain_check(fresh, fresh.subgroup(indices), p))
    return out


def test_cached_checks_equal_fresh_on_nonfree_b3(used_actions):
    """Stale-key guard: caches filled by a run give the results of fresh actions."""
    run_scenario(B3_ON_S2)
    (used,) = used_actions
    assert used.order == 48
    nonempty_fixed = 0
    for p in (2, 3):
        cached = _all_checks(lambda: used, p)
        fresh = _all_checks(lambda: build_model(B3_ON_S2).action, p)
        assert cached == fresh
        nonempty_fixed += sum(
            1 for c in cached if c.name == "cyclic_chain" and any(c.detail["b_F"])
        )
    assert nonempty_fixed > 0  # the relative-homology path ran


def test_cover_e1_details_share_one_per_j_list():
    report = run_scenario(builtin("lens", 5, 1))
    details = [c["detail"] for c in report["checks"] if c["name"] == "cover_e1"]
    assert len(details) == len(builtin("lens", 5, 1).fields) > 1
    assert all(d["per_J"] is details[0]["per_J"] for d in details)


@pytest.mark.parametrize(
    "scenario",
    [builtin("lens", 7, 2), builtin("quaternion_q8"), *sweep_scenarios(6, 3, 7, DEFAULT_FIELDS, 200_000)[0]],
    ids=lambda sc: sc.name,
)
def test_report_holds_each_fact_once(scenario):
    """The ledger writes each bound's form once and each row only its
    verdict, and leaves the CheckResults to the report's `checks`; the
    checks over the fields share their equal details; a table's rows share
    one torsion list and their equal Betti lists; and each field label is
    one string wherever the report names the field."""
    report = run_scenario(scenario)
    ledger = report["bound_report"]
    assert "checks" not in ledger and report["checks"]
    forms = ledger["forms"]
    for e in ledger["evaluations"]:
        assert set(e) == {"name", "field", "passed", "observed", "form"}
        assert 0 <= e["form"] < len(forms)
    assert len({json.dumps(f, sort_keys=True) for f in forms}) == len(forms)
    # every form is used, and they are listed in the order the rows first use them
    assert list(dict.fromkeys(e["form"] for e in ledger["evaluations"])) == list(range(len(forms)))
    whole = {e["name"] for e in ledger["evaluations"]
             if sum(x["form"] == e["form"] for x in ledger["evaluations"]) == len(scenario.fields)}
    assert {"abelian_3n", "jordan_combined", "jordan_combined_jn"} <= whole
    for name in ("abelian_bound", "cover_e1"):  # a detail names no field
        details = {}
        for c in report["checks"]:
            if c["name"] == name:
                assert details.setdefault(json.dumps(c["detail"], sort_keys=True), c["detail"]) is c["detail"]
    for table in ("betti", "model_betti"):
        assert len({id(row["torsion"]) for row in report[table]}) == 1
        lists = {}
        for row in report[table]:
            assert lists.setdefault(tuple(row["betti"]), row["betti"]) is row["betti"]
    labels = {}
    for row in [*report["betti"], *report["model_betti"], *ledger["evaluations"]]:
        assert labels.setdefault(row["field"], row["field"]) is row["field"]
    assert set(labels) == set(scenario.fields)


def test_chain_complex_verified_once(monkeypatch):
    calls = []
    orig = SparseIntMatrix.compose_is_zero

    def counting(self, other):
        calls.append(1)
        return orig(self, other)

    monkeypatch.setattr(SparseIntMatrix, "compose_is_zero", counting)
    cc = chain_complex(octahedron())
    betti(cc, [F2], order=1)
    betti(cc, [F2])
    assert len(calls) == len(cc.boundaries) - 1


@pytest.mark.parametrize("workload, runs", [("catalog", 55), ("nonabelian", 248), ("sweep", 1472)])
def test_each_rank_is_taken_once_per_matrix_and_field(monkeypatch, workload, runs):
    """Over one seed-7 pass of a benchmark workload the rank kernel runs once
    per (matrix, field): every later ask, by the SNF, by another `betti`
    call or by another check, reads the rank kept on the matrix.  Every
    matrix ranked is kept alive until the count ends, so no id is reused."""
    import sqh.homology

    ranked, keys = [], []
    original = sqh.homology._reduced_rank

    def counting(m, p):
        ranked.append(m)
        keys.append((id(m), p))
        return original(m, p)

    monkeypatch.setattr(sqh.homology, "_reduced_rank", counting)
    for sc in workload_pass(workload, 7):
        run_scenario(sc)
    assert len(keys) == len(set(keys)) == runs


def test_finished_scenarios_leave_no_action_in_a_reference_cycle():
    """Caches must not refer back to their action or complex, or it outlives its scenario.

    All three scenarios subdivide their model, so the flag action of the
    quotient loop is covered.  s4_on_s3 is not admissible, so its group and
    the subgroups that are not admissible keep starred actions, and every
    check fills the Sylow and fixed-subcomplex caches.
    """
    gc.collect()
    gc.disable()
    try:
        run_scenario(builtin("lens", 5, 2))
        run_scenario(builtin("quaternion_q8"))
        run_scenario(S4_ON_S3)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert not [o for o in gc.garbage if isinstance(o, (VertexAction, SimplicialComplex))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _signed_scenario(name, n, generators):
    return Scenario(
        name=name,
        space={"signed_permutation": {"n": n, "generators": [g.to_json_dict() for g in generators]}},
        fields=("Q", "Fp:2", "Fp:3"),
        checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
        snf_cap=16384,
    )


SWAP = SignedPermutation((2, 1, 3, 4), (1, 1, 1, 1))
CYCLE4 = SignedPermutation((2, 3, 4, 1), (1, 1, 1, 1))
FLIP = SignedPermutation((1, 2, 3, 4), (-1, 1, 1, 1))


S4_ON_S3 = _signed_scenario("s4_on_s3", 4, [SWAP, CYCLE4])
B4_ON_S3 = _signed_scenario("b4_on_s3", 4, [SWAP, CYCLE4, FLIP])


@pytest.mark.parametrize("scenario", nonabelian_workload(), ids=lambda sc: sc.name)
def test_only_the_quotient_loop_subdivides_the_whole_model(monkeypatch, used_actions, scenario):
    """Fixed sets and orbit complexes are taken on starred complexes, never on sd(X).

    The quotient loop reads the depth-1 quotient off the model's orbits, so
    sd(X) is built only for a depth-2 quotient, once, for the group carried
    there.  Every `sqh` module that holds `barycentric_subdivision` is
    patched, as the benchmark's tracer patches it, so a call through any of
    them is counted.
    """
    import sqh.complexes

    sources = []
    orig = sqh.complexes.barycentric_subdivision

    def counting(k):
        sources.append(k)
        return orig(k)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sqh" and vars(module).get("barycentric_subdivision") is orig:
            monkeypatch.setattr(module, "barycentric_subdivision", counting)
    depth = run_scenario(scenario)["subdivisions"]
    (used,) = used_actions
    assert sources == ([used.complex] if depth == 2 else [])


@pytest.mark.parametrize("scenario", [S4_ON_S3, B4_ON_S3], ids=lambda sc: sc.name)
def test_cyclic_chain_stars_only_what_c_p_moves(monkeypatch, used_actions, scenario):
    """Each starred set U is starred once, and every check on a subgroup that
    turns exactly U shares that complex: b(Y, F) of the cyclic chain among
    them, on the C_p's own starred complex."""
    import sqh.actions

    starred = []
    orig = sqh.actions.derived_subdivision

    def counting(k, simplices):
        starred.append((k, frozenset(simplices)))
        return orig(k, simplices)

    monkeypatch.setattr(sqh.actions, "derived_subdivision", counting)
    report = run_scenario(scenario)
    (used,) = used_actions
    # the least C_2 and the least C_3 both turn a simplex of the 16-cell boundary
    cyclic = [c for c in report["checks"] if c["name"] == "cyclic_chain"]
    assert [c["inputs"]["subdivisions"] for c in cyclic] == [1, 1]
    handles = [h for h in subgroup_handles(used) if used.restrict(h)._starred is not None]
    assert len(handles) == 4  # G, Syl_2, the least C_2 and Syl_3, the least C_3
    # one construction per U: G and Syl_2 turn the same simplices, so Syl_2 restricts G's starred action
    assert len(starred) == len(set(starred)) == len({id(used.restrict(h)._starred.complex) for h in handles}) == 3
    assert all(k is used.complex for k, _ in starred)
    (syl_2,) = [h for h in handles if h.order < used.order and used.restrict(h)._starred.complex is used._starred.complex]
    assert used.restrict(syl_2)._starred is used._starred.restrict(syl_2)


@pytest.mark.parametrize("scenario", [S4_ON_S3, B4_ON_S3], ids=lambda sc: sc.name)
def test_group_never_transported_and_sylow_grown_once(monkeypatch, used_actions, transports, scenario):
    """The group's starred action, its generators carried onto Y′, serves every check on G; nothing is transported."""
    import sqh.actions

    grown = []
    orig_grow = sqh.actions._grow_sylow

    def counting_grow(action, handle, p):
        grown.append((action.elements, handle.indices, p))
        return orig_grow(action, handle, p)

    monkeypatch.setattr(sqh.actions, "_grow_sylow", counting_grow)
    run_scenario(scenario)
    (used,) = used_actions
    # the 16-cell boundary is not admissible: G acts on its starred complex
    assert transports == []
    assert used._starred is not None and admissible_subdivision(used) is used._starred
    # smith_floyd and transfer share each Sylow subgroup of G
    assert len(grown) == len(set(grown))
    assert sorted(p for _, _, p in grown) == sorted(prime_factors(used.order))


def test_run_scenario_never_transports(transports):
    """No run maps an element onto sd(X): not on the corpus, the nonabelian workload or sweep draws.

    A subgroup that is not admissible has only its generators carried, onto
    its starred complex Y′, and so has the group, onto sd(X), for a depth-2
    quotient.  The sweep sample holds draws that the quotient loop takes to
    depth 2.
    """
    sample, _ = sweep_scenarios(6, 60, 7, DEFAULT_FIELDS, 200_000)
    depths = set()
    for scenario in [*CORPUS_SCENARIOS, *nonabelian_workload(), *sample]:
        depths.add(run_scenario(scenario)["subdivisions"])
    assert transports == []
    assert depths == {0, 1, 2}


def test_fixed_subcomplex_built_once_per_subgroup(monkeypatch, used_actions):
    """On s4_on_s3, Syl_3 is the least C_3, so smith_floyd and cyclic_chain share its fixed set.

    Each subgroup's fixed set is built once, on its starred complex Y′
    (Syl_2's is the group's), and none on X or sd(X).
    """
    import sqh.actions

    builds = []
    orig = sqh.actions.full_subcomplex

    def counting(k, vertices):
        builds.append((k, frozenset(vertices)))
        return orig(k, vertices)

    monkeypatch.setattr(sqh.actions, "full_subcomplex", counting)
    run_scenario(S4_ON_S3)
    (used,) = used_actions
    # Syl_2 (order 8), the least C_2 and Syl_3 = the least C_3, none admissible
    assert len(builds) == len({id(k) for k, _ in builds}) == 3
    starred = {id(used.restrict(h)._starred.complex) for h in subgroup_handles(used) if h.order < used.order}
    assert {id(k) for k, _ in builds} == starred
