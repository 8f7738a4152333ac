"""Each subgroup's quotient and Betti numbers are computed once per scenario.

run_scenario builds the simplicial quotient of the whole group once;
cyclic_chain_check and transfer_check share the orbit chain complexes
cached on the action.  No element is ever mapped onto a subdivision: the
orbits of the first subdivision are read off each group's own orbit pass.
Each Sylow subgroup is grown once and each fixed subcomplex built once.
These tests count those constructions and check that results read from the
caches equal those of a fresh action.
"""

import gc
import sys

import pytest

from conftest import nonabelian_workload, octahedron
from test_acceptance import CORPUS_SCENARIOS
from sqh.actions import FlagAction, VertexAction, close_generators, sylow
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
            if isinstance(action, FlagAction):  # known by the complex it subdivides and the group's elements there
                calls.append((action.source, action.below.elements))
            else:
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


def test_finished_scenarios_leave_no_action_in_a_reference_cycle():
    """Caches must not refer back to their action or complex, or it outlives its scenario.

    All three scenarios subdivide their model, so the complex's cached
    subdivision is covered.  s4_on_s3 is not admissible, so its group and
    the subgroups that are not admissible keep flag actions, and every
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


@pytest.mark.parametrize("scenario", [S4_ON_S3, B4_ON_S3], ids=lambda sc: sc.name)
def test_model_subdivided_once_per_scenario(monkeypatch, scenario):
    """Every subgroup's fixed set and relative homology share the model's subdivision.

    The quotient loop reads the depth-1 quotient off the model's orbits and builds none.
    """
    import sqh.complexes

    sources = []
    orig = sqh.complexes.barycentric_subdivision

    def counting(k):
        sources.append(k.f_vector())
        return orig(k)

    monkeypatch.setattr(sqh.complexes, "barycentric_subdivision", counting)
    run_scenario(scenario)
    # the 16-cell boundary, whose action is not admissible; nothing else is subdivided
    assert sources == [(8, 24, 32, 16)]


@pytest.mark.parametrize("scenario", [S4_ON_S3, B4_ON_S3], ids=lambda sc: sc.name)
def test_group_never_transported_and_sylow_grown_once(monkeypatch, used_actions, transports, scenario):
    """The flag action read off the group's own orbit pass serves every check; nothing is transported."""
    import sqh.actions

    grown = []
    orig_grow = sqh.actions._grow_sylow

    def counting_grow(action, handle, p):
        grown.append((action.elements, handle.indices, p))
        return orig_grow(action, handle, p)

    monkeypatch.setattr(sqh.actions, "_grow_sylow", counting_grow)
    run_scenario(scenario)
    (used,) = used_actions
    # the 16-cell boundary is not admissible: its orbits of flags come from the group's orbits
    assert transports == []
    assert used._flag_action is not None
    # smith_floyd and transfer share each Sylow subgroup of G
    assert len(grown) == len(set(grown))
    assert sorted(p for _, _, p in grown) == sorted(prime_factors(used.order))


def test_run_scenario_never_transports(transports):
    """No run maps an element onto a subdivision: not on the corpus, the nonabelian workload or sweep draws.

    The sweep sample holds draws that the quotient loop takes to depth 2.
    """
    sample, _ = sweep_scenarios(6, 60, 7, DEFAULT_FIELDS, 200_000)
    depths = set()
    for scenario in [*CORPUS_SCENARIOS, *nonabelian_workload(), *sample]:
        depths.add(run_scenario(scenario)["subdivisions"])
    assert transports == []
    assert depths == {0, 1, 2}


def test_fixed_subcomplex_built_once_per_subgroup(monkeypatch):
    """On s4_on_s3, Syl_3 is the least C_3, so smith_floyd and cyclic_chain share its fixed set."""
    import sqh.actions

    builds = []
    orig = sqh.actions.full_subcomplex

    def counting(k, vertices):
        builds.append((k, frozenset(vertices)))
        return orig(k, vertices)

    monkeypatch.setattr(sqh.actions, "full_subcomplex", counting)
    run_scenario(S4_ON_S3)
    # Syl_2 (order 8), the least C_2 and Syl_3 = the least C_3
    assert len(builds) == len(set(builds)) == 3
