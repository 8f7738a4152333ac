"""The reported quotient and the orbit chain complex, checked against a simplicial oracle.

The oracle subdivides the whole sphere and transports the action k times,
then takes `quotient_complex` of the result, trying depths 0 to 3 until
the quotient is simplicial.  It builds its own subdivisions, so it shares
no orbit data with `make_admissible_and_quotient` or the orbit complex;
and where `make_admissible_and_quotient` reads the orbits one depth down
(`subdivided_quotient`), the oracle reads those of the depth-k sphere
itself.  The reported quotient must equal the oracle's, with the same
depth and sphere size.  For an admissible action, `orbit_chain_complex`
gives the cellular chains of X/G; its Betti numbers (from ranks) and
torsion must equal those of the oracle's quotient, read off the Smith
normal form of that quotient's boundary matrices alone.
"""

from dataclasses import replace

import pytest

from conftest import octahedron, rp2_minimal
from test_acceptance import CORPUS_SCENARIOS
from sqh.actions import (
    VertexAction,
    admissible_subdivision,
    close_generators,
    induced_action_on_subdivision,
    is_admissible,
    make_admissible_and_quotient,
    orbit_betti,
    orbit_chain_complex,
    quotient_complex,
    sylow,
)
from sqh.complexes import barycentric_subdivision, chain_complex, polygon
from sqh.errors import CorruptComplex, NeedsSubdivision
from sqh.homology import F2, F3, F5, RATIONALS, ElementaryDivisors, betti, prime_factors, smith_normal_form
from sqh.scenarios import (
    DEFAULT_FIELDS,
    _least_cp_handle,
    build_model,
    builtin,
    run_scenario,
    sweep_scenarios,
)

FIELDS = (RATIONALS, F2, F3, F5)


def _snf_homology(chain) -> tuple:
    """(Betti numbers per field, torsion per degree) from the elementary divisors alone."""
    divisors = [smith_normal_form(m, cap=max(m.rows, m.cols)) for m in chain.boundaries]
    divisors.append(ElementaryDivisors(()))
    degrees = range(len(chain.ranks))
    rows = []
    for f in FIELDS:
        def rank(k):
            return divisors[k].rank if f.is_rationals else divisors[k].rank_mod(f.p)

        rows.append((f, tuple(chain.ranks[k] - rank(k) - rank(k + 1) for k in degrees)))
    return tuple(rows), tuple(divisors[k + 1].torsion() for k in degrees)


def _simplicial_oracle(action, subdivisions="auto") -> tuple:
    """(depth, quotient, simplices, facets) of the sphere subdivided until its quotient is simplicial.

    Every depth is built: the sphere is subdivided and the action
    transported, and `quotient_complex` is tried on the result, at each
    depth up to 3 for "auto" and at the forced depth only.
    """
    depth = 0
    while True:
        if subdivisions in ("auto", depth):
            try:
                quotient, _ = quotient_complex(action)
                return depth, quotient, sum(action.complex.f_vector()), len(action.complex.facets)
            except NeedsSubdivision:
                if subdivisions != "auto" or depth >= 3:
                    raise
        action = induced_action_on_subdivision(action, barycentric_subdivision(action.complex))
        depth += 1


@pytest.fixture(scope="module")
def oracles():
    """Each case's oracle by key, computed once and shared by the tests of this module."""
    return {}


def _oracle(oracles, key, action, subdivisions="auto") -> tuple:
    if key not in oracles:
        oracles[key] = _simplicial_oracle(action, subdivisions)
    return oracles[key]


def _assert_reported_quotient_matches(oracles, key, action, subdivisions="auto"):
    res = make_admissible_and_quotient(action, subdivisions)
    got = (res.subdivisions, res.complex, res.simplices_after, res.facets_after)
    assert got == _oracle(oracles, key, action, subdivisions)


def _assert_routes_agree(oracles, key, action):
    orbit = betti(orbit_chain_complex(admissible_subdivision(action)), FIELDS, snf_cap=10**9)
    quotient = _oracle(oracles, key, action)[1]
    assert (orbit.entries, orbit.torsion) == _snf_homology(chain_complex(quotient))


def _subgroup_actions(action):
    """The group, its least C_p for each prime p dividing its order, and its Sylow subgroups."""
    full = action.full_subgroup()
    handles = [full]
    for p in prime_factors(action.order):
        handles += [_least_cp_handle(action, p), sylow(action, full, p)]
    return [action.restrict(h) for h in dict.fromkeys(handles)]


def _corpus_cases(scenario):
    for restricted in _subgroup_actions(build_model(scenario).action):
        yield (scenario.name, restricted.elements), restricted


def _sweep_cases():
    scenarios, _ = sweep_scenarios(6, 200, 7, DEFAULT_FIELDS, 200_000)
    for sc in scenarios[:60]:
        yield sc.name, build_model(sc).action


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_reported_quotient_matches_oracle_on_corpus(oracles, scenario):
    for key, action in _corpus_cases(scenario):
        _assert_reported_quotient_matches(oracles, key, action)


def test_reported_quotient_matches_oracle_on_sweep(oracles):
    for key, action in _sweep_cases():
        _assert_reported_quotient_matches(oracles, key, action)


@pytest.mark.parametrize("depth", [1, 2])
def test_reported_quotient_matches_oracle_at_forced_depth(oracles, depth):
    action = build_model(builtin("rp", 2)).action
    _assert_reported_quotient_matches(oracles, ("rp(2)", depth), action, depth)


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_orbit_complex_matches_simplicial_quotient_on_corpus(oracles, scenario):
    for key, action in _corpus_cases(scenario):
        _assert_routes_agree(oracles, key, action)


def test_orbit_complex_matches_simplicial_quotient_on_sweep(oracles):
    for key, action in _sweep_cases():
        _assert_routes_agree(oracles, key, action)


def test_orbit_complex_antipodal_octahedron_is_rp2():
    antipodal = close_generators(octahedron(), [(3, 4, 5, 0, 1, 2)])
    assert admissible_subdivision(antipodal) is antipodal
    cc = orbit_chain_complex(antipodal)
    assert cc.ranks == (3, 6, 4)
    got = betti(cc, FIELDS)
    want = betti(chain_complex(rp2_minimal()), FIELDS)
    assert (got.entries, got.torsion) == (want.entries, want.torsion)
    assert got.torsion == ((), (2,), ())
    assert orbit_betti(antipodal, F2) == (1, 1, 1)


def test_orbit_complex_circle_by_rotation():
    # C_5 rotating the pentagon freely: the quotient circle has one vertex and one edge
    rotation = close_generators(polygon(5), [(1, 2, 3, 4, 0)])
    cc = orbit_chain_complex(rotation)
    assert cc.basis_labels == (((0,),), ((0, 1),))
    assert cc.boundaries[1].nnz == 0
    assert orbit_betti(rotation, RATIONALS) == (1, 1)


def test_orbit_complex_rejects_non_admissible():
    reflection = close_generators(polygon(4), [(0, 3, 2, 1)])  # fixes vertices 0 and 2, no edge
    flip = close_generators(polygon(4), [(1, 0, 3, 2)])  # swaps the ends of edge (0,1)
    assert is_admissible(reflection)
    assert not is_admissible(flip)
    with pytest.raises(NeedsSubdivision):
        orbit_chain_complex(flip)
    sub = admissible_subdivision(flip)
    assert sub is not flip and is_admissible(sub)
    assert admissible_subdivision(flip) is sub
    assert orbit_betti(sub, RATIONALS) == (1, 0)  # the circle folded onto an interval


def _with_orbit_data(monkeypatch, mutate):
    """Make every signed orbit pass, which only the orbit complex asks for, return mutate(its data)."""
    orig = VertexAction.simplex_orbit_data

    def mutated(self, signs=False):
        data = orig(self, signs)
        return mutate(*data) if signs else data

    monkeypatch.setattr(VertexAction, "simplex_orbit_data", mutated)


def _merge_last_two_orbits(orbit_of, n_orbits, admissible, reversed_simplices):
    # the last two ids are top-dimensional on rp(2), so the ids stay one run per degree
    merged = {s: (n_orbits - 2 if oid == n_orbits - 1 else oid) for s, oid in orbit_of.items()}
    return merged, n_orbits - 1, admissible, reversed_simplices


def _drop_signs(orbit_of, n_orbits, admissible, reversed_simplices):
    # on rp(2), which is admissible unsubdivided, this breaks dd = 0 of the orbit complex
    return orbit_of, n_orbits, admissible, set()


@pytest.mark.parametrize("mutate", [_merge_last_two_orbits, _drop_signs], ids=["merge_orbits", "drop_signs"])
def test_run_scenario_rejects_a_corrupt_orbit_complex(monkeypatch, mutate):
    """The reported torsion comes from the orbit complex only while it agrees with the simplicial quotient."""
    scenario = replace(builtin("rp", 2), checks=())  # the orbit complex serves the torsion alone
    assert scenario.snf_cap > 0
    run_scenario(scenario)
    _with_orbit_data(monkeypatch, mutate)
    with pytest.raises(CorruptComplex):
        run_scenario(scenario)


def test_run_scenario_takes_torsion_from_the_orbit_complex():
    for scenario in (builtin("rp", 3), builtin("quaternion_q8")):
        action = build_model(scenario).action
        orbit = betti(orbit_chain_complex(admissible_subdivision(action)), FIELDS, snf_cap=10**9)
        rows = run_scenario(scenario)["betti"]
        assert all(row["torsion"] == [list(t) for t in orbit.torsion] for row in rows)
    # no torsion asked for: no orbit complex
    assert all(row["torsion"] is None for row in run_scenario(replace(builtin("rp", 3), snf_cap=0))["betti"])
