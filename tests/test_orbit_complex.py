"""The reported quotient and the orbit chain complex, checked against a simplicial oracle.

The oracle subdivides the whole sphere and transports the action k times,
then takes the quotient of the result by the regularity scan
(`_scan_quotient`), trying depths 0 to 3 until the quotient is simplicial.
It builds its own subdivisions, so it shares no orbit data with
`make_admissible_and_quotient` or the orbit complex, and it decides
whether a quotient is simplicial by its own rule, not the engine's orbit
count; where `make_admissible_and_quotient` reads the orbits one depth
down (`subdivided_quotient`), the oracle reads those of the depth-k sphere
itself.  The reported quotient must equal the oracle's, with the same
depth and sphere size, and the oracle never needs depth 3: sd²(X)/G is
simplicial (Bredon, Introduction to Compact Transformation Groups, ch.
III §1).  For an admissible action, `orbit_chain_complex`
gives the cellular chains of X/G; its Betti numbers (from ranks) and
torsion must equal those of the oracle's quotient, read off the gcd Smith
normal form (`snf_oracle`) of that quotient's boundary matrices alone.

An action that is not admissible is carried onto its starred complex Y′,
X starred only at the simplices it turns and their cofaces
(`admissible_subdivision`).  Against the action transported onto the whole
first subdivision sd(X), that route must give the same homology of the
quotient, the fixed set and the pairs.  The quotient loop counts the orbits
of sd(X) from the orbits of X (`flag_orbit_counts`), and for depth 2 it
carries the group onto sd(X) (`_carried`).  Both those counts of the flag
orbits and the orbits on Y′ must number what Burnside's lemma counts from
the simplices each element fixes.
"""

import itertools
import sys
from dataclasses import replace

import pytest

import sqh.scenarios

from conftest import nonabelian_workload, octahedron, rp2_minimal, subgroup_handles
from snf_oracle import gcd_smith_normal_form
from test_acceptance import CORPUS_SCENARIOS
from test_sharing import S4_ON_S3
from sqh.actions import (
    _carried,
    admissible_subdivision,
    apply_perm,
    close_generators,
    conjugacy_classes,
    fixed_subcomplex,
    flag_orbit_counts,
    induced_action_on_subdivision,
    is_admissible,
    lefschetz_numbers,
    make_admissible_and_quotient,
    orbit_chain_complex,
    quotient_complex,
    subdivided_quotient,
    subgroup_action,
)
from sqh.complexes import (
    OrientedChainComplex,
    barycentric_subdivision,
    chain_complex,
    euler_characteristic,
    SimplicialComplex,
    join,
    polygon,
    subdivided_size,
)
from sqh.errors import CorruptComplex, InvalidParameter, NeedsSubdivision
from sqh.homology import (
    F2,
    F3,
    F5,
    RATIONALS,
    ElementaryDivisors,
    SparseIntMatrix,
    betti,
    relative_betti,
)
from sqh.scenarios import (
    DEFAULT_FIELDS,
    Scenario,
    build_model,
    builtin,
    run_scenario,
    sweep_scenarios,
)

FIELDS = (RATIONALS, F2, F3, F5)
# the acceptance corpus and the nonabelian workload, each scenario once: every
# scenario with torsion that the benchmark runs
GROUP_SCENARIOS = list({sc.name: sc for sc in [*CORPUS_SCENARIOS, *nonabelian_workload()]}.values())


def _snf_homology(chain) -> tuple:
    """(Betti numbers per field, torsion per degree) from the oracle's elementary divisors alone."""
    divisors = [gcd_smith_normal_form(m) for m in chain.boundaries]
    divisors.append(ElementaryDivisors(()))
    degrees = range(len(chain.ranks))
    rows = []
    for f in FIELDS:
        def rank(k):
            return divisors[k].rank if f.is_rationals else divisors[k].rank_mod(f.p)

        rows.append((f, tuple(chain.ranks[k] - rank(k) - rank(k + 1) for k in degrees)))
    return tuple(rows), tuple(divisors[k + 1].torsion() for k in degrees)


def _scan_quotient(action):
    """(X/G, vertex projection) by the regularity scan, or None where X/G is not simplicial.

    The vertex orbits are read off the elements.  X/G is simplicial iff no
    simplex has two vertices in one orbit and simplices with one orbit-set
    of vertices lie in one orbit, which every simplex is scanned for.  Only
    the simplex orbits themselves come from the orbit pass.
    """
    orbit_of = action.simplex_orbit_data().orbit_of
    proj = [-1] * action.complex.vertex_count
    count = 0
    for v in range(len(proj)):
        if proj[v] < 0:
            for w in {e[v] for e in action.elements}:
                proj[w] = count
            count += 1
    first_orbit_with_key: dict = {}
    for level in action.complex.simplices():
        for s in level:
            key = tuple(sorted(proj[v] for v in s))
            if len(set(key)) != len(s) or first_orbit_with_key.setdefault(key, orbit_of[s]) != orbit_of[s]:
                return None
    facets = {tuple(sorted(proj[v] for v in f)) for f in action.complex.facets}
    return SimplicialComplex(count, facets), tuple(proj)


def _simplicial_oracle(action) -> tuple:
    """(depth, quotient, simplices, facets) of the sphere subdivided until its quotient is simplicial.

    Every depth is built: the sphere is subdivided and the action
    transported, and the scan is tried on the result, at each depth up to 3.
    """
    for depth in range(4):
        got = _scan_quotient(action)
        if got is not None:
            return depth, got[0], sum(action.complex.f_vector()), len(action.complex.facets)
        action = induced_action_on_subdivision(action, barycentric_subdivision(action.complex))
    raise AssertionError("the quotient is not simplicial at depth 3")


@pytest.fixture(scope="module")
def oracles():
    """Each case's oracle by key, computed once and shared by the tests of this module."""
    return {}


def _oracle(oracles, key, action) -> tuple:
    if key not in oracles:
        oracles[key] = _simplicial_oracle(action)
    return oracles[key]


def _assert_reported_quotient_matches(oracles, key, action):
    want = _oracle(oracles, key, action)
    assert want[0] <= 2  # Bredon's bound on the depth
    res = make_admissible_and_quotient(action)
    assert (res.subdivisions, res.complex, res.simplices_after, res.facets_after) == want


def _assert_routes_agree(oracles, key, action):
    orbit = betti(orbit_chain_complex(admissible_subdivision(action)), FIELDS, order=action.order)
    quotient = _oracle(oracles, key, action)[1]
    assert (orbit.entries, orbit.torsion) == _snf_homology(chain_complex(quotient))


def _subgroup_actions(action):
    return [action.restrict(h) for h in subgroup_handles(action)]


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


def test_a_depth_two_quotient_that_is_not_simplicial_is_corrupt(monkeypatch):
    """sd²(X)/G is simplicial by Bredon's theorem, so a depth-2 quotient that is not is an engine fault, not bad input.

    The mutation counts one flag orbit too many in the top degree.  Only the
    quotient loop reads the count, and lens(5,2)'s quotient is not
    simplicial at depths 0 and 1 either way, so the loop reaches depth 2.
    """
    import sqh.actions

    scenario = builtin("lens", 5, 2)
    assert run_scenario(scenario)["subdivisions"] == 2
    count = sqh.actions.flag_orbit_counts
    monkeypatch.setattr(sqh.actions, "flag_orbit_counts", lambda data: (*count(data)[:-1], count(data)[-1] + 1))
    with pytest.raises(CorruptComplex) as caught:
        run_scenario(scenario)
    assert str(caught.value) == (
        "the depth-2 quotient is not simplicial, against Bredon (Introduction to Compact Transformation "
        "Groups, ch. III §1): 3-simplices with one orbit-set lie in different orbits (2880 orbit-sets for 2881 orbits)"
    )


@pytest.mark.parametrize("scenario", GROUP_SCENARIOS, ids=lambda sc: sc.name)
def test_orbit_complex_matches_simplicial_quotient_on_corpus(oracles, scenario):
    """Betti numbers and torsion of the orbit complex equal the oracle's quotient's.

    `run_scenario` reads a torsion run's table off the orbit complex alone,
    so this comparison covers each scenario with torsion that the benchmark
    runs: the acceptance corpus (and with it the catalog) and the nonabelian
    workload, for the group, its C_p and its Sylow subgroups.
    """
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
    got = betti(cc, FIELDS, order=2)
    want = betti(chain_complex(rp2_minimal()), FIELDS, order=2)
    assert (got.entries, got.torsion) == (want.entries, want.torsion)
    assert got.torsion == ((), (2,), ())
    assert got.betti(F2) == (1, 1, 1)


def test_orbit_complex_circle_by_rotation():
    # C_5 rotating the pentagon freely: the quotient circle has one vertex and one edge
    rotation = close_generators(polygon(5), [(1, 2, 3, 4, 0)])
    cc = orbit_chain_complex(rotation)
    assert cc.basis_labels == (((0,),), ((0, 1),))
    assert cc.boundaries[1].nnz == 0
    assert betti(cc, [RATIONALS]).betti(RATIONALS) == (1, 1)


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
    # the circle folded onto an interval
    assert betti(orbit_chain_complex(sub), [RATIONALS]).betti(RATIONALS) == (1, 0)


def _with_orbit_data(monkeypatch, mutate):
    """Make the orbit complex of an action on the model read mutate(the action's orbit data).

    The simplicial quotient reads the same orbit pass, so only the orbit
    complex is given the mutated data.
    """
    import sqh.actions

    orig = sqh.actions._simplex_orbit_complex

    class Mutated:
        def __init__(self, action):
            self.action = action

        def simplex_orbit_data(self):
            return mutate(self.action.simplex_orbit_data())

    monkeypatch.setattr(sqh.actions, "_simplex_orbit_complex", lambda action: orig(Mutated(action)))


def _merge_last_two_orbits(data):
    # the last two ids are top-dimensional on rp(2), so the ids stay one run per degree
    n = data.count
    merged = {s: (n - 2 if oid == n - 1 else oid) for s, oid in data.orbit_of.items()}
    return replace(
        data, orbit_of=merged, representatives=data.representatives[:-1], offsets=data.offsets[:-1] + (n - 1,)
    )


def _drop_signs(data):
    # every carrier the identity: no simplex reads as reversed, which breaks
    # dd = 0 of the orbit complex on quaternion_q8, admissible unsubdivided.
    # On rp(2) it changes nothing: the antipode v ^ 1 keeps each vertex in its
    # block, so no carrier reverses a simplex; Q8's elements reorder blocks.
    return replace(data, carrier=dict.fromkeys(data.carrier, 0))


@pytest.mark.parametrize(
    "name, mutate",
    [(("rp", 2), _merge_last_two_orbits), (("quaternion_q8",), _drop_signs)],
    ids=["merge_orbits", "drop_signs"],
)
def test_run_scenario_rejects_a_corrupt_orbit_complex(monkeypatch, name, mutate):
    """A torsion run's table comes from the orbit complex only while that complex passes its checks.

    Dropped signs break dd = 0; merged orbits pass it and are caught by the
    chi oracle (see the oracle tests below).
    """
    scenario = replace(builtin(*name), checks=())  # the orbit complex serves the torsion alone
    assert scenario.snf_cap > 0
    run_scenario(scenario)
    _with_orbit_data(monkeypatch, mutate)
    with pytest.raises(CorruptComplex):
        run_scenario(scenario)


def _with_orbit_complex(monkeypatch, mutate):
    """Make every orbit chain complex built from now on read mutate(the complex)."""
    import sqh.actions

    orig = sqh.actions._simplex_orbit_complex
    monkeypatch.setattr(sqh.actions, "_simplex_orbit_complex", lambda action: mutate(orig(action)))


def _zero_boundaries(cc):
    # dd = 0 holds, and so does chi, but every cell becomes a cycle
    zeros = tuple(SparseIntMatrix(m.rows, m.cols) for m in cc.boundaries)
    return OrientedChainComplex(cc.ranks, zeros, cc.basis_labels)


def _merged_orbits(monkeypatch):
    _with_orbit_data(monkeypatch, _merge_last_two_orbits)


def _zeroed_boundaries(monkeypatch):
    _with_orbit_complex(monkeypatch, _zero_boundaries)


def _with_determinant(monkeypatch, det):
    """Make every block model's Lefschetz numbers read det(element, lengths) for det g."""
    import sqh.actions

    monkeypatch.setattr(sqh.actions, "block_determinant", det)


def _unsigned_block_permutation(monkeypatch):
    # on vertex pairs alone, pair i is vertices 2i, 2i + 1: count the swaps, drop the permutation's sign
    _with_determinant(monkeypatch, lambda e, lengths: (-1) ** sum(e[2 * i] % 2 for i in range(len(lengths))))


def _first_swap_dropped(monkeypatch):
    import sqh.actions

    det = sqh.actions.block_determinant
    _with_determinant(monkeypatch, lambda e, lengths: det(e, lengths) * (-1) ** (e[0] % 2))


# the quarter-turn of the plane, e1 -> e2 -> -e1, on the square S^0 * S^0: an odd
# permutation of the pairs with one swap, so det = 1 but the swaps alone give -1
QUARTER_TURN = Scenario(
    name="quarter_turn_s1",
    space={"signed_permutation": {"n": 2, "generators": [{"perm": [2, 1], "signs": [-1, 1]}]}},
    fields=("Q", "Fp:2", "Fp:3"),
    snf_cap=16384,
)


@pytest.mark.parametrize(
    "scenario, mutate, message",
    [
        (QUARTER_TURN, _unsigned_block_permutation,
         "chi oracle: the orbit complex has Euler characteristic 0, the Lefschetz numbers give 4/4"),
        (builtin("rp", 4), _first_swap_dropped,
         "chi oracle: the orbit complex has Euler characteristic 1, the Lefschetz numbers give 4/2"),
        (builtin("rp", 2), _merged_orbits,
         "chi oracle: the orbit complex has Euler characteristic 0, the Lefschetz numbers give 2/2"),
        (builtin("rp", 2), _zeroed_boundaries,
         "Q oracle: b = (3, 6, 4) over Q, the Lefschetz numbers give (1, 0, 0)"),
        (builtin("lens", 5, 2), _zeroed_boundaries,
         "Q oracle: b = (2, 7, 10, 5) over Q, the Lefschetz numbers give (1, 0, 0, 1)"),
        # no Q row: F_2 divides |G| and is not compared, F_3 is
        (replace(builtin("rp", 2), fields=("Fp:2", "Fp:3")), _zeroed_boundaries,
         "coprime-p oracle: b = (3, 6, 4) over Fp:3, the Lefschetz numbers give (1, 0, 0)"),
        # not admissible: the orbit complex is taken on the starred complex
        (S4_ON_S3, _zeroed_boundaries,
         "Q oracle: b = (13, 35, 35, 12) over Q, the Lefschetz numbers give (1, 0, 0, 0)"),
    ],
    ids=["chi_quarter_turn_unsigned_permutation", "chi_rp4_one_swap_dropped", "chi_rp2_merge_orbits", "q_rp2_zero_boundaries", "q_lens52_zero_boundaries", "coprime_rp2_zero_boundaries", "q_s4_zero_boundaries_starred"],
)
def test_lefschetz_oracles_reject_a_corrupt_orbit_complex(monkeypatch, scenario, mutate, message):
    """Each mutation passes dd = 0 and betti's own checks, and trips the oracle it names.

    A mutated orbit complex is caught against the Lefschetz numbers, and a
    mutated determinant, which gives a block model's Lefschetz numbers,
    against the orbit complex.
    """
    scenario = replace(scenario, checks=())  # the checks would read the mutated complex too
    run_scenario(scenario)
    mutate(monkeypatch)
    action = build_model(scenario).action
    corrupt = orbit_chain_complex(admissible_subdivision(action))  # verified on the way
    betti(corrupt, scenario.field_specs(), order=action.order)
    with pytest.raises(CorruptComplex) as caught:
        run_scenario(scenario)
    assert str(caught.value) == message


def test_lefschetz_numbers_of_free_actions():
    """L(identity) = chi(S^{n-1}) = 1 + (-1)^{n-1}; a free element fixes nothing, so L = 0."""
    for scenario in (builtin("rp", 1), builtin("rp", 2), builtin("rp", 3), builtin("rp", 4),
                     builtin("lens", 5, 2), builtin("lens", 7, 2), builtin("quaternion_q8")):
        bundle = build_model(scenario)
        lefschetz = lefschetz_numbers(bundle.action)
        assert len(lefschetz) == bundle.action.order > 1
        assert lefschetz[0] == 1 + (-1) ** bundle.action.complex.dimension
        assert set(lefschetz[1:]) == {0}
    assert lefschetz_numbers(build_model(builtin("trivial_sphere", 1)).action) == (2,)


def test_lefschetz_number_of_a_reflection_and_a_rotation():
    # on the octahedron (+e_i = i, -e_i = 3 + i): the reflection in z = 0 fixes
    # a great circle, the half-turn about the z-axis its two poles
    reflection = close_generators(octahedron(), [(0, 1, 5, 3, 4, 2)])
    assert lefschetz_numbers(reflection) == (2, 0)
    half_turn = close_generators(octahedron(), [(3, 4, 2, 0, 1, 5)])
    assert lefschetz_numbers(half_turn) == (2, 2)


@pytest.mark.parametrize("scenario", GROUP_SCENARIOS, ids=lambda sc: sc.name)
def test_lefschetz_number_is_the_euler_characteristic_of_the_fixed_set(scenario):
    """L(g) = chi(X^g), the Lefschetz fixed-point theorem for a periodic simplicial map, on each class."""
    action = build_model(scenario).action
    lefschetz = lefschetz_numbers(action)
    for cls in conjugacy_classes(action):
        assert {lefschetz[i] for i in cls} == {lefschetz[cls[0]]}
        cyclic = action.subgroup(action.closure_indices({cls[0]}))
        assert lefschetz[cls[0]] == euler_characteristic(fixed_subcomplex(action, cyclic))


@pytest.mark.parametrize(
    "scenario", [builtin("lens", 7, 2), builtin("quaternion_q8"), builtin("rp", 2)], ids=lambda sc: sc.name
)
def test_torsion_runs_take_no_rank_of_the_simplicial_quotient(monkeypatch, scenario):
    """With snf_cap > 0 no chain complex of the reported quotient is built; with snf_cap 0 one is."""
    quotients, chained = [], []
    make = sqh.scenarios.make_admissible_and_quotient

    def capture(*args, **kwargs):
        res = make(*args, **kwargs)
        quotients.append(res.complex)
        return res

    def count(complex_, *args, **kwargs):
        chained.append(complex_)
        return chain_complex(complex_, *args, **kwargs)

    monkeypatch.setattr(sqh.scenarios, "make_admissible_and_quotient", capture)
    for module in [m for name, m in sys.modules.items() if name.startswith("sqh")]:
        if vars(module).get("chain_complex") is chain_complex:
            monkeypatch.setattr(module, "chain_complex", count)
    assert scenario.snf_cap > 0
    run_scenario(scenario)
    (quotient,) = quotients
    assert chained and not any(c is quotient for c in chained)
    assert quotient._chain is None
    run_scenario(replace(scenario, snf_cap=0))
    assert any(c is quotients[-1] for c in chained)


def test_run_scenario_takes_torsion_from_the_orbit_complex():
    for scenario in (builtin("rp", 3), builtin("quaternion_q8")):
        action = build_model(scenario).action
        orbit = betti(orbit_chain_complex(admissible_subdivision(action)), FIELDS, order=action.order)
        rows = run_scenario(scenario)["betti"]
        assert all(row["torsion"] == [list(t) for t in orbit.torsion] for row in rows)
    # no torsion asked for: no orbit complex
    assert all(row["torsion"] is None for row in run_scenario(replace(builtin("rp", 3), snf_cap=0))["betti"])


def test_snf_cap_is_a_switch():
    """Any snf_cap above 0 asks for all of the torsion; rp(3) at 1 reports what it does at 16384."""
    rows = run_scenario(replace(builtin("rp", 3), snf_cap=1))["betti"]
    assert [row["torsion"] for row in rows] == [row["torsion"] for row in run_scenario(builtin("rp", 3))["betti"]]
    assert rows[0]["torsion"] == [[], [2], [], []]


def _oracle_torsion(chain) -> tuple:
    """Torsion per degree from the gcd oracle: H_k's is that of the cokernel of d_{k+1}."""
    return tuple(gcd_smith_normal_form(m).torsion() for m in chain.boundaries[1:]) + ((),)


@pytest.mark.parametrize("scenario", GROUP_SCENARIOS, ids=lambda sc: sc.name)
def test_reported_torsion_matches_gcd_oracle_on_the_orbit_complex(scenario):
    """The torsion a run reports, from p-adic levels at |G|, equals the gcd SNF of the same complex."""
    action = build_model(scenario).action
    want = _oracle_torsion(orbit_chain_complex(admissible_subdivision(action)))
    rows = run_scenario(scenario)["betti"]
    assert all(row["torsion"] == [list(t) for t in want] for row in rows)


def _three_triangles(*generators):
    """The join of three triangles, S^5, under vertex permutations; block i holds 3i, 3i + 1 and 3i + 2."""
    return close_generators(join(join(polygon(3), polygon(3)), polygon(3)), list(generators))


def _rotation(*steps) -> tuple:
    """Block i turned by steps[i]."""
    return tuple(3 * i + (j + steps[i]) % 3 for i in range(3) for j in range(3))


_BLOCK_SHIFT = tuple(3 * ((i + 1) % 3) + j for i in range(3) for j in range(3))


@pytest.mark.parametrize(
    "generators, order, b_f3, torsion",
    [
        # the Heisenberg group mod 3: a nonabelian group of odd order
        ((_rotation(0, 1, 2), _BLOCK_SHIFT), 27, (1, 0, 2, 4, 2, 1), ((), (), (3, 3), (3, 3), (), ())),
        ((_rotation(1, 0, 0), _BLOCK_SHIFT), 81, (1, 0, 0, 1, 1, 1), ((), (), (), (3,), (), ())),
    ],
    ids=["heisenberg_3", "c3_wreath_c3"],
)
def test_torsion_of_odd_order_groups_on_three_triangles(generators, order, b_f3, torsion):
    """Odd p-groups: e = v_3(|G|) is 3 and 4 here, and at most 1 in every
    benchmark scenario, so these run levels nothing else does; the gcd oracle agrees."""
    action = _three_triangles(*generators)
    assert action.order == order
    orbit = orbit_chain_complex(admissible_subdivision(action))
    table = betti(orbit, [RATIONALS, F3], order=order)
    assert table.betti(RATIONALS) == (1, 0, 0, 0, 0, 1)
    assert table.betti(F3) == b_f3
    assert table.torsion == torsion == _oracle_torsion(orbit)


NON_ADMISSIBLE = [sc for sc in GROUP_SCENARIOS if not is_admissible(build_model(sc).action)]


def _homology(chain, order) -> tuple:
    table = betti(chain, FIELDS, order=order)
    return table.entries, table.torsion


def _fixed_vertices(fixed) -> set:
    return {v for f in fixed.facets for v in f}


# the whole group's orbit cells on sd(X) and on its starred complex
WHOLE_GROUP_CELLS = {
    "sym3_on_s2": (33, 27),
    "dihedral_on_s1(3)": (3, 3),
    "dihedral_on_s1(5)": (3, 3),
    "oct_rotations_s2": (8, 8),
    "full_signed_oct_s2": (7, 7),
    "d4_on_s2": (27, 19),
    "a4_on_s2": (14, 8),
    "s4_on_s3": (115, 95),
    "b4_on_s3": (15, 15),
    "c3_on_s3": (576, 68),
}


@pytest.mark.parametrize("scenario", NON_ADMISSIBLE, ids=lambda sc: sc.name)
def test_flag_route_matches_the_transported_route(scenario):
    """Each subgroup on its starred complex against the action transported onto sd(X).

    The quotient's Betti numbers and torsion, b(F), b(Y, F) and b(Q, F)
    agree.  On X the fixed set is the one the transport finds, read
    through the simplices that the vertices of sd(X) stand for.  The whole
    group's orbit complex has the cells pinned in WHOLE_GROUP_CELLS.
    """
    action = build_model(scenario).action
    sd = barycentric_subdivision(action.complex)
    transported = induced_action_on_subdivision(action, sd)
    for handle in subgroup_handles(action):
        restricted = action.restrict(handle)
        starred = subgroup_action(action, handle)
        assert (starred is restricted) == is_admissible(restricted)
        new = orbit_chain_complex(starred)
        old = orbit_chain_complex(transported.restrict(handle))
        assert _homology(new, restricted.order) == _homology(old, restricted.order)
        if restricted is action:
            assert (sum(old.ranks), sum(new.ranks)) == WHOLE_GROUP_CELLS[scenario.name]
        fixed = fixed_subcomplex(action, handle)
        fixed_old = fixed_subcomplex(transported, handle)
        assert betti(chain_complex(fixed), FIELDS).entries == betti(chain_complex(fixed_old), FIELDS).entries
        if starred is restricted:
            assert {sd.vertex_simplices[v] for v in _fixed_vertices(fixed_old)} == set(fixed.simplex_set())
        if fixed.facets:
            pairs = [(chain_complex(starred.complex), chain_complex(sd.complex)), (new, old)]
            for here, there in pairs:
                assert relative_betti(here, fixed, FIELDS).entries == relative_betti(there, fixed_old, FIELDS).entries


def _quotient_or_none(quotient):
    try:
        return quotient()
    except NeedsSubdivision:
        return None


# the sweep's own guard on a draw's subdivided size
_ORACLE_GUARD = 200_000


def _oracle_at(action, depth):
    """The scan's quotient at this depth alone, or None: the sphere subdivided and the action transported `depth` times."""
    for _ in range(depth):
        action = induced_action_on_subdivision(action, barycentric_subdivision(action.complex))
    got = _scan_quotient(action)
    return None if got is None else got[0]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_forced_depth_quotient_matches_oracle_on_corpus(scenario, depth):
    """Each depth's route of the quotient loop, forced on every subgroup, equals the oracle at that depth.

    The loop takes a route only where the depth below fails, so forcing it
    here covers the depth-2 route, the group carried onto sd(X), on every
    subgroup of the corpus.  At depth 1 the quotient may fail to be
    simplicial, and then both must fail; at depth 2 it never fails
    (Bredon).  A subgroup whose depth-`depth` sphere passes `_ORACLE_GUARD`
    is not compared: an action that is simplicial at depth 0 can reach
    millions of simplices at depth 2 (rp(4) gives 2.9 million), which the
    oracle takes a minute or more to build.
    """
    compared = []
    sd = None
    for _, action in _corpus_cases(scenario):
        if subdivided_size(action.complex.f_vector(), depth) > _ORACLE_GUARD:
            compared.append(False)
            continue
        want = _oracle_at(action, depth)
        assert want is not None or depth == 1
        if depth == 1:
            got = _quotient_or_none(lambda: subdivided_quotient(action))
        else:  # the loop's depth-2 route: the group carried onto sd(X), built once for every subgroup
            sd = sd or barycentric_subdivision(action.complex)
            got = subdivided_quotient(_carried(action, sd))
        assert got == want
        compared.append(True)
    # rp(4) is the one corpus sphere past the guard at depth 2
    assert all(compared) != ((scenario.name, depth) == ("rp(4)", 2))


# models of at most this many simplices also give their subgroups' actions on sd(X)
_SCAN_SD_GUARD = 200


def _scan_cases() -> list:
    """The actions on which the engine's count rule is compared with the scan.

    Each model of the corpus, the catalog, the nonabelian workload and the
    first 200 seed-7 sweep draws, restricted to the group, its least C_p
    and its Sylow subgroups; each of those on its starred complex where it
    is not admissible; and each transported onto sd(X) for the models of
    at most `_SCAN_SD_GUARD` simplices.
    """
    catalog = [builtin("lens", 7, 2), builtin("lens", 5, 2), builtin("rp", 4), builtin("quaternion_q8")]
    named = {sc.name: sc for sc in [*CORPUS_SCENARIOS, *catalog, *nonabelian_workload()]}
    draws = sweep_scenarios(6, 200, 7, DEFAULT_FIELDS, 200_000)[0]
    out = []
    for sc in [*named.values(), *draws]:
        action = build_model(sc).action
        small = sum(action.complex.f_vector()) <= _SCAN_SD_GUARD
        sd = barycentric_subdivision(action.complex) if small else None
        for restricted in _subgroup_actions(action):
            out.append(restricted)
            if not is_admissible(restricted):
                out.append(admissible_subdivision(restricted))
            if small:
                out.append(induced_action_on_subdivision(restricted, sd))
    return out


def test_the_orbit_count_decides_as_the_scan_does():
    """`quotient_complex` gives the scan's complex and projection, or both refuse, on every case.

    The engine's rule is one orbit count per degree; the scan checks each
    simplex's vertex orbits and orbit-set.  Both outcomes occur often.
    """
    outcomes = []
    for action in _scan_cases():
        want = _scan_quotient(action)
        assert _quotient_or_none(lambda: quotient_complex(action)) == want
        outcomes.append(want is not None)
    assert len(outcomes) == 671 and sum(outcomes) == 396


def test_quotient_names_a_vertex_in_no_simplex():
    """The orbit pass never sees such a vertex, so it has no orbit to project to."""
    triangle = close_generators(SimplicialComplex(4, [(0, 1, 2)]), [(1, 2, 0, 3)])
    with pytest.raises(InvalidParameter, match="vertex 3 lies in no simplex"):
        quotient_complex(triangle)


def _fixed_flags(complex_, element) -> list:
    """The flags of the complex that a vertex permutation fixes, by degree.

    An element fixes a flag iff it fixes each of its simplices setwise, so
    these are the chains of simplices it fixes, counted by dynamic
    programming over the chains ending at each fixed simplex.
    """
    total = [0] * (complex_.dimension + 1)
    ending: dict = {}  # fixed simplex -> fixed chains ending at it, by degree
    for level in complex_.simplices():
        for s in level:
            if apply_perm(element, s) != s:
                continue
            counts = [1] + [0] * complex_.dimension
            for size in range(1, len(s)):
                for face in itertools.combinations(s, size):
                    for degree, n in enumerate(ending.get(face, ())):
                        if n:
                            counts[degree + 1] += n
            ending[s] = counts
            total = [a + b for a, b in zip(total, counts)]
    return total


def _burnside(counts, order) -> tuple:
    """Orbits per degree, from the simplices each element fixes, by degree."""
    sums = [sum(column) for column in zip(*counts)]
    assert all(n % order == 0 for n in sums)
    return tuple(n // order for n in sums)


def _fixed_simplices(complex_, element) -> list:
    """The simplices of the complex that a vertex permutation maps onto themselves, by degree."""
    return [sum(apply_perm(element, s) == s for s in level) for level in complex_.simplices()]


@pytest.mark.parametrize("scenario", GROUP_SCENARIOS, ids=lambda sc: sc.name)
def test_flag_orbits_number_what_burnside_counts(scenario):
    """Orbits of j-simplices = (1/|H|) sum over h of the j-simplices h fixes, for the group and its C_p and Sylow subgroups.

    On sd(X) both routes of the quotient loop are counted: the flag orbits
    counted from the orbits on X, and the orbits of H carried onto sd(X),
    which H acts on admissibly (Bredon's property (A)).  On the starred
    complex Y′ (X itself where H is admissible) the cells of the orbit
    complex and the orbits of the one orbit pass are counted.
    """
    action = build_model(scenario).action
    sd = barycentric_subdivision(action.complex)
    for restricted in _subgroup_actions(action):
        burnside = _burnside([_fixed_flags(action.complex, e) for e in restricted.elements], restricted.order)
        assert flag_orbit_counts(restricted.simplex_orbit_data()) == burnside
        on_sd = _carried(restricted, sd).simplex_orbit_data()
        assert on_sd.admissible and tuple(on_sd.level_counts()) == burnside
        starred = admissible_subdivision(restricted)
        # H's elements in H's order, so that a handle of H indexes them on Y′ too
        assert [e[: action.complex.vertex_count] for e in starred.elements] == list(restricted.elements)
        on_y = _burnside([_fixed_simplices(starred.complex, e) for e in starred.elements], starred.order)
        assert orbit_chain_complex(starred).ranks == on_y
        assert tuple(starred.simplex_orbit_data().level_counts()) == on_y
