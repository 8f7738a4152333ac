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
torsion must equal those of the oracle's quotient, read off the gcd Smith
normal form (`snf_oracle`) of that quotient's boundary matrices alone.

The engine reads the orbits of the first subdivision off the orbits of X
(`flag_action`).  Against the transported action, that route must give the
same orbit complex, fixed sets and quotients, and its flag orbits must
number what Burnside's lemma counts from the flags each element fixes.
"""

import itertools
import sys
from dataclasses import replace

import pytest

import sqh.scenarios

from conftest import nonabelian_workload, octahedron, rp2_minimal
from snf_oracle import gcd_smith_normal_form
from test_acceptance import CORPUS_SCENARIOS
from sqh.actions import (
    admissible_subdivision,
    apply_perm,
    close_generators,
    conjugacy_classes,
    fixed_subcomplex,
    flag_action,
    induced_action_on_subdivision,
    is_admissible,
    lefschetz_numbers,
    make_admissible_and_quotient,
    orbit_betti,
    orbit_chain_complex,
    quotient_complex,
    subgroup_action,
    sylow,
)
from sqh.complexes import (
    OrientedChainComplex,
    barycentric_subdivision,
    chain_complex,
    euler_characteristic,
    join,
    polygon,
    subdivided_f_vector,
)
from sqh.errors import CorruptComplex, NeedsSubdivision
from sqh.homology import (
    F2,
    F3,
    F5,
    RATIONALS,
    ElementaryDivisors,
    SparseIntMatrix,
    betti,
    prime_factors,
    relative_betti,
)
from sqh.scenarios import (
    DEFAULT_FIELDS,
    _least_cp_handle,
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
    orbit = betti(orbit_chain_complex(admissible_subdivision(action)), FIELDS, order=action.order)
    quotient = _oracle(oracles, key, action)[1]
    assert (orbit.entries, orbit.torsion) == _snf_homology(chain_complex(quotient))


def _subgroup_handles(action):
    """The group, its least C_p for each prime p dividing its order, and its Sylow subgroups."""
    full = action.full_subgroup()
    handles = [full]
    for p in prime_factors(action.order):
        handles += [_least_cp_handle(action, p), sylow(action, full, p)]
    return list(dict.fromkeys(handles))


def _subgroup_actions(action):
    return [action.restrict(h) for h in _subgroup_handles(action)]


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
    # dd = 0 of the orbit complex on rp(2), admissible unsubdivided
    return replace(data, carrier=dict.fromkeys(data.carrier, 0))


@pytest.mark.parametrize("mutate", [_merge_last_two_orbits, _drop_signs], ids=["merge_orbits", "drop_signs"])
def test_run_scenario_rejects_a_corrupt_orbit_complex(monkeypatch, mutate):
    """A torsion run's table comes from the orbit complex only while that complex passes its checks.

    Dropped signs break dd = 0; merged orbits pass it and are caught by the
    chi oracle (see the oracle tests below).
    """
    scenario = replace(builtin("rp", 2), checks=())  # the orbit complex serves the torsion alone
    assert scenario.snf_cap > 0
    run_scenario(scenario)
    _with_orbit_data(monkeypatch, mutate)
    with pytest.raises(CorruptComplex):
        run_scenario(scenario)


def _with_orbit_complex(monkeypatch, mutate):
    """Make every orbit chain complex built from now on read mutate(the complex)."""
    import sqh.actions

    for name in ("_simplex_orbit_complex", "_flag_orbit_complex"):
        orig = getattr(sqh.actions, name)
        monkeypatch.setattr(sqh.actions, name, lambda action, orig=orig: mutate(orig(action)))


def _zero_boundaries(cc):
    # dd = 0 holds, and so does chi, but every cell becomes a cycle
    zeros = tuple(SparseIntMatrix(m.rows, m.cols) for m in cc.boundaries)
    return OrientedChainComplex(cc.ranks, zeros, cc.basis_labels)


def _merged_orbits(monkeypatch):
    _with_orbit_data(monkeypatch, _merge_last_two_orbits)


def _zeroed_boundaries(monkeypatch):
    _with_orbit_complex(monkeypatch, _zero_boundaries)


@pytest.mark.parametrize(
    "scenario, mutate, message",
    [
        (builtin("rp", 2), _merged_orbits,
         "chi oracle: the orbit complex has Euler characteristic 0, the Lefschetz numbers give 2/2"),
        (builtin("rp", 2), _zeroed_boundaries,
         "Q oracle: b = (3, 6, 4) over Q, the Lefschetz numbers give (1, 0, 0)"),
        (builtin("lens", 5, 2), _zeroed_boundaries,
         "Q oracle: b = (2, 7, 10, 5) over Q, the Lefschetz numbers give (1, 0, 0, 1)"),
        # no Q row: F_2 divides |G| and is not compared, F_3 is
        (replace(builtin("rp", 2), fields=("Fp:2", "Fp:3")), _zeroed_boundaries,
         "coprime-p oracle: b = (3, 6, 4) over Fp:3, the Lefschetz numbers give (1, 0, 0)"),
    ],
    ids=["chi_rp2_merge_orbits", "q_rp2_zero_boundaries", "q_lens52_zero_boundaries", "coprime_rp2_zero_boundaries"],
)
def test_lefschetz_oracles_reject_a_corrupt_orbit_complex(monkeypatch, scenario, mutate, message):
    """Each mutation passes dd = 0 and betti's own checks, and trips the oracle it names."""
    scenario = replace(scenario, checks=())  # the checks would read the mutated complex too
    assert is_admissible(build_model(scenario).action)
    run_scenario(scenario)
    mutate(monkeypatch)
    corrupt = orbit_chain_complex(build_model(scenario).action)  # verified on the way
    betti(corrupt, scenario.field_specs(), order=build_model(scenario).action.order)
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
        assert lefschetz[0] == 1 + (-1) ** (bundle.ambient_n - 1)
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


@pytest.mark.parametrize("scenario", NON_ADMISSIBLE, ids=lambda sc: sc.name)
def test_flag_route_matches_the_transported_route(scenario):
    """The depth-1 orbit complex, fixed sets and relative homology of each subgroup, with and without transport."""
    action = build_model(scenario).action
    sd = barycentric_subdivision(action.complex)
    transported = induced_action_on_subdivision(action, sd)
    for handle in _subgroup_handles(action):
        restricted = action.restrict(handle)
        new = orbit_chain_complex(flag_action(restricted))
        old = orbit_chain_complex(transported.restrict(handle))
        assert new.ranks == old.ranks
        assert _homology(new, restricted.order) == _homology(old, restricted.order)
        fixed = fixed_subcomplex(action, handle)
        fixed_old = fixed_subcomplex(transported, handle)
        if is_admissible(restricted):
            assert subgroup_action(action, handle) is restricted
            # the fixed set on X, whose simplices are the vertices of its subdivision
            assert {sd.vertex_simplices[v] for v in _fixed_vertices(fixed_old)} == set(fixed.simplex_set())
            continue
        assert subgroup_action(action, handle) is flag_action(restricted)
        assert fixed == fixed_old
        if fixed.facets:
            assert relative_betti(new, fixed, FIELDS).entries == relative_betti(old, fixed_old, FIELDS).entries


def _quotient_or_none(quotient):
    try:
        return quotient()
    except NeedsSubdivision:
        return None


# the sweep's own guard on a draw's subdivided size
_ORACLE_GUARD = 200_000


def _assert_forced_depth_matches(oracles, key, action, depth) -> bool:
    """The quotient at a forced depth equals the oracle's, or neither is simplicial.

    Returns False, comparing nothing, when the depth-`depth` sphere passes
    `_ORACLE_GUARD`: an action that is simplicial at depth 0 can reach
    millions of simplices at depth 2 (a trivial group on a 242-simplex S^5
    gives 2.9 million, and so does rp(4)), which the oracle takes a minute
    or more to build.
    """
    f_vector = action.complex.f_vector()
    for _ in range(depth):
        f_vector = subdivided_f_vector(f_vector)
    if sum(f_vector) > _ORACLE_GUARD:
        return False
    got = _quotient_or_none(lambda: make_admissible_and_quotient(action, depth))
    want = _quotient_or_none(lambda: _oracle(oracles, key, action, depth))
    if want is None:
        assert got is None
    else:
        assert (got.subdivisions, got.complex, got.simplices_after, got.facets_after) == want
    return True


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_forced_depth_quotient_matches_oracle_on_corpus(oracles, scenario, depth):
    compared = [
        _assert_forced_depth_matches(oracles, (key, depth), action, depth)
        for key, action in _corpus_cases(scenario)
    ]
    # rp(4) is the one corpus sphere past the guard at depth 2
    assert all(compared) != ((scenario.name, depth) == ("rp(4)", 2))


@pytest.mark.parametrize("depth", [1, 2])
def test_forced_depth_quotient_matches_oracle_on_sweep(oracles, depth):
    compared = sum(
        _assert_forced_depth_matches(oracles, (key, depth), action, depth) for key, action in _sweep_cases()
    )
    # every draw at depth 1, and 47 of the 60 at depth 2
    assert compared == (60 if depth == 1 else 47)


def test_forced_depth_three_matches_oracle():
    action = build_model(builtin("sym3_on_s2")).action
    assert not is_admissible(action)
    _assert_forced_depth_matches({}, "sym3_on_s2", action, 3)


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


@pytest.mark.parametrize("scenario", GROUP_SCENARIOS, ids=lambda sc: sc.name)
def test_flag_orbits_number_what_burnside_counts(scenario):
    """Orbits of j-flags = (1/|H|) sum over h of the j-flags h fixes, for the group and its C_p and Sylow subgroups.

    Both enumerations are counted: the cells of the depth-1 orbit complex,
    and the orbit of every flag that the quotient one depth further down
    reads.
    """
    action = build_model(scenario).action
    for restricted in _subgroup_actions(action):
        fixed = [_fixed_flags(action.complex, e) for e in restricted.elements]
        sums = [sum(column) for column in zip(*fixed)]
        assert all(n % restricted.order == 0 for n in sums)
        burnside = tuple(n // restricted.order for n in sums)
        flags = flag_action(restricted)
        assert orbit_chain_complex(flags).ranks == burnside
        assert tuple(flags.simplex_orbit_data().level_counts()) == burnside
        assert flags.cell_counts() == burnside
