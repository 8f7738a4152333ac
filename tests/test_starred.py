"""The derived subdivision that stars only what a subgroup moves, against independent oracles.

`derived_subdivision(K, U)` stars an upward-closed set U of simplices of K
in decreasing dimension.  A subgroup H that is not admissible acts on its
starred complex Y′, X starred at the simplices H turns and their cofaces
(`subgroup_action`), and its fixed set F′ is taken there
(`fixed_subcomplex`); every check on H reads this pair (Y′, F′).  The
oracles here share no code with the engine's construction:

- the flag complex of the face poset, built from every vertex permutation
  of every facet (the barycentric subdivision as the engine once built it)
- the iterative stellar construction, which replaces each facet containing
  σ by the cone from σ's barycentre over its faces that miss a vertex of σ
- the set B of simplices H maps onto themselves without fixing them
  pointwise, from one scan of H's elements over every simplex
- the action of H carried onto the subdivision and closed from its
  generators (`close_generators`), which must be admissible and fix F′
- b(X, X^H) on the full first subdivision
"""

import functools
import itertools
import random

import pytest

import sqh.actions
from conftest import nonabelian_workload
from test_acceptance import CORPUS_SCENARIOS
from sqh.actions import (
    apply_perm,
    close_generators,
    fixed_subcomplex,
    is_admissible,
    subgroup_action,
)
from sqh.complexes import (
    SimplicialComplex,
    Subdivision,
    barycentric_subdivision,
    chain_complex,
    derived_subdivision,
    full_subcomplex,
    subdivided_size,
)
from sqh.homology import RATIONALS, FieldSpec, prime_factors, relative_betti
from sqh.models import SignedPermutation, signed_permutation_action
from sqh.scenarios import build_model, run_scenario


def _flag_oracle(k: SimplicialComplex) -> Subdivision:
    """sd(K) from every permutation of every facet: each prefix is a simplex of the flag."""
    all_simplices = list(itertools.chain.from_iterable(k.simplices()))
    index = {s: i for i, s in enumerate(all_simplices)}
    facets = [
        tuple(index[tuple(sorted(perm[:i]))] for i in range(1, len(perm) + 1))
        for f in k.facets
        for perm in itertools.permutations(f)
    ]
    return Subdivision(SimplicialComplex(len(all_simplices), facets), k, tuple(all_simplices), index)


def _stellar_oracle(k: SimplicialComplex, starred) -> set:
    """K starred at each simplex of `starred`, largest first.

    Each facet is the set of simplices of K its vertices stand for.

    Starring σ replaces each facet F that contains σ by the facets
    F - {v} + {b(σ)}, one for each vertex v of σ.
    """
    facets = {frozenset((v,) for v in f) for f in k.facets}
    for sigma in sorted(starred, key=len, reverse=True):
        corners = {(v,) for v in sigma}
        touched = {f for f in facets if corners <= f}
        facets -= touched
        facets |= {f - {c} | {sigma} for f in touched for c in corners}
    return facets


def _relabelled(sd: Subdivision) -> set:
    return {frozenset(sd.vertex_simplices[v] for v in f) for f in sd.complex.facets}


def _moved_by_scan(action, handle) -> set:
    """B: every simplex that an element of H maps onto itself while moving one of its vertices."""
    elements = [action.elements[i] for i in handle.indices]
    return {
        s
        for level in action.complex.simplices()
        for s in level
        if any(apply_perm(e, s) == s and any(e[v] != v for v in s) for e in elements)
    }


def _upward_closure(k: SimplicialComplex, simplices) -> set:
    return {s for level in k.simplices() for s in level if any(set(b) <= set(s) for b in simplices)}


def _cases():
    """(name, action, handle) for every subgroup of prime order of the corpus and the nonabelian workload."""
    out = []
    for sc in [*CORPUS_SCENARIOS, *nonabelian_workload()]:
        action = build_model(sc).action
        if action.complex.dimension > 3:
            continue
        seen = set()
        for i in range(1, action.order):
            if action.element_order(i) in prime_factors(action.order):
                indices = action.closure_indices({i})
                if indices not in seen:
                    seen.add(indices)
                    out.append((sc.name, action, action.subgroup(indices)))
    return out


CASES = _cases()


# sd(X) of each model, built once for all of its subgroups' cases
_full_subdivision = functools.cache(barycentric_subdivision)


def _full_subdivision_pair(action, handle):
    """(sd X, X^H) with the fixed set found by mapping every simplex of X."""
    sd = _full_subdivision(action.complex)
    gens = [action.elements[i] for i in handle.generators]
    fixed = [v for v, s in enumerate(sd.vertex_simplices) if all(apply_perm(e, s) == s for e in gens)]
    return sd.complex, full_subcomplex(sd.complex, fixed)


def _starred_pair(action, handle) -> tuple:
    """(Y′, F′): the complex H acts on at its admissible subdivision, and H's fixed set there."""
    return subgroup_action(action, handle).complex, fixed_subcomplex(action, handle)


def _assert_pair_is_right(action, handle):
    """Every oracle on the starred pair of H."""
    y, f = _starred_pair(action, handle)
    starred = _upward_closure(action.complex, _moved_by_scan(action, handle))
    sd = derived_subdivision(action.complex, starred)
    assert y == sd.complex
    assert _relabelled(sd) == _stellar_oracle(action.complex, starred)
    # H carried onto Y′ is a simplicial action, admissible, and its fixed set is F′
    index = sd.vertex_of_simplex
    carried = [
        tuple(index[apply_perm(action.elements[g], s)] for s in sd.vertex_simplices) for g in handle.generators
    ]
    on_y = close_generators(y, carried)
    assert on_y.order == handle.order and is_admissible(on_y)
    assert set(on_y.elements) == set(subgroup_action(action, handle).elements)
    assert f == full_subcomplex(y, [v for v in range(y.vertex_count) if all(e[v] == v for e in on_y.elements)])
    # b(Y′, F′) is b(X, X^H), read on the full first subdivision
    full_y, full_f = _full_subdivision_pair(action, handle)
    fields = [RATIONALS, *(FieldSpec(p) for p in prime_factors(action.order))]
    assert relative_betti(chain_complex(y), f, fields) == relative_betti(chain_complex(full_y), full_f, fields)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[2].order}-{c[2].indices[1]}")
def test_starred_pair_against_the_oracles(case):
    _, action, handle = case
    _assert_pair_is_right(action, handle)


def test_cases_reach_moved_sets_that_are_not_upward_closed():
    """The closure step is exercised: some subgroup turns a simplex whose coface it does not turn."""
    assert any(_moved_by_scan(a, h) != _upward_closure(a.complex, _moved_by_scan(a, h)) for _, a, h in CASES)


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("s4_on_s3", {2: 404, 3: 172}),
        ("b4_on_s3", {2: 404, 3: 172}),
        ("c3_on_s3", {3: 172}),
        ("d4_on_s2", {2: 62}),
        ("oct_rotations_s2", {3: 38}),
        ("a4_on_s2", {3: 38}),
        ("full_signed_oct_s2", {3: 38}),
    ],
)
def test_starred_pair_sizes_on_the_checked_subgroups(name, sizes):
    """Y′ for the C_p that `cyclic_chain` checks, where it turns a simplex, against 1,696 or 146 simplices of sd X."""
    from sqh.bounds import _least_cp_handle

    (scenario,) = [sc for sc in nonabelian_workload() if sc.name == name]
    action = build_model(scenario).action
    got = {}
    for p in prime_factors(action.order):
        handle = _least_cp_handle(action, p)
        y, _ = _starred_pair(action, handle)
        if y is not action.complex:
            got[p] = sum(y.f_vector())
    assert got == sizes


def test_barycentric_subdivision_is_the_flag_oracle_on_corpus_models():
    """Byte-identical vertex numbering and facets, on every model and its first subdivision."""
    for sc in [*CORPUS_SCENARIOS, *nonabelian_workload()]:
        k = build_model(sc).action.complex
        for _ in range(2 if k.dimension <= 3 else 1):
            got, want = barycentric_subdivision(k), _flag_oracle(k)
            assert got.vertex_simplices == want.vertex_simplices
            assert got.vertex_of_simplex == want.vertex_of_simplex
            assert (got.complex.vertex_count, got.complex.facets) == (want.complex.vertex_count, want.complex.facets)
            k = got.complex


def _assert_extremes(k: SimplicialComplex):
    none = derived_subdivision(k, set())
    used = sorted({v for f in k.facets for v in f})
    assert none.vertex_simplices == tuple((v,) for v in used)
    assert {tuple(used[v] for v in f) for f in none.complex.facets} == set(k.facets)
    if len(used) == k.vertex_count:
        assert none.complex == k
    every = derived_subdivision(k, k.simplex_set())
    oracle = _flag_oracle(k)
    assert every.vertex_simplices == oracle.vertex_simplices
    assert every.complex.facets == oracle.complex.facets
    assert barycentric_subdivision(k).complex.facets == every.complex.facets


def _pair_with(monkeypatch, attr, mutant_for):
    """How many cases the oracles catch with sqh.actions.<attr> replaced by mutant_for(the case's model action)."""
    caught = 0
    for _, action, handle in _cases():  # fresh actions: nothing cached from the engine as it is
        monkeypatch.setattr(sqh.actions, attr, mutant_for(action))
        try:
            _assert_pair_is_right(action, handle)
        except AssertionError:
            caught += 1
    return caught


def test_oracles_catch_starring_the_moved_simplices_without_their_cofaces(monkeypatch):
    assert _pair_with(monkeypatch, "_with_cofaces", lambda model: lambda k, simplices: set(simplices)) > 0


def test_oracles_catch_a_fixed_set_without_the_fixed_barycentres(monkeypatch):
    orig = sqh.actions._fixed_vertices

    def vertices_only(model):
        # Y′ numbers the vertices of X first, then the barycentres
        return lambda on: [v for v in orig(on) if v < model.complex.vertex_count]

    assert _pair_with(monkeypatch, "_fixed_vertices", vertices_only) > 0


def test_derived_subdivision_property_against_the_stellar_oracle():
    """Random complexes: nothing starred gives K, everything starred gives the flag
    oracle, and a random upward-closed set gives the stellar construction."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    facets = st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4), min_size=1, max_size=5)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(facets, st.integers(0, 2**32))
    def check(facet_sets, seed):
        k = SimplicialComplex(6, facet_sets)
        _assert_extremes(k)
        simplices = [s for level in k.simplices() for s in level]
        seeds = random.Random(seed).sample(simplices, min(2, len(simplices)))
        sd = derived_subdivision(k, _upward_closure(k, seeds))
        assert _relabelled(sd) == _stellar_oracle(k, _upward_closure(k, seeds))

    check()


def test_starred_pair_property_on_random_prime_order_subgroups():
    """b(Y′, F′) = b(sd X, X^H) over Q and F_p, H of prime order p generated in B_3 or B_4."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def drawn(n):
        signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
        return st.tuples(st.just(n), st.permutations(range(1, n + 1)), signs)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from((3, 4)).flatmap(drawn), st.integers(0, 3))
    def check(data, pick):
        n, perm, signs = data
        action = signed_permutation_action(n, [SignedPermutation(tuple(perm), tuple(signs))])
        primes = sorted(prime_factors(action.order))
        if not primes:
            return
        p = primes[pick % len(primes)]
        g = next(i for i in range(1, action.order) if action.element_order(i) == p)
        handle = action.subgroup(action.closure_indices({g}))
        y, f = _starred_pair(action, handle)
        full_y, full_f = _full_subdivision_pair(action, handle)
        fields = [RATIONALS, FieldSpec(p)]
        assert relative_betti(chain_complex(y), f, fields) == relative_betti(chain_complex(full_y), full_f, fields)

    check()


def test_every_starred_complex_a_run_builds_fits_in_sd_of_x(monkeypatch):
    """|Y′| ≤ |sd(X)| for the group and every subgroup a run stars, so the cap's check of sd(X) bounds them.

    τ∗b(σ_1…σ_r) ↦ (the prefixes of τ) < σ_1 < … < σ_r injects Y′ into sd(X).
    """
    sizes = []
    derived = sqh.actions.derived_subdivision

    def recorded(k, starred):
        sub = derived(k, starred)
        sizes.append((sum(sub.complex.f_vector()), subdivided_size(k.f_vector(), 1)))
        return sub

    monkeypatch.setattr(sqh.actions, "derived_subdivision", recorded)
    for sc in CORPUS_SCENARIOS + nonabelian_workload():
        run_scenario(sc)
    assert len(sizes) > 10 and all(starred <= sd for starred, sd in sizes), sizes
