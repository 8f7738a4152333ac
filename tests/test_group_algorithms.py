"""The generator-based group algorithms against brute-force oracles.

`sqh.actions` tests closure, commutativity, conjugacy and Sylow growth on
generating sets.  Here each result is compared with the quadratic
definition, on every distinct group of the acceptance corpus and of the
benchmark's nonabelian workload.  The subgroups compared are those of
`all_subgroups` for groups of order up to 48.  For B_4 (order 384), whose
lattice `all_subgroups` does not enumerate in minutes, they are seeded
random closures.  The table arithmetic these oracles use is itself checked
against composition of the vertex tuples, on random subgroups of B_3 and
B_4 and on their restricted and carried actions.
"""

import random

import pytest

from test_acceptance import CORPUS_SCENARIOS
from test_perfbench_gate import _load
from sqh.actions import (
    _carried,
    admissible_subdivision,
    all_subgroups,
    best_abelian_normal_subgroup,
    block_determinant,
    center,
    conjugacy_classes,
    is_admissible,
    lefschetz_numbers,
    sylow,
)
from sqh.complexes import barycentric_subdivision
from sqh.errors import InvalidParameter
from sqh.homology import prime_factors
from sqh.models import SignedPermutation, signed_permutation_action
from sqh.scenarios import build_model

ALL_SUBGROUPS_MAX_ORDER = 48
CLASS_ENUM_CAP = 14  # nontrivial classes best_abelian_normal_subgroup searches over


def _distinct_groups():
    """(name, action) for each distinct group acting on a distinct complex, in corpus order."""
    scenarios = CORPUS_SCENARIOS + _load("workloads").nonabelian_scenarios()
    seen = set()
    out = []
    for sc in scenarios:
        action = build_model(sc).action
        key = (action.complex, frozenset(action.elements))
        if key not in seen:
            seen.add(key)
            out.append((sc.name, action))
    return out


GROUPS = _distinct_groups()
_subgroup_cache: dict = {}


def _brute_closure(action, seed) -> tuple:
    group = {0} | set(seed)
    while True:
        grown = group | {action.mult(a, b) for a in group for b in group}
        if grown == group:
            return tuple(sorted(group))
        group = grown


def _conjugate(action, g, x) -> int:
    return action.mult(action.mult(g, x), action.inv(g))


def _is_p_power(n: int, p: int) -> bool:
    return not prime_factors(n).keys() - {p}


def _subgroups(name, action):
    """Reference subgroups: the whole lattice when small, else seeded random closures."""
    if name not in _subgroup_cache:
        if action.order <= ALL_SUBGROUPS_MAX_ORDER:
            handles = all_subgroups(action)
        else:
            rng = random.Random(7)
            seeds = [rng.sample(range(1, action.order), rng.randint(1, 2)) for _ in range(12)]
            indices = {_brute_closure(action, seed) for seed in seeds}
            handles = [action.subgroup(idx) for idx in sorted(indices, key=lambda t: (len(t), t))]
            handles.append(action.full_subgroup())
        _subgroup_cache[name] = handles
    return _subgroup_cache[name]


def _ids(groups):
    return [name for name, _ in groups]


@pytest.mark.parametrize("name, action", GROUPS, ids=_ids(GROUPS))
def test_closure_indices_matches_brute_force(name, action):
    rng = random.Random(11)
    for _ in range(10):
        seed = rng.sample(range(action.order), min(action.order, rng.randint(1, 3)))
        assert action.closure_indices(seed) == _brute_closure(action, seed)


@pytest.mark.parametrize("name, action", GROUPS, ids=_ids(GROUPS))
def test_subgroup_flags_and_generators_match_brute_force(name, action):
    for h in _subgroups(name, action):
        handle = action.subgroup(h.indices)
        members = set(h.indices)
        abelian = all(action.mult(a, b) == action.mult(b, a) for a in members for b in members)
        assert (handle.indices, handle.order) == (h.indices, len(members))
        assert handle.is_abelian == abelian
        assert _brute_closure(action, handle.generators) == h.indices
        # the restricted action's generators generate all of it
        restricted = action.restrict(handle)
        assert len(_brute_closure(restricted, restricted.generator_indices)) == restricted.order


@pytest.mark.parametrize("name, action", GROUPS, ids=_ids(GROUPS))
def test_subgroup_rejects_sets_that_are_not_closed(name, action):
    rng = random.Random(13)
    candidates = [rng.sample(range(action.order), rng.randint(1, action.order)) for _ in range(10)]
    for h in _subgroups(name, action)[:20]:
        outside = [g for g in range(action.order) if g not in h.indices]
        if outside:
            candidates.append(h.indices + (rng.choice(outside),))
        if h.order > 1:
            candidates.append(tuple(i for i in h.indices if i != h.indices[-1]))
    for subset in candidates:
        members = set(subset) | {0}
        if _brute_closure(action, members) == tuple(sorted(members)):
            assert action.subgroup(subset).indices == tuple(sorted(members))
        else:
            with pytest.raises(InvalidParameter):
                action.subgroup(subset)


def _quadratic_sylow(action, handle, p) -> tuple:
    """The Sylow growth with its normalizer computed over every element of P."""
    order, target = handle.order, 1
    while order % p == 0:
        order //= p
        target *= p
    current = (0,)
    while len(current) < target:
        inside = set(current)
        normalizer = [h for h in handle.indices if all(_conjugate(action, h, x) in inside for x in current)]
        for g in normalizer:
            if g in inside or not _is_p_power(action.element_order(g), p):
                continue
            grown = _brute_closure(action, inside | {g})
            if _is_p_power(len(grown), p):
                current = grown
                break
    return current


@pytest.mark.parametrize("name, action", GROUPS, ids=_ids(GROUPS))
def test_sylow_matches_the_quadratic_algorithm(name, action):
    handles = _subgroups(name, action)
    if action.order > ALL_SUBGROUPS_MAX_ORDER:
        handles = handles[-4:]  # the largest random closures and the whole group
    for handle in handles:
        for p in [*prime_factors(handle.order), 5]:
            got = sylow(action, handle, p)
            assert got.indices == _quadratic_sylow(action, handle, p)
            assert sylow(action, handle, p) is got  # once per (subgroup, p)
            assert got == action.subgroup(got.indices)


@pytest.mark.parametrize("name, action", GROUPS, ids=_ids(GROUPS))
def test_conjugacy_classes_and_center_match_brute_force(name, action):
    handles = _subgroups(name, action)
    if action.order > ALL_SUBGROUPS_MAX_ORDER:
        handles = handles[-4:]
    for handle in handles:
        members = handle.indices
        classes = sorted({tuple(sorted({_conjugate(action, g, x) for g in members})) for x in members})
        # the subgroup's classes are its restriction's, whose elements keep their order
        restricted = conjugacy_classes(action.restrict(handle))
        assert [tuple(members[k] for k in c) for c in restricted] == classes
        z = tuple(i for i in members if all(action.mult(i, j) == action.mult(j, i) for j in members))
        assert center(action, handle).indices == z
    everything = range(action.order)
    assert conjugacy_classes(action) == sorted(
        {tuple(sorted({_conjugate(action, g, x) for g in everything})) for x in everything}
    )


@pytest.mark.parametrize("name, action", GROUPS, ids=_ids(GROUPS))
def test_best_abelian_normal_subgroup_matches_brute_force(name, action):
    got = best_abelian_normal_subgroup(action)
    everything = range(action.order)
    classes = {frozenset(_conjugate(action, g, x) for g in everything) for x in everything}
    if len(classes) - 1 > CLASS_ENUM_CAP:
        # more nontrivial classes than the search takes: the center, flagged
        z = tuple(i for i in everything if all(action.mult(i, j) == action.mult(j, i) for j in everything))
        assert (got.indices, got.via_fallback) == (z, True)
        return
    assert not got.via_fallback

    def normal(h):
        return all(_conjugate(action, g, x) in h.indices for g in everything for x in h.indices)

    best = min((h for h in all_subgroups(action) if normal(h) and h.is_abelian), key=lambda h: (-h.order, h.indices))
    assert (got.indices, normal(got), got.is_abelian) == (best.indices, True, True)


def _hyperoctahedral(n: int):
    """B_n, every signed permutation of n axes, on the boundary of the n-cross-polytope."""
    gens = [SignedPermutation((2, 1, *range(3, n + 1)), (1,) * n),
            SignedPermutation((*range(2, n + 1), 1), (1,) * n),
            SignedPermutation(tuple(range(1, n + 1)), (-1,) + (1,) * (n - 1))]
    return signed_permutation_action(n, gens)


HYPEROCTAHEDRAL = {n: _hyperoctahedral(n) for n in (3, 4)}


def _composed(a, b) -> tuple:
    """The vertex permutation a after b, composed on the tuples."""
    return tuple(a[x] for x in b)


def _table_matches_tuples(action, samples) -> None:
    """Table products, inverses, orders and classes equal those of the vertex tuples, at sampled elements."""
    elements = action.elements
    index = {e: i for i, e in enumerate(elements)}
    identity = elements[0]
    for i, j in samples:
        i, j = i % action.order, j % action.order
        assert action.mult(i, j) == index[_composed(elements[i], elements[j])]
        inverse = elements[action.inv(i)]
        assert _composed(inverse, elements[i]) == identity
        power, order = elements[i], 1
        while power != identity:
            power, order = _composed(power, elements[i]), order + 1
        assert action.element_order(i) == order
    classes = conjugacy_classes(action)
    assert sorted(x for c in classes for x in c) == list(range(action.order))
    for cls in classes[:: max(1, len(classes) // 4)]:
        x = elements[cls[-1]]
        brute = {index[_composed(_composed(g, x), tuple(sorted(range(len(g)), key=g.__getitem__)))] for g in elements}
        assert tuple(sorted(brute)) == cls


def test_table_arithmetic_matches_vertex_composition():
    """On random subgroups of B_3 and B_4, and on their restricted and carried actions,
    the table's arithmetic is that of the vertex tuples, and det is `block_determinant`'s."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    subdivisions = {n: barycentric_subdivision(a.complex) for n, a in HYPEROCTAHEDRAL.items()}
    seeds = st.lists(st.integers(1, 10**6), min_size=1, max_size=3)
    pairs = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(sorted(HYPEROCTAHEDRAL)), seeds, pairs)
    def check(n, seed, samples):
        action = HYPEROCTAHEDRAL[n]
        handle = action.subgroup(action.closure_indices(s % action.order for s in seed))
        restricted = action.restrict(handle)
        carried = [_carried(restricted, subdivisions[n])]
        if not is_admissible(restricted):
            carried.append(admissible_subdivision(restricted))
        for a in (restricted, *carried):
            _table_matches_tuples(a, samples)
        assert all(a.table is restricted.table for a in carried)
        sign = (-1) ** (n - 1)
        for a in (action, restricted):
            assert lefschetz_numbers(a) == tuple(1 + sign * block_determinant(e, a.block_lengths) for e in a.elements)

    check()
