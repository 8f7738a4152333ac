"""The generator-based group algorithms against brute-force oracles.

`sqh.actions` tests closure, commutativity, conjugacy and Sylow growth on
generating sets.  Here each result is compared with the quadratic
definition, on every distinct group of the acceptance corpus and of the
benchmark's nonabelian workload.  The subgroups compared are those of
`all_subgroups` for groups of order up to 48.  For B_4 (order 384), whose
lattice `all_subgroups` does not enumerate in minutes, they are seeded
random closures.
"""

import random

import pytest

from test_acceptance import CORPUS_SCENARIOS
from test_perfbench_gate import _load
from sqh.actions import (
    all_subgroups,
    best_abelian_normal_subgroup,
    center,
    conjugacy_classes,
    sylow,
)
from sqh.errors import InvalidParameter
from sqh.homology import prime_factors
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
