import itertools
import random

import pytest

from conftest import octahedron, random_small_complex
from sqh import actions
from test_acceptance import CORPUS_SCENARIOS
from sqh.actions import (
    VertexAction,
    all_subgroups,
    best_abelian_normal_subgroup,
    center,
    close_generators,
    conjugacy_classes,
    fixed_subcomplex,
    induced_action_on_subdivision,
    is_admissible,
    make_admissible_and_quotient,
    quotient_complex,
    sylow,
)
from sqh.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    chain_complex,
    euler_characteristic,
    polygon,
)
from sqh.errors import ActionInvalid, GroupTooLarge, InvalidParameter, NeedsSubdivision
from sqh.homology import F2, F3, F5, RATIONALS, betti
from sqh.models import SignedPermutation, signed_permutation_action
from sqh.scenarios import build_model


def cross4():
    facets = [(a, b, c, d) for a in (0, 4) for b in (1, 5) for c in (2, 6) for d in (3, 7)]
    return SimplicialComplex(8, facets)


def q8_action():
    # left multiplication by i and j on the basis (1, i, j, k); +q = 0..3, -q = 4..7
    gen_i = (1, 4, 3, 6, 5, 0, 7, 2)
    gen_j = (2, 7, 4, 1, 6, 3, 0, 5)
    return close_generators(cross4(), [gen_i, gen_j])


def s3_action():
    # coordinate transposition (e1 e2) and 3-cycle (e1 e2 e3) on the octahedron
    return close_generators(octahedron(), [(1, 0, 2, 4, 3, 5), (1, 2, 0, 4, 5, 3)])


def antipodal_action():
    return close_generators(octahedron(), [(3, 4, 5, 0, 1, 2)])


def test_close_generators_cyclic_rotation():
    a = close_generators(polygon(4), [(1, 2, 3, 0)])
    assert a.order == 4
    assert a.elements[0] == (0, 1, 2, 3)


def test_close_generators_antipodal():
    assert antipodal_action().order == 2


def test_close_generators_rejects_non_simplicial():
    # maps the edge {0,1} to {0,2}, which is not an edge of the square
    with pytest.raises(ActionInvalid, match=r"facet \(0, 1\) onto \(0, 2\), which is not a facet"):
        close_generators(polygon(4), [(0, 2, 1, 3)])


def test_close_generators_on_a_non_pure_complex():
    # two triangles joined by the edge (2, 3): swapping 0 and 1, and the
    # reflection through that edge, generate its automorphisms (order 8)
    k = SimplicialComplex(6, [(0, 1, 2), (2, 3), (3, 4, 5)])
    assert close_generators(k, [(1, 0, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)]).order == 8
    # (2 3) keeps the edge but sends the triangle (0, 1, 2) onto (0, 1, 3)
    with pytest.raises(ActionInvalid, match=r"facet \(0, 1, 2\) onto \(0, 1, 3\)"):
        close_generators(k, [(0, 1, 3, 2, 4, 5)])


def test_close_generators_accepts_what_maps_facets_to_simplices():
    # a vertex bijection maps every facet to a simplex iff it maps every
    # facet to a facet: compare with the face lattice on every permutation
    rng = random.Random(11)
    for _ in range(12):
        k = random_small_complex(rng)
        simplices = k.simplex_set()
        for perm in itertools.permutations(range(k.vertex_count)):
            into_lattice = all(tuple(sorted(perm[v] for v in f)) in simplices for f in k.facets)
            try:
                close_generators(k, [perm])
            except ActionInvalid:
                assert not into_lattice, (k.facets, perm)
            else:
                assert into_lattice, (k.facets, perm)


def test_close_generators_rejects_non_bijection():
    with pytest.raises(ActionInvalid):
        close_generators(polygon(3), [(0, 0, 1)])


def test_close_generators_cap(monkeypatch):
    monkeypatch.setattr(actions, "DEFAULT_ELEMENT_CAP", 5)
    with pytest.raises(GroupTooLarge):
        close_generators(polygon(12), [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0)])


def test_q8_closure_and_multiplication_table():
    a = q8_action()
    assert a.order == 8
    i_idx, j_idx = a.generator_indices
    # i^2 = j^2 = (ij)^2 = -1, the unique central involution
    i2 = a.mult(i_idx, i_idx)
    j2 = a.mult(j_idx, j_idx)
    ij = a.mult(i_idx, j_idx)
    assert i2 == j2 == a.mult(ij, ij) != 0
    assert a.element_order(i_idx) == 4 and a.element_order(j_idx) == 4
    assert a.mult(i_idx, j_idx) != a.mult(j_idx, i_idx)


def test_is_admissible_examples():
    refl = close_generators(polygon(3), [(1, 0, 2)])
    assert not is_admissible(refl)
    assert is_admissible(antipodal_action())
    assert not is_admissible(s3_action())


def test_admissible_after_one_subdivision():
    for action in (s3_action(), q8_action(), close_generators(polygon(3), [(1, 0, 2)])):
        sd = barycentric_subdivision(action.complex)
        assert is_admissible(induced_action_on_subdivision(action, sd))


def test_induced_action_rotation_square():
    a = close_generators(polygon(4), [(1, 2, 3, 0)])
    sd = barycentric_subdivision(a.complex)
    b = induced_action_on_subdivision(a, sd)
    assert b.order == 4
    assert b.complex.vertex_count == 8


def test_induced_action_identity_only():
    a = close_generators(polygon(4), [])
    sd = barycentric_subdivision(a.complex)
    b = induced_action_on_subdivision(a, sd)
    assert b.order == 1 and b.complex.vertex_count == 8


def test_induced_antipodal_has_no_fixed_vertex():
    a = antipodal_action()
    # oracle: no simplex of the octahedron is antipodal-invariant
    g = a.elements[1]
    for level in a.complex.simplices():
        for s in level:
            assert tuple(sorted(g[v] for v in s)) != s
    b = induced_action_on_subdivision(a, barycentric_subdivision(a.complex))
    assert b.complex.vertex_count == 26
    assert all(b.elements[1][v] != v for v in range(26))


def test_induced_action_rejects_foreign_subdivision():
    a = antipodal_action()
    sd = barycentric_subdivision(polygon(4))
    with pytest.raises(InvalidParameter):
        induced_action_on_subdivision(a, sd)


def test_quotient_rejects_unsubdivided_rotation():
    a = close_generators(polygon(3), [(1, 2, 0)])
    with pytest.raises(NeedsSubdivision):
        quotient_complex(a)


def test_quotient_circle_by_rotation():
    a = close_generators(polygon(5), [(1, 2, 3, 4, 0)])
    res = make_admissible_and_quotient(a)
    assert res.subdivisions <= 2
    table = betti(chain_complex(res.complex), [RATIONALS, F2, F3, F5])
    for f in table.fields():
        assert table.betti(f) == (1, 1)


def test_quotient_projective_plane_chi():
    a = antipodal_action()
    for _ in range(2):
        sd = barycentric_subdivision(a.complex)
        a = induced_action_on_subdivision(a, sd)
    q, proj = quotient_complex(a)
    assert euler_characteristic(q) == 1
    assert len(proj) == a.complex.vertex_count
    assert max(proj) + 1 == q.vertex_count


def test_quotient_orbit_euler_identity():
    a = antipodal_action()
    sd = barycentric_subdivision(a.complex)
    a = induced_action_on_subdivision(a, sd)
    q, proj = quotient_complex(a)
    # brute-force orbit counts per dimension
    g = a.elements[1]
    for dim, level in enumerate(a.complex.simplices()):
        orbits = set()
        for s in level:
            orbits.add(min(s, tuple(sorted(g[v] for v in s))))
        assert len(orbits) == q.f_vector()[dim]
    # free action: |G| * chi(K/G) = chi(K)
    assert 2 * euler_characteristic(q) == euler_characteristic(a.complex)


def test_make_admissible_trivial_group():
    a = close_generators(octahedron(), [])
    res = make_admissible_and_quotient(a)
    assert res.subdivisions == 0
    assert res.complex == octahedron()


def test_make_admissible_c3_triangle():
    a = close_generators(polygon(3), [(1, 2, 0)])
    res = make_admissible_and_quotient(a)
    assert res.subdivisions <= 2
    table = betti(chain_complex(res.complex), [RATIONALS])
    assert table.betti(RATIONALS) == (1, 1)


def test_make_admissible_q8():
    res = make_admissible_and_quotient(q8_action())
    assert res.subdivisions <= 2


def test_fixed_subcomplex_reflection():
    refl = close_generators(octahedron(), [(0, 1, 5, 3, 4, 2)])  # e3 -> -e3
    fixed = fixed_subcomplex(refl, refl.full_subgroup())
    assert sorted(fixed.facets) == [(0, 1), (0, 4), (1, 3), (3, 4)]


def test_fixed_subcomplex_antipodal_empty_and_trivial_full():
    a = antipodal_action()
    assert fixed_subcomplex(a, a.full_subgroup()).facets == ()
    assert fixed_subcomplex(a, a.trivial_subgroup()) == a.complex


def test_fixed_subcomplex_monotone_in_subgroup():
    a = s3_action()
    sd = barycentric_subdivision(a.complex)
    a = induced_action_on_subdivision(a, sd)
    subs = all_subgroups(a)
    for h1 in subs:
        for h2 in subs:
            if set(h1.indices) <= set(h2.indices):
                f1 = fixed_subcomplex(a, h1)
                f2 = fixed_subcomplex(a, h2)
                assert f2.simplex_set() <= f1.simplex_set()


def test_sylow_examples():
    s3 = s3_action()
    full = s3.full_subgroup()
    p3 = sylow(s3, full, 3)
    assert p3.order == 3
    assert sylow(s3, full, 5).order == 1
    q8 = q8_action()
    assert sylow(q8, q8.full_subgroup(), 2).order == 8


def test_sylow_order_is_exact_p_part():
    for action in (s3_action(), q8_action(), antipodal_action()):
        full = action.full_subgroup()
        for p in (2, 3, 5, 7):
            h = sylow(action, full, p)
            n = full.order
            expected = 1
            while n % p == 0:
                expected *= p
                n //= p
            assert h.order == expected


def test_best_abelian_normal_subgroup():
    a = antipodal_action()
    assert best_abelian_normal_subgroup(a).order == 2

    q8 = q8_action()
    n = best_abelian_normal_subgroup(q8)
    assert n.order == 4 and n.is_normal and n.is_abelian
    # oracle: enumerate all normal abelian subgroups of Q8 by brute force
    lattice = all_subgroups(q8)
    best_brute = max(
        (h for h in lattice if h.is_normal and h.is_abelian),
        key=lambda h: h.order,
    )
    assert n.order == best_brute.order
    # Q8 has a unique subgroup of order 2, its center {1, -1}
    order2 = [h for h in lattice if h.order == 2]
    assert len(order2) == 1
    assert order2[0].indices == center(q8, q8.full_subgroup()).indices

    s3 = s3_action()
    n3 = best_abelian_normal_subgroup(s3)
    assert n3.order == 3
    assert {s3.element_order(i) for i in n3.indices} == {1, 3}


def test_conjugacy_classes_s3():
    s3 = s3_action()
    sizes = sorted(len(c) for c in conjugacy_classes(s3))
    assert sizes == [1, 2, 3]


def test_center_q8():
    q8 = q8_action()
    z = center(q8, q8.full_subgroup())
    assert z.order == 2


def test_action_serialization_round_trip():
    a = s3_action()
    blob = a.to_json_dict()
    b = close_generators(SimplicialComplex.from_json_dict(blob["complex"]), blob["generators"])
    assert b.order == a.order
    assert set(b.elements) == set(a.elements)


def b4_action():
    """The full signed permutation group B_4 (order 384) on the 4-cross-polytope."""
    gens = [
        SignedPermutation((2, 1, 3, 4), (1, 1, 1, 1)),
        SignedPermutation((2, 3, 4, 1), (1, 1, 1, 1)),
        SignedPermutation((1, 2, 3, 4), (-1, 1, 1, 1)),
    ]
    return signed_permutation_action(4, gens)


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_full_subgroup_equals_checked_subgroup(scenario):
    action = build_model(scenario).action
    assert action.full_subgroup() == action.subgroup(range(action.order))


def test_full_subgroup_b4_is_nonabelian_and_normal():
    action = b4_action()
    full = action.full_subgroup()
    assert (full.order, full.is_normal, full.is_abelian) == (384, True, False)
    # only the generator pairs were multiplied, not |G|^2 products
    assert len(action._mult) <= 2 * len(action.generator_indices) ** 2
    assert full == action.subgroup(range(action.order))
