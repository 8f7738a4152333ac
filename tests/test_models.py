import json

import pytest

from sqh.actions import is_admissible, make_admissible_and_quotient
from sqh.complexes import (
    chain_complex,
    euler_characteristic,
    join,
    zero_sphere,
)
from sqh.errors import InvalidParameter
from sqh.homology import F2, F3, F5, RATIONALS, betti
from sqh.models import (
    AbelianCharacterData,
    SignedPermutation,
    character_join_model,
    cover_e1_total,
    cross_polytope,
    local_model_betti,
    signed_permutation_action,
)
from sqh.scenarios import Scenario, build_model


def quotient_betti(action, fields):
    res = make_admissible_and_quotient(action)
    return betti(chain_complex(res.complex), fields)


def test_cross_polytope_octahedron():
    k = cross_polytope(3)
    assert k.vertex_count == 6
    assert len(k.facets) == 8
    assert euler_characteristic(k) == 2


def test_cross_polytope_one_is_zero_sphere():
    assert cross_polytope(1) == zero_sphere()


def test_cross_polytope_invalid():
    with pytest.raises(InvalidParameter):
        cross_polytope(0)


def test_cross_polytope_four_is_three_sphere():
    table = betti(chain_complex(cross_polytope(4)), [RATIONALS])
    assert table.betti(RATIONALS) == (1, 0, 0, 1)


def test_cross_polytope_no_antipodal_pairs():
    n = 4
    k = cross_polytope(n)
    for level in k.simplices():
        for s in level:
            assert not any(v ^ 1 in s for v in s)


def test_iterated_join_of_zero_spheres_matches_cross_polytope():
    for n in (2, 3, 4):
        j = zero_sphere()
        for _ in range(n - 1):
            j = join(j, zero_sphere())
        # block i occupies vertices 2i, 2i+1, which are +e_{i+1} and -e_{i+1}
        assert j == cross_polytope(n)


def test_signed_permutation_validation():
    with pytest.raises(InvalidParameter):
        SignedPermutation((1, 1), (1, 1))
    with pytest.raises(InvalidParameter):
        SignedPermutation((1, 2), (1, 0))


def test_signed_permutation_antipodal_free_action():
    anti = SignedPermutation((1, 2, 3), (-1, -1, -1))
    a = signed_permutation_action(3, [anti])
    assert a.order == 2
    g = a.elements[1]
    assert all(g[v] != v for v in range(6))
    assert is_admissible(a)


def test_signed_permutation_q8():
    gen_i = SignedPermutation((2, 1, 4, 3), (-1, 1, -1, 1))
    gen_j = SignedPermutation((3, 4, 1, 2), (-1, 1, 1, -1))
    a = signed_permutation_action(4, [gen_i, gen_j])
    assert a.order == 8
    i_idx, j_idx = a.generator_indices
    minus_one = a.mult(i_idx, i_idx)
    assert minus_one != 0
    assert a.mult(j_idx, j_idx) == minus_one
    assert a.mult(minus_one, minus_one) == 0
    ij, ji = a.mult(i_idx, j_idx), a.mult(j_idx, i_idx)
    assert ji == a.mult(minus_one, ij)


def test_signed_permutation_s3_coordinates():
    gens = [
        SignedPermutation((2, 1, 3), (1, 1, 1)),
        SignedPermutation((2, 3, 1), (1, 1, 1)),
    ]
    assert signed_permutation_action(3, gens).order == 6


def test_character_data_validation():
    with pytest.raises(InvalidParameter):
        AbelianCharacterData((3,), (), ((1,),))  # sign character on odd order
    with pytest.raises(InvalidParameter):
        AbelianCharacterData((4,), ((1, 0),), ())  # wrong character length
    with pytest.raises(InvalidParameter):
        character_join_model(AbelianCharacterData((4,), (), ()))  # no blocks
    with pytest.raises(InvalidParameter):
        character_join_model(AbelianCharacterData((128,), ((1,),), ()))  # factor cap


def test_character_data_normalizes_mod_m():
    d = AbelianCharacterData((5,), ((7,),), ())
    assert d.rotation_characters == ((2,),)
    assert d.rotation_orders == (5,)


def test_character_join_lens_model_structure():
    data = AbelianCharacterData((5,), ((1,), (1,)), ())
    model = character_join_model(data)
    assert model.action.order == 5
    assert model.kernel_order == 1
    assert model.action.complex.vertex_count == 10
    assert len(model.action.complex.facets) == 25
    assert model.action.complex.dimension == 3  # S^3
    g = model.action.elements[1]
    assert all(g[v] != v for v in range(10))


def test_character_join_triple_sign_is_antipodal_sphere():
    data = AbelianCharacterData((2,), (), ((1,), (1,), (1,)))
    model = character_join_model(data)
    assert model.action.order == 2
    assert euler_characteristic(model.action.complex) == 2
    t1 = quotient_betti(model.action, [RATIONALS, F2, F3])
    anti = signed_permutation_action(3, [SignedPermutation((1, 2, 3), (-1, -1, -1))])
    t2 = quotient_betti(anti, [RATIONALS, F2, F3])
    for f in (RATIONALS, F2, F3):
        assert t1.betti(f) == t2.betti(f) == ((1, 1, 1) if f == F2 else (1, 0, 0))


def test_character_join_discards_kernel():
    data = AbelianCharacterData((6,), ((2,),), ())
    model = character_join_model(data)
    assert model.action.order == 3
    assert model.kernel_order == 2
    assert data.block_lengths == (3,)


def test_character_join_trivial_characters_give_sphere():
    data = AbelianCharacterData((4,), ((0,), (0,)), ((0,),))
    model = character_join_model(data)
    assert model.action.order == 1
    table = quotient_betti(model.action, [RATIONALS, F2])
    assert table.betti(RATIONALS) == (1, 0, 0, 0, 1)


def test_cross_validation_rotation_vs_signed_permutation():
    # the order-2 rotation of a circle, both ways
    data = AbelianCharacterData((2,), ((1,),), ())
    model = character_join_model(data)
    assert data.block_lengths == (4,)
    t1 = quotient_betti(model.action, [RATIONALS, F2, F3])
    sp = signed_permutation_action(2, [SignedPermutation((1, 2), (-1, -1))])
    t2 = quotient_betti(sp, [RATIONALS, F2, F3])
    for f in (RATIONALS, F2, F3):
        assert t1.betti(f) == t2.betti(f) == (1, 1)
    # the antipodal map as n sign characters and as a signed permutation: one model
    for n in (1, 2, 3):
        signs = character_join_model(AbelianCharacterData((2,), (), ((1,),) * n)).action
        anti = signed_permutation_action(n, [SignedPermutation(tuple(range(1, n + 1)), (-1,) * n)])
        assert signs.complex == anti.complex
        assert signs.complex.facets == anti.complex.facets
        assert (signs.elements, signs.generator_indices) == (anti.elements, anti.generator_indices)


def test_local_model_betti_pure_rotation_torus():
    data = AbelianCharacterData((5,), ((1,), (2,)), ())
    assert local_model_betti(data, (1, 2)) == (1, 2, 1)


def test_local_model_betti_trivial_signs():
    data = AbelianCharacterData((2,), (), ((0,), (0,)))
    assert local_model_betti(data, (1, 2)) == (4,)


def test_local_model_betti_mixed_surjective_sign():
    data = AbelianCharacterData((2,), ((1,),), ((1,),))
    assert local_model_betti(data, (1, 2)) == (1, 1)


def test_block_cover_index_validation():
    data = AbelianCharacterData((2,), ((1,),), ((1,),))
    assert [(j, a, b) for j, a, b, _, _ in cover_e1_total(data).per_j] == [((1,), 1, 0), ((2,), 0, 1), ((1, 2), 1, 1)]
    with pytest.raises(InvalidParameter):
        local_model_betti(data, ())
    with pytest.raises(InvalidParameter):
        local_model_betti(data, (3,))
    with pytest.raises(InvalidParameter):
        local_model_betti(data, (0, 1))


def test_cover_e1_single_rotation_block():
    data = AbelianCharacterData((7,), ((1,),), ())
    report = cover_e1_total(data)
    assert report.total == 2 == 3**1 - 1


def test_cover_e1_two_rotation_blocks():
    data = AbelianCharacterData((5,), ((1,), (2,)), ())
    report = cover_e1_total(data)
    assert report.total == 8 == 3**2 - 1
    assert sorted(r[4] for r in report.per_j) == [2, 2, 4]


def test_cover_e1_three_trivial_sign_blocks():
    data = AbelianCharacterData((2,), (), ((0,), (0,), (0,)))
    assert cover_e1_total(data).total == 26


def test_cover_e1_pieces_bounded_by_2_pow_j():
    data = AbelianCharacterData((4, 2), ((1, 0), (3, 1)), ((0, 1), (1, 1)))
    report = cover_e1_total(data)
    for indices, a, b, bs, sub in report.per_j:
        assert sub == bs[0] * 2**a if a == 0 else True
        assert sub <= 2 ** len(indices)
    assert report.total <= 3 ** data.block_count - 1


def test_character_data_json_round_trip():
    """Character data's JSON is read back by `build_model`, the one reader, as a character_join space."""
    data = AbelianCharacterData((4, 2), ((1, 1),), ((0, 1),))
    blob = json.loads(json.dumps(data.to_json_dict()))
    assert build_model(Scenario(name="d", space={"character_join": blob}, fields=("Q",))).char_data == data
    sp = SignedPermutation((2, 1), (-1, 1))
    assert SignedPermutation.from_json_dict(sp.to_json_dict()) == sp
