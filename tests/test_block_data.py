"""What the block data of a join model fixes, checked against the routes that compute it.

A character_join or signed_permutation model is a join of polygons and
vertex pairs, built by `models.block_model`.  The engine reads three things
off its blocks instead of computing them: the sweep's size forecast (a dot
product with per-simplex subdivision totals), the model's homology (the
sphere's row) and each element's Lefschetz number (1 + (-1)^{n-1} det g).
Each is compared here with the route it replaced: subdividing the f-vector
per draw, the ranks of the model's chain complex, and the simplex scan.
"""

import random
import sys
from math import gcd, lcm

import pytest

import sqh.scenarios
from test_acceptance import CORPUS_SCENARIOS
from conftest import nonabelian_workload
from sqh.actions import _lefschetz_scan, lefschetz_numbers, model_betti
from sqh.complexes import chain_complex, subdivided_f_vector
from sqh.errors import InvalidParameter
from sqh.homology import FieldSpec, betti, prime_factors
from sqh.models import DEFAULT_MAX_BLOCKS, SignedPermutation, join_f_vector, signed_permutation_action
from sqh.scenarios import (
    DEFAULT_FIELDS,
    Scenario,
    build_model,
    builtin,
    predicted_model_size,
    random_character_data,
    run_scenario,
    sweep_scenarios,
)

SWEEP_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:5")
CATALOG = [builtin("lens", 7, 2), builtin("lens", 5, 2), builtin("rp", 4), builtin("quaternion_q8")]
# every built-kind scenario of the acceptance corpus and the benchmark, once
BUILT_SCENARIOS = [
    sc
    for sc in {sc.name: sc for sc in [*CORPUS_SCENARIOS, *nonabelian_workload(), *CATALOG]}.values()
    if sc.kind != "explicit"
]
SWEEP_DRAWS = sweep_scenarios(6, 200, 7, DEFAULT_FIELDS, 200_000)[0]


def _forecast_oracle(data) -> int:
    """The sweep's size forecast computed per draw, as the engine did before its table.

    The model's f-vector is subdivided once, and again when some polygon is
    shorter than twice its character's order; the orders are taken here
    from the characters, not from the data's own record.
    """
    orders = [lcm(*(m // gcd(a, m) for a, m in zip(ch, data.invariant_factors))) for ch in data.rotation_characters]
    f = subdivided_f_vector(join_f_vector(data.block_lengths))
    if any(data.polygon_length(j) < 2 * d and d > 1 for j, d in enumerate(orders)):
        f = subdivided_f_vector(f)
    return sum(f)


def _oracle_stream(n_max, samples, seed, fields, max_model_simplices):
    """`sweep_scenarios` with the oracle's forecast: scenario JSON and the rejected count."""
    rng = random.Random(seed)
    out, rejected = [], 0
    while len(out) < samples:
        data = random_character_data(rng, n_max)
        if _forecast_oracle(data) > max_model_simplices:
            rejected += 1
            continue
        out.append(
            Scenario(
                name=f"sweep-{seed}-{len(out)}",
                space={"character_join": data.to_json_dict()},
                fields=tuple(fields),
                checks=("abelian_bound", "cover_e1", "evaluate_all"),
                seed=seed,
                snf_cap=0,
            ).to_json_dict()
        )
    return out, rejected


@pytest.mark.parametrize("n_max", [4, 6, 8])
def test_forecast_equals_the_per_draw_subdivision(n_max):
    rng = random.Random(1000 + n_max)
    for _ in range(2000):
        data = random_character_data(rng, n_max)
        assert predicted_model_size(data) == _forecast_oracle(data), data


@pytest.mark.parametrize("seed", range(11))
def test_sweep_stream_equals_the_oracle_driven_loop(seed):
    """The benchmark's pool: the same scenarios in the same order, and the same rejected count."""
    scenarios, rejected = sweep_scenarios(6, 1500, seed, SWEEP_FIELDS, 200_000)
    assert ([sc.to_json_dict() for sc in scenarios], rejected) == _oracle_stream(6, 1500, seed, SWEEP_FIELDS, 200_000)


def test_character_draws_past_n_max_8_stay_within_the_block_cap():
    for seed in range(12):
        rng = random.Random(seed)
        for _ in range(200):
            data = random_character_data(rng, 10)
            assert data.block_count <= DEFAULT_MAX_BLOCKS
            assert data.ambient_dimension <= 10


def test_field_labels_parse_to_one_field_each():
    assert FieldSpec.parse("Fp:5") is FieldSpec.parse("Fp:5") == FieldSpec(5)
    with pytest.raises(InvalidParameter, match="unknown field label"):
        FieldSpec.parse("Fp:x")


@pytest.fixture(scope="module")
def models():
    return [build_model(sc) for sc in BUILT_SCENARIOS + SWEEP_DRAWS]


def test_join_f_vector_counts_the_built_models(models):
    for model in models:
        assert join_f_vector(model.action.block_lengths) == model.action.complex.f_vector()


def test_lefschetz_determinant_equals_the_scan(models):
    """L(g) from det g against the simplex scan, on every built model and three small ones."""
    s0 = build_model(builtin("trivial_sphere", 1)).action
    # on the octahedron: the reflection in z = 0 and the half-turn about the z-axis
    reflection = signed_permutation_action(3, [SignedPermutation((1, 2, 3), (1, 1, -1))])
    half_turn = signed_permutation_action(3, [SignedPermutation((1, 2, 3), (-1, -1, 1))])
    for action in [m.action for m in models] + [s0, reflection, half_turn]:
        assert action.block_lengths is not None
        assert lefschetz_numbers(action) == _lefschetz_scan(action), action
    assert lefschetz_numbers(s0) == (2,)
    assert lefschetz_numbers(reflection) == (2, 0)
    assert lefschetz_numbers(half_turn) == (2, 2)


def test_explicit_complexes_keep_the_scan():
    action = build_model(builtin("dihedral_on_s1", 5)).action
    assert action.block_lengths is None
    assert lefschetz_numbers(action) == _lefschetz_scan(action)


def test_model_homology_is_the_computed_sphere_row(models):
    """The sphere row the engine writes equals the model's computed homology, over the
    scenario's fields and the primes of |G|."""
    for sc, model in zip(BUILT_SCENARIOS + SWEEP_DRAWS, models):
        action = model.action
        labels = dict.fromkeys([*sc.fields, *(f"Fp:{p}" for p in prime_factors(action.order))])
        fields = [FieldSpec.parse(label) for label in labels]
        computed = betti(chain_complex(action.complex), fields)
        written = model_betti(action, fields)
        assert written == computed, sc.name
        assert written.torsion is None


def test_run_scenario_takes_no_chain_complex_of_a_built_model(monkeypatch):
    built, chained = [], []
    build = sqh.scenarios.build_model

    def capture(scenario):
        bundle = build(scenario)
        built.append(bundle.action.complex)
        return bundle

    def count(complex_, *args, **kwargs):
        chained.append(complex_)
        return chain_complex(complex_, *args, **kwargs)

    monkeypatch.setattr(sqh.scenarios, "build_model", capture)
    for module in [m for name, m in sys.modules.items() if name.startswith("sqh")]:
        if vars(module).get("chain_complex") is chain_complex:
            monkeypatch.setattr(module, "chain_complex", count)
    for sc in CATALOG:
        run_scenario(sc)
    assert len(built) == len(CATALOG)
    assert not any(c is model for c in chained for model in built)
    assert all(model._chain is None for model in built)
