import math

import pytest

from conftest import octahedron
from sqh.actions import close_generators, make_admissible_and_quotient
from sqh.bounds import (
    BoundViolation,
    CheckResult,
    ScenarioObservation,
    abelian_bound,
    cyclic_bound,
    cyclic_chain_check,
    evaluate_all,
    finite_bound,
    jordan_combined_bound,
    jordan_constant,
    pgroup_bound,
    smith_floyd_check,
    thm13_constant,
    transfer_check,
)
from sqh.complexes import chain_complex
from sqh.errors import InvalidParameter
from sqh.homology import F2, F3, F5, RATIONALS, betti
from sqh.models import AbelianCharacterData, character_join_model, cover_e1_total


def antipodal_action():
    return close_generators(octahedron(), [(3, 4, 5, 0, 1, 2)])


def s3_action():
    return close_generators(octahedron(), [(1, 0, 2, 4, 3, 5), (1, 2, 0, 4, 5, 3)])


def test_abelian_bound_values():
    assert abelian_bound(3) == 27
    assert abelian_bound(1) == 3
    assert abelian_bound(6) == 729


def test_cyclic_bound_values():
    assert cyclic_bound(2, 2) == 18
    assert cyclic_bound(3, 1) == 12
    assert cyclic_bound(5, 0) == 0


def test_pgroup_bound_values():
    assert pgroup_bound(2, 1, 3) == 729
    assert pgroup_bound(4, 7, 0) == 7
    assert pgroup_bound(3, 2, 1) == 24


def test_finite_bound_values():
    fb = finite_bound(2, 1, 8, 2)
    assert fb.integer_form == 729
    assert abs(fb.real_form - 729.0) < 1e-9
    assert finite_bound(2, 5, 1, 3).integer_form == 5
    assert finite_bound(3, 1, 6, 3).integer_form == 12
    assert finite_bound(3, 1, 6, 3).exponent == 1


def test_finite_bound_integer_below_real():
    for d in range(4):
        for order in (1, 2, 6, 8, 48):
            for p in (2, 3, 5):
                fb = finite_bound(d, 3, order, p)
                assert fb.integer_form <= fb.real_form + 1e-9


def test_jordan_combined_values():
    assert abs(jordan_combined_bound(2, 1) - 18) < 1e-9
    assert abs(jordan_combined_bound(3, 2) - 729) < 1e-9
    assert abs(jordan_combined_bound(4, 1) - 324) < 1e-9


def test_jordan_combined_monotone():
    prev = 0.0
    for n in range(1, 7):
        v = jordan_combined_bound(n, 1)
        assert v > prev
        prev = v
    prev = 0.0
    for q in (1, 2, 5, 24, 120):
        v = jordan_combined_bound(3, q)
        assert v >= prev
        prev = v


def test_jordan_constant():
    assert jordan_constant(3) == 24
    assert jordan_constant(5) == 720


def test_thm13_values():
    assert abs(thm13_constant(1) - 9.0) < 1e-9
    assert abs(thm13_constant(2) - 9 * 6 ** math.log2(6)) < 1e-9
    assert format(thm13_constant(2), ".4g") == "924.1"
    assert abs(thm13_constant(1, natural_log=True) - 3 * 2**math.log(3)) < 1e-9
    with pytest.raises(InvalidParameter):
        thm13_constant(0)


def test_smith_floyd_antipodal_free():
    a = antipodal_action()
    r = smith_floyd_check(a, a.full_subgroup(), 2)
    assert r.passed
    assert r.detail["fixed_total"] == 0
    assert r.detail["space_total"] == 2


def test_smith_floyd_reflection_equality():
    refl = close_generators(octahedron(), [(0, 1, 5, 3, 4, 2)])
    r = smith_floyd_check(refl, refl.full_subgroup(), 2)
    assert r.passed
    assert r.detail["fixed_total"] == 2 == r.detail["space_total"]


def test_smith_floyd_trivial_subgroup():
    a = antipodal_action()
    r = smith_floyd_check(a, a.trivial_subgroup(), 2)
    assert r.passed
    assert r.detail["fixed_total"] == r.detail["space_total"]


def test_smith_floyd_rejects_non_p_group():
    s3 = s3_action()
    with pytest.raises(InvalidParameter):
        smith_floyd_check(s3, s3.full_subgroup(), 2)


def test_cyclic_chain_antipodal_rp2():
    a = antipodal_action()
    r = cyclic_chain_check(a, a.full_subgroup(), 2)
    assert r.passed
    assert r.inputs["d"] == 2 and r.inputs["k"] == 1
    assert r.detail["headline_bound"] == 9
    assert r.detail["b_Q"] == [1, 1, 1]


def test_cyclic_chain_lens51():
    model = character_join_model(AbelianCharacterData((5,), ((1,), (1,)), ()))
    full = model.action.full_subgroup()
    r = cyclic_chain_check(model.action, full, 5)
    assert r.passed
    assert r.inputs["d"] == 3 and r.inputs["k"] == 1
    assert r.detail["headline_bound"] == 12
    assert r.detail["b_Q"] == [1, 1, 1, 1]


def test_cyclic_chain_trivial_subgroup_degenerate():
    a = antipodal_action()
    r = cyclic_chain_check(a, a.trivial_subgroup(), 2)
    assert r.passed
    assert r.detail["b_Q"] == r.detail["b_Y"]


def test_transfer_s3_both_primes():
    s3 = s3_action()
    for p in (2, 3):
        r = transfer_check(s3, p)
        assert r.passed
        assert r.inputs["sylow_order"] == (2 if p == 2 else 3)
    r5 = transfer_check(s3, 5)
    assert r5.passed
    assert r5.inputs["sylow_order"] == 1


def observation_for(action, n, fields, scenario_id, data=None):
    from sqh.actions import best_abelian_normal_subgroup

    res = make_admissible_and_quotient(action)
    quotient_table = betti(chain_complex(res.complex), fields, order=action.order)
    model_table = betti(chain_complex(action.complex), fields, order=1)
    full = action.full_subgroup()
    normal = best_abelian_normal_subgroup(action)
    cover = cover_e1_total(data).total if data is not None else None
    return ScenarioObservation(
        scenario_id=scenario_id,
        ambient_n=n,
        group_order=full.order,
        is_abelian=full.is_abelian,
        quotient_table=quotient_table,
        model_table=model_table,
        abelian_normal_order=normal.order,
        abelian_via_fallback=normal.via_fallback,
        block_count=data.block_count if data is not None else None,
        cover_e1=cover,
    )


def test_evaluate_all_lens51():
    data = AbelianCharacterData((5,), ((1,), (1,)), ())
    model = character_join_model(data)
    obs = observation_for(model.action, 4, [RATIONALS, F5], "lens(5,1)", data=data)
    report = evaluate_all(obs)
    assert report.all_passed
    by_name = {(e.name, e.field): e for e in report.evaluations}
    ab = by_name[("abelian_3n", "Fp:5")]
    assert ab.value == 81 and ab.observed == 4
    assert abs(ab.slack - 20.25) < 1e-9
    cov = by_name[("cover_e1", "Fp:5")]
    assert cov.passed
    assert 4 <= cov.value <= 3**2 - 1


def test_evaluate_all_rp2():
    obs = observation_for(antipodal_action(), 3, [RATIONALS, F2], "rp(2)")
    report = evaluate_all(obs)
    assert report.all_passed
    by_name = {(e.name, e.field): e for e in report.evaluations}
    ab = by_name[("abelian_3n", "Fp:2")]
    assert ab.observed == 3 and ab.value == 27
    cy = by_name[("cyclic", "Fp:2")]
    assert cy.applicable and cy.passed and cy.value == 9
    pg = by_name[("pgroup", "Fp:2")]
    assert pg.applicable and pg.passed
    ft = by_name[("finite_transfer", "Q")]
    assert ft.passed


def test_evaluate_all_trivial_group_on_s2():
    a = close_generators(octahedron(), [])
    obs = observation_for(a, 3, [RATIONALS, F2], "trivial_sphere(3)")
    report = evaluate_all(obs)
    assert report.all_passed
    by_name = {(e.name, e.field): e for e in report.evaluations}
    ab = by_name[("abelian_3n", "F" + "p:2")]
    assert ab.observed == 2 and ab.value == 27


def test_evaluate_all_aborts_on_violation():
    from sqh.homology import BettiTable

    obs = observation_for(antipodal_action(), 3, [F2], "rp(2)")
    fake_quotient = BettiTable(((F2, (9, 9, 9)),), None)  # impossible observation
    broken = ScenarioObservation(
        scenario_id="broken",
        ambient_n=1,
        group_order=obs.group_order,
        is_abelian=True,
        quotient_table=fake_quotient,
        model_table=obs.model_table,
        abelian_normal_order=obs.abelian_normal_order,
        abelian_via_fallback=False,
    )
    with pytest.raises(BoundViolation) as err:
        evaluate_all(broken)
    assert err.value.dump["schema"] == "bound_report_v1"
    assert err.value.dump["all_passed"] is False


def test_report_includes_soft_rows_and_checks():
    a = antipodal_action()
    chk = smith_floyd_check(a, a.full_subgroup(), 2)
    obs = observation_for(a, 3, [F2], "rp(2)")
    report = evaluate_all(obs, checks=(chk,))
    names = {e.name for e in report.evaluations}
    assert "jordan_combined_jn" in names
    assert "thm13_direct_instantiation" in names
    blob = report.to_json()
    assert blob["schema"] == "bound_report_v1"
    assert blob["checks"][0]["name"] == "smith_floyd"
    soft = [e for e in report.evaluations if not e.hard]
    assert all(e.passed for e in soft if e.applicable)
