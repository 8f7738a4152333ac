"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import pytest

from conftest import rp2_minimal
from sqh.actions import all_subgroups
from sqh.bounds import cyclic_chain_check, smith_floyd_check, transfer_check
from sqh.complexes import chain_complex
from sqh.homology import F2, F3, F5, RATIONALS, FieldSpec, betti
from sqh.models import SignedPermutation
from sqh.scenarios import Scenario, build_model, builtin, report_bytes, run_scenario, sweep

SWEEP_SEED = 7


def _extra_scenario(name, n, gens):
    return Scenario(
        name=name,
        space={"signed_permutation": {"n": n, "generators": [g.to_json_dict() for g in gens]}},
        fields=("Q", "Fp:2", "Fp:3"),
        checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
        snf_cap=16384,
    )


ROT90 = SignedPermutation((2, 1, 3), (-1, 1, 1))        # e1->e2->-e1
CYCLE3 = SignedPermutation((2, 3, 1), (1, 1, 1))        # e1->e2->e3->e1
SWAP12 = SignedPermutation((2, 1, 3), (1, 1, 1))
FLIP1 = SignedPermutation((1, 2, 3), (-1, 1, 1))
FLIP12 = SignedPermutation((1, 2, 3), (-1, -1, 1))
FLIP3 = SignedPermutation((1, 2, 3), (1, 1, -1))

CORPUS_SCENARIOS = [
    builtin("rp", 2),
    builtin("rp", 3),
    builtin("rp", 4),
    builtin("lens", 3, 1),
    builtin("lens", 3, 2),
    builtin("lens", 5, 1),
    builtin("lens", 5, 2),
    builtin("lens", 7, 1),
    builtin("lens", 7, 2),
    builtin("quaternion_q8"),
    builtin("sym3_on_s2"),
    builtin("dihedral_on_s1", 3),
    builtin("dihedral_on_s1", 5),
    builtin("trivial_sphere", 2),
    builtin("trivial_sphere", 3),
    _extra_scenario("oct_rotations_s2", 3, [ROT90, CYCLE3]),          # S4, order 24
    _extra_scenario("full_signed_oct_s2", 3, [ROT90, CYCLE3, FLIP1]),  # B3, order 48
    _extra_scenario("d4_on_s2", 3, [ROT90, SWAP12]),                   # D4, order 8
    _extra_scenario("a4_on_s2", 3, [CYCLE3, FLIP12]),                  # A4, order 12
    _extra_scenario("reflection_s2", 3, [FLIP3]),                      # C2 with fixed S^1
]

_reports: dict = {}
_models: dict = {}


def corpus_report(sc: Scenario) -> dict:
    if sc.name not in _reports:
        _reports[sc.name] = run_scenario(sc)
    return _reports[sc.name]


def corpus_model(sc: Scenario):
    if sc.name not in _models:
        _models[sc.name] = build_model(sc)
    return _models[sc.name]


def _line(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _betti_row(report, label):
    return next(r for r in report["betti"] if r["field"] == label)


def _primes_of(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_criterion_01_projective_spaces():
    ok = True
    for n in (2, 3, 4):
        t0 = time.time()
        report = corpus_report(builtin("rp", n))
        elapsed = time.time() - t0
        f2 = _betti_row(report, "Fp:2")
        q = _betti_row(report, "Q")
        expected_q = [1] + [0] * (n - 1) + [1 if n % 2 else 0]
        if n % 2 == 0:
            expected_q = [1] + [0] * n
        ok &= f2["betti"] == [1] * (n + 1)
        ok &= q["betti"] == expected_q
        ok &= f2["certified"] is True and q["certified"] is True
        ok &= elapsed <= 60
    # shipped minimal RP^2 fixture is an independent oracle for the n=2 pipeline
    fixture = betti(chain_complex(rp2_minimal()), [RATIONALS, F2, F3])
    rp2 = corpus_report(builtin("rp", 2))
    ok &= list(fixture.betti(F2)) == _betti_row(rp2, "Fp:2")["betti"]
    ok &= list(fixture.betti(RATIONALS)) == _betti_row(rp2, "Q")["betti"]
    ok &= list(fixture.betti(F3)) == _betti_row(rp2, "Fp:3")["betti"]
    _line(1, "RP^n exact Betti (n=2,3,4), certified, <=60s each", ok)


def test_criterion_02_lens_spaces():
    ok = True
    for p in (3, 5, 7):
        for q in (1, 2):
            t0 = time.time()
            report = corpus_report(builtin("lens", p, q))
            elapsed = time.time() - t0
            fp = _betti_row(report, f"Fp:{p}")
            ok &= fp["betti"] == [1, 1, 1, 1]
            ok &= _betti_row(report, "Q")["betti"] == [1, 0, 0, 1]
            ell = next(e for e in (2, 3, 5) if p % e != 0)
            ok &= _betti_row(report, f"Fp:{ell}")["betti"] == [1, 0, 0, 1]
            torsion = fp["torsion"]
            ok &= torsion is not None and torsion[1] == [p]
            ok &= all(torsion[d] == [] for d in (0, 2, 3))
            ok &= elapsed <= 300
    _line(2, "lens spaces L(p,q) exact Betti + single p-torsion in degree 1", ok)


def test_criterion_03_quaternion_quotient():
    report = corpus_report(builtin("quaternion_q8"))
    ok = _betti_row(report, "Fp:2")["betti"] == [1, 2, 2, 1]
    ok &= _betti_row(report, "Q")["betti"] == [1, 0, 0, 1]
    ok &= _betti_row(report, "Fp:3")["betti"] == [1, 0, 0, 1]
    ok &= _betti_row(report, "Fp:2")["torsion"][1] == [2, 2]
    _line(3, "S^3/Q8 Betti and H_1 torsion (2,2)", ok)


def test_criterion_04_abelian_sweep():
    t0 = time.time()
    report = sweep(n_max=6, samples=200, seed=SWEEP_SEED, fields=("Q", "Fp:2", "Fp:3", "Fp:5"))
    elapsed = time.time() - t0
    ok = report["passed"] == 200
    for row in report["scenarios"]:
        worst = max(row["totals"].values())
        ok &= worst <= row["cover_e1_total"] <= 3 ** row["n"]
    ok &= elapsed <= 1800
    _line(4, f"abelian sweep 200/200 in {elapsed:.0f}s (<=30min)", ok)


def test_criterion_05_smith_floyd_everywhere():
    ok = True
    equality_seen = False
    checked = 0
    for sc in CORPUS_SCENARIOS:
        bundle = corpus_model(sc)
        action = bundle.action
        for handle in all_subgroups(action):
            if handle.order == 1:
                continue
            primes = _primes_of(handle.order)
            if len(primes) != 1:
                continue
            p = primes[0]
            result = smith_floyd_check(action, handle, p)
            ok &= result.passed
            checked += 1
            if (
                sc.name == "reflection_s2"
                and result.detail["fixed_total"] == 2 == result.detail["space_total"]
            ):
                equality_seen = True
    ok &= equality_seen and checked >= 40
    _line(5, f"Smith-Floyd on all {checked} corpus p-subgroups incl. equality case", ok)


def test_criterion_06_cyclic_chain_families():
    ok = True
    pairs = 0
    for sc in CORPUS_SCENARIOS:
        bundle = corpus_model(sc)
        action = bundle.action
        seen_orders = set()
        for handle in all_subgroups(action):
            primes = _primes_of(handle.order)
            if len(primes) != 1 or handle.order != primes[0]:
                continue
            p = handle.order
            # at most two C_p's per (action, p) to keep the corpus broad, not deep
            key = (p, handle.indices)
            if sum(1 for o in seen_orders if o[0] == p) >= 2:
                continue
            seen_orders.add(key)
            result = cyclic_chain_check(action, handle, p)
            ok &= result.passed
            ok &= result.detail["pair_sequence"]
            ok &= result.detail["cartan_leray"]
            ok &= result.detail["quotient_pair"]
            ok &= result.detail["headline"]
            pairs += 1
    ok &= pairs >= 20
    _line(6, f"cyclic-chain inequality families on {pairs} (complex, C_p) pairs", ok)


def test_criterion_07_transfer():
    ok = True
    s3 = corpus_model(builtin("sym3_on_s2")).action
    for p in (2, 3):
        ok &= transfer_check(s3, p).passed
    extras = [
        "quaternion_q8",
        "oct_rotations_s2",
        "full_signed_oct_s2",
        "d4_on_s2",
        "a4_on_s2",
    ]
    count = 0
    for name in extras:
        sc = next(s for s in CORPUS_SCENARIOS if s.name == name)
        bundle = corpus_model(sc)
        full = bundle.action.full_subgroup()
        assert not full.is_abelian
        for p in _primes_of(full.order):
            ok &= transfer_check(bundle.action, p).passed
        count += 1
    ok &= count >= 5
    _line(7, f"transfer degreewise for S_3 (p=2,3) and {count} more nonabelian groups", ok)


def test_criterion_08_combined_bounds():
    ok = True
    for sc in CORPUS_SCENARIOS:
        report = corpus_report(sc)
        bound = report["bound_report"]
        ok &= bound is not None and bound["all_passed"]
        for row in bound["evaluations"]:
            if row["name"] in ("jordan_combined", "thm13_constant") and row["passed"] is not None:
                value = bound["forms"][row["form"]]["value"]
                ok &= row["passed"] and value is not None and value / max(1, row["observed"]) >= 1.0
    _line(8, "Thm 2.13 and Thm 1.3 bounds with slack on every corpus quotient", ok)


def test_criterion_09_engine_self_consistency():
    ok = True
    snf_checked = 0
    for sc in CORPUS_SCENARIOS:
        report = corpus_report(sc)
        # the quotient loop stops at depth 2 by construction: sd²(X)/G is simplicial (Bredon)
        ok &= report["subdivisions"] <= 2
        chi = sum((-1) ** k * f for k, f in enumerate(report["quotient_f_vector"]))
        for row in report["betti"]:
            b = row["betti"]
            ok &= sum((-1) ** k * v for k, v in enumerate(b)) == chi
            if row["torsion"] is not None:
                snf_checked += 1  # betti() cross-derived this row from SNF
        # dd = 0 of the model's chains: checked when they were built, and again here
        d = chain_complex(corpus_model(sc).action.complex).boundaries
        ok &= all(a.compose_is_zero(b) for a, b in zip(d, d[1:]))
    ok &= snf_checked >= len(CORPUS_SCENARIOS)
    _line(9, "dd=0, chi identity per field, SNF cross-check, <=2 subdivisions by Bredon's theorem", ok)


def test_criterion_10_determinism():
    ok = True
    for args in (("rp", 3), ("lens", 5, 2), ("quaternion_q8",)):
        sc = builtin(*args)
        ok &= report_bytes(run_scenario(sc)) == report_bytes(run_scenario(sc))
    _line(10, "byte-identical reports on three scenarios", ok)
