#!/usr/bin/env python3
# Verify the quotient-homology inequalities on concrete actions:
# fixed-point bound, the cyclic chain of pair/spectral estimates, transfer,
# and the assembled per-scenario bound report.

import json

from sqh.actions import close_generators, sylow
from sqh.bounds import (
    cyclic_chain_check,
    abelian_bound,
    cyclic_bound,
    finite_bound,
    jordan_combined_bound,
    smith_floyd_check,
    thm13_constant,
    transfer_check,
)
from sqh.models import SignedPermutation, signed_permutation_action
from sqh.scenarios import builtin, run_scenario

# The bound formulas themselves.
print("abelian bound 3^n for n=3:", abelian_bound(3))
print("cyclic bound 3(d+1)k for d=2,k=1:", cyclic_bound(2, 1))
fb = finite_bound(2, 1, 8, 2)
print("finite-group bound, |H|=8, p=2: integer", fb.integer_form, "real", round(fb.real_form, 1))
print("combined bound n=3, |Q|=2:", jordan_combined_bound(3, 2))
print("uniform constant for S^2 quotients:", round(thm13_constant(2), 1))

# Smith-Floyd with equality: a reflection of S^2 fixes an equatorial circle.
refl = signed_permutation_action(3, [SignedPermutation((1, 2, 3), (1, 1, -1))])
r = smith_floyd_check(refl, refl.full_subgroup(), 2)
print("reflection on S^2:", r.detail, "->", "pass" if r.passed else "FAIL")

# The three cyclic-chain families for the antipodal C_2 on S^2.
anti = signed_permutation_action(3, [SignedPermutation((1, 2, 3), (-1, -1, -1))])
r = cyclic_chain_check(anti, anti.full_subgroup(), 2)
print("antipodal C_2 chain check:", {k: v for k, v in r.detail.items() if isinstance(v, bool)})

# Transfer: S_3 on S^2 versus its Sylow subgroups.
s3 = signed_permutation_action(
    3, [SignedPermutation((2, 1, 3), (1, 1, 1)), SignedPermutation((2, 3, 1), (1, 1, 1))]
)
for p in (2, 3):
    r = transfer_check(s3, p)
    print(f"transfer p={p}: quotient-by-G {r.detail['b_quotient_G']} <= "
          f"quotient-by-Sylow {r.detail['b_quotient_Sylow']}")

# A full scenario run assembles everything into one machine-readable report.
report = run_scenario(builtin("quaternion_q8"))
# Each row carries its verdict; what the bound states is in the report's forms.
ledger = report["bound_report"]
rows = [e for e in ledger["evaluations"] if e["passed"] is not None and e["field"] == "Fp:2"]
print("\nQ8 bound report over F2:")
for e in rows:
    form = ledger["forms"][e["form"]]
    slack = form["value"] / max(1, e["observed"])
    print(f"  {e['name']:<28} observed {e['observed']}  bound {form['display']:>10}  "
          f"slack {round(slack, 2) if slack else '-'}")
print("all passed:", report["bound_report"]["all_passed"])
