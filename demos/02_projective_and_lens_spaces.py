#!/usr/bin/env python3
# Classical sphere quotients: real projective spaces, lens spaces, S^3/Q8.

from sqh.actions import make_admissible_and_quotient
from sqh.complexes import chain_complex
from sqh.homology import F2, F3, F5, RATIONALS, FieldSpec, betti
from sqh.models import (
    AbelianCharacterData,
    SignedPermutation,
    character_join_model,
    signed_permutation_action,
)

# --- RP^n: the antipodal map on the cross-polytope boundary ---------------
for n in (2, 3, 4):
    anti = SignedPermutation(tuple(range(1, n + 2)), (-1,) * (n + 1))
    action = signed_permutation_action(n + 1, [anti])
    res = make_admissible_and_quotient(action)
    table = betti(chain_complex(res.complex), [RATIONALS, F2], order=2)
    print(f"RP^{n}: {res.subdivisions} subdivision(s), "
          f"Q -> {table.betti(RATIONALS)}, F2 -> {table.betti(F2)}, torsion {table.torsion}")

# --- Lens spaces: a rotation block per coordinate of C^2 ------------------
# L(p, q) is S^3 / (z1, z2) ~ (w z1, w^q z2) for a primitive p-th root w.
for p, q in ((5, 1), (5, 2), (7, 2)):
    data = AbelianCharacterData((p,), ((1,), (q,)), ())
    model = character_join_model(data)
    res = make_admissible_and_quotient(model.action)
    fp = FieldSpec(p)
    table = betti(chain_complex(res.complex), [RATIONALS, fp], order=p)
    print(f"L({p},{q}): F{p} -> {table.betti(fp)}, Q -> {table.betti(RATIONALS)}, "
          f"H_1 torsion {table.torsion[1]}")

# --- S^3/Q8: left quaternion multiplication as signed permutations --------
gen_i = SignedPermutation((2, 1, 4, 3), (-1, 1, -1, 1))
gen_j = SignedPermutation((3, 4, 1, 2), (-1, 1, 1, -1))
q8 = signed_permutation_action(4, [gen_i, gen_j])
res = make_admissible_and_quotient(q8)
table = betti(chain_complex(res.complex), [RATIONALS, F2, F3], order=q8.order)
print(f"S^3/Q8: F2 -> {table.betti(F2)} (H_1 = C2 x C2: torsion {table.torsion[1]}), "
      f"Q -> {table.betti(RATIONALS)}")
