#!/usr/bin/env python3
# Build small sphere models and compute their exact homology.

from sqh import (
    SparseIntMatrix,
    barycentric_subdivision,
    betti,
    chain_complex,
    euler_characteristic,
    join,
    polygon,
    smith_normal_form,
    zero_sphere,
    F2,
    F5,
    RATIONALS,
)
from sqh.errors import CorruptComplex
from sqh.models import cross_polytope

# A triangle boundary is the smallest simplicial circle.
circle = polygon(3)
print("circle:", circle)
print("chi(S^1) =", euler_characteristic(circle))

# Joins build higher spheres: S^1 * S^1 = S^3.
s3 = join(polygon(3), polygon(3))
table = betti(chain_complex(s3), [RATIONALS, F2])
print("S^3 = S^1 * S^1 has Betti", table.betti(RATIONALS), "over Q")

# The octahedron is the 3-dimensional cross-polytope boundary.
octa = cross_polytope(3)
print("octahedron f-vector:", octa.f_vector(), "chi =", euler_characteristic(octa))

# Barycentric subdivision refines without changing the topology.
sd = barycentric_subdivision(octa)
print("sd(octahedron):", sd.complex.f_vector(), "chi =", euler_characteristic(sd.complex))

# Smith normal form of a boundary matrix reveals integral structure.  It is
# taken by p-adic levels at the primes of an order that annihilates the
# torsion: the sphere has none, so order 1 will do, and every divisor is 1.
cc = chain_complex(octa)
for k, mat in enumerate(cc.boundaries):
    if k == 0:
        continue
    ed = smith_normal_form(mat, 1)
    print(f"SNF(d_{k}) divisors: {ed.divisors}")

# A divisor past the order's exponent is refused: (4) at order 2.
try:
    smith_normal_form(SparseIntMatrix(1, 1, {(0, 0): 4}), 2)
except CorruptComplex as e:
    print("order 2 does not annihilate Z/4:", e)
print("at order 4:", smith_normal_form(SparseIntMatrix(1, 1, {(0, 0): 4}), 4).divisors)

# Betti numbers over several fields at once, with torsion.
table = betti(cc, [RATIONALS, F2, F5], order=1)
for f in table.fields():
    print(f"betti over {f.label()}: {table.betti(f)}")
print("torsion per degree:", table.torsion)
