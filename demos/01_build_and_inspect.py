"""Build the reference algebras and inspect their bracket structure.

Every algebra is stored as structure constants in an orthonormal basis,
so the metric never appears explicitly: geometry is pure linear algebra
on the constants.
"""

import numpy as np

from solvharm import (ad_matrix, build_damek_ricci, build_flat,
                      build_heisenberg_type, build_real_hyperbolic,
                      clifford_generators, clifford_relation_defect,
                      derived_algebra, growth_type, nilpotency_class,
                      standard_decomposition)

np.set_printoptions(precision=4, suppress=True)

# A Clifford module is its generator array: l anticommuting skew complex
# structures J_a on R^m, of shape (l, m, m).
j = clifford_generators(l=2, copies=1)
l, m = j.shape[:2]
print(f"Clifford module: l = {l}, module dim m = {m}")
print("first generator J_1:")
print(j[0])
print("relation defect (J_a J_b + J_b J_a + 2 delta_ab id):",
      clifford_relation_defect(j))

# The module defines a two-step nilpotent algebra of Heisenberg type on
# v + z, and a solvable rank-one extension: the Damek-Ricci algebra.
nil = build_heisenberg_type(j)
dr = build_damek_ricci(j)
print(f"\nHeisenberg-type algebra: dim {nil.dim}, "
      f"nilpotency class {nilpotency_class(nil)}")
print(f"Damek-Ricci algebra:     dim {dr.dim}, "
      f"nilpotent: {nilpotency_class(dr) is not None}")

# Basis order is (H, V_1..V_m, Z_1..Z_l); ad_H acts by 1/2 on v, 1 on z.
h = np.zeros(dr.dim)
h[0] = 1.0
print("\nad_H eigenvalues:", np.linalg.eigvalsh(ad_matrix(h, dr)))

# the derived algebra [s, s] is exactly v + z (codimension one) ...
print("derived algebra dimension:", derived_algebra(dr).shape[1])
# ... and the standard decomposition splits it into v and the center z
# of the nilpotent part, as ``solvharm analyze`` does
d = standard_decomposition(dr)
print(f"standard decomposition: dim v = {len(d.v_indices)}, "
      f"dim z = {len(d.z_indices)}")

# Brackets at work: [V_1, V_2] = ad_(V_1) V_2 lands in the center.
v1 = np.zeros(dr.dim)
v1[1] = 1.0
v2 = np.zeros(dr.dim)
v2[2] = 1.0
print("\n[V1, V2] =", ad_matrix(v1, dr) @ v2)

# Volume growth separates the flat, nilpotent and solvable worlds.
for name, g in (("flat R^4", build_flat(4)),
                ("Heisenberg type", nil),
                ("real hyperbolic H^4", build_real_hyperbolic(4)),
                ("Damek-Ricci", dr)):
    print(f"growth of {name:20s}: {growth_type(g).value}")
