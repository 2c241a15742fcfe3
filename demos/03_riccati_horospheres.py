"""Horosphere shape operators from the algebraic Riccati equation.

Along a geodesic perpendicular to [s, s] the stable horosphere shape
operator is constant: L0 = -D_A - X with X the maximal symmetric
solution of X^2 + X ad_A + ad_A^T X = 0, and trace L0 equals
-sum |Re sigma| over the spectrum of ad_A.  The closed forms alone are
shown; the monotone limit of finite-distance spheres is checked by the
acceptance suite.
"""

import numpy as np

from solvharm import (build_damek_ricci, clifford_generators,
                      horosphere_mean_curvature_formula,
                      solve_algebraic_riccati_max, standard_decomposition)

np.set_printoptions(precision=6, suppress=True)

# Scalar warm-up: ad_A = (a) has solutions X in {0, -2a}; the maximal one
# flips the unstable direction.
for a in (-1.0, 0.7):
    res = solve_algebraic_riccati_max(np.array([[a]]))
    print(f"a = {a:+.1f}:  X = {res.x[0,0]:.3f},  L0 = {res.l0[0,0]:.3f}")

# A non-normal example: the trace identity holds regardless of the
# eigenvector geometry.
ad_a = np.array([
    [0.6, 0.4, 0.0],
    [0.0, -0.5, 0.3],
    [0.0, 0.0, 1.1],
])
res = solve_algebraic_riccati_max(ad_a)
print("\nnon-normal ad_A: X =")
print(res.x)
print("trace L0             :", res.trace_l0)
print("-sum |Re sigma|      :", horosphere_mean_curvature_formula(ad_a))
print("Riccati residual     :", res.residual(ad_a))

# On a Damek-Ricci algebra, ad_H has spectrum {1/2 on v, 1 on z}, so the
# horosphere mean curvature along H-geodesics is m/2 + l.
cm = clifford_generators(3)
d = standard_decomposition(build_damek_ricci(cm))
res = solve_algebraic_riccati_max(d.ad_h())
print(f"\nDamek-Ricci (m={cm.m}, l={cm.l}): trace L0 = {res.trace_l0}"
      f"  (expected -(m/2 + l) = {-(cm.m / 2 + cm.l)})")
