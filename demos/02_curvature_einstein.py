"""Left-invariant curvature: Einstein constants and local symmetry.

The Koszul formula turns structure constants into connection
coefficients; curvature, Ricci and the covariant derivative of R follow
algebraically.  Damek-Ricci spaces are Einstein with K <= 0, but only
the rank-one symmetric members have nabla R = 0.
"""

import numpy as np

from solvharm import (build_damek_ricci, build_real_hyperbolic,
                      clifford_generators, curvature_norm, curvature_tensor,
                      einstein_check, jacobi_operator_H, levi_civita,
                      nabla_R_norm, sectional_curvature,
                      standard_decomposition)

rng = np.random.default_rng(0)

print("Einstein constants (Ric = c id):")
for name, g in (
    ("real hyperbolic H^5", build_real_hyperbolic(5)),
    ("Damek-Ricci l=1 (complex hyperbolic plane)",
     build_damek_ricci(clifford_generators(1))),
    ("Damek-Ricci l=2, dim 7", build_damek_ricci(clifford_generators(2))),
    ("Damek-Ricci l=3, dim 8", build_damek_ricci(clifford_generators(3))),
):
    ok, c, resid = einstein_check(g)
    print(f"  {name:45s} einstein={ok}  c={c:+.4f}  residual={resid:.1e}")

# Sectional curvatures of a Damek-Ricci space are nonpositive but not
# constant; sample a few random planes.
g = build_damek_ricci(clifford_generators(2))
r = curvature_tensor(g, levi_civita(g))
samples = []
for _ in range(2000):
    x, y = rng.standard_normal((2, g.dim))
    samples.append(sectional_curvature(r, x, y))
print(f"\nsampled sectional curvature range: "
      f"[{min(samples):.4f}, {max(samples):.4f}]  (all <= 0)")

# The Jacobi operator along the distinguished unit normal H is diagonal:
# -1/4 on v, -1 on z.
d = standard_decomposition(g)
print("\nJacobi operator R(., H)H eigenvalues:",
      np.round(np.linalg.eigvalsh(jacobi_operator_H(d, d.h_vector)), 6))

# Local symmetry detector: the ratio |nabla R| / |R| vanishes exactly
# for the rank-one symmetric members: the hyperbolic spaces over the
# complex numbers (l = 1), the quaternions (l = 3) and the octonionic
# plane (l = 7 with one module copy).  Everything else is a genuinely
# nonsymmetric harmonic space.
print("\nlocal-symmetry ratio |nabla R| / |R|:")
for l, copies in ((1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (5, 1), (7, 1)):
    g = build_damek_ricci(clifford_generators(l, copies))
    ratio = nabla_R_norm(g) / curvature_norm(g)
    verdict = "symmetric" if ratio <= 1e-8 else "nonsymmetric"
    print(f"  l={l}, copies={copies} (dim {g.dim:2d}): "
          f"ratio={ratio:.3e}  -> {verdict}")
