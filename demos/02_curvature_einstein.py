"""Left-invariant curvature: Einstein constants and local symmetry.

The Koszul formula turns structure constants into connection
coefficients; curvature, Ricci and the covariant derivative of R follow
algebraically.  Damek-Ricci spaces are Einstein, but only the rank-one
symmetric members have nabla R = 0.  ``solvharm analyze`` computes
these numbers as shown here: Ric from the brackets, and |R| and
|nabla R| from the H-type certificate's closed forms where there is one,
from the curvature operator on 2-vectors where there is none.
"""

from solvharm import (MetricLieAlgebra, build_damek_ricci,
                      build_real_hyperbolic, clifford_generators,
                      curvature_norm, einstein_check, standard_decomposition)
from solvharm.curvature import damek_ricci_norms

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

# The standard decomposition reads ad_H = lam (1/2 on v, 1 on z) off the
# brackets, and its H-type certificate gives |R| and |nabla R| in closed
# form; the curvature operator on 2-vectors gives the same numbers.
g = build_damek_ricci(clifford_generators(2))
d = standard_decomposition(g)
cert = d.certificate
r_closed, nr_closed = damek_ricci_norms(cert)
print(f"\nH-type certificate: lam = {cert.lam}, m = {cert.m}, k = {cert.k}")
print(f"|R|       closed form {r_closed:.12f}, operator "
      f"{curvature_norm(g):.12f}")
print(f"|nabla R| closed form {nr_closed:.12f}, operator "
      f"{g.nabla_R_norm:.12f}")

# Local symmetry detector: the ratio |nabla R| / |R| vanishes exactly
# for the rank-one symmetric members: the hyperbolic spaces over the
# complex numbers (l = 1), the quaternions (l = 3) and the octonionic
# plane (l = 7 with one module copy).  Everything else is a genuinely
# nonsymmetric harmonic space.
print("\nlocal-symmetry ratio |nabla R| / |R|, closed forms:")
for l, copies in ((1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (5, 1), (7, 1)):
    g = build_damek_ricci(clifford_generators(l, copies))
    r_norm, nr = damek_ricci_norms(standard_decomposition(g).certificate)
    verdict = "symmetric" if nr == 0 else "nonsymmetric"
    print(f"  l={l}, copies={copies} (dim {g.dim:2d}): "
          f"ratio={nr / r_norm:.3e}  -> {verdict}")

# Off H-type there is no certificate, and the operator decides: the
# perturbed pair (rho, theta) = (1/2, 0.8) is neither Einstein nor
# symmetric.
g = MetricLieAlgebra(4, ((0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 1.0),
                         (1, 2, 3, 0.8)))
print(f"\nperturbed pair: certificate {g.decomposition().certificate}, "
      f"einstein={einstein_check(g)[0]}, "
      f"|nabla R| / |R| = {g.nabla_R_norm / curvature_norm(g):.4f}")
