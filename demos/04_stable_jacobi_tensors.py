"""Stable Jacobi tensors along central geodesics.

Geodesics tangent to the top central direction Z admit an explicit
orthonormal frame in which the Jacobi equation decouples into scalar
blocks and 2x2 rotation blocks; it is the adapted basis that
``standard_decomposition`` builds, with Z = ``d.z_top_vector``.  The
stable tensor E(t) is the limit of boundary problems E_r(0) = id,
E_r(r) = 0 (``finite_horizon_tensor`` in ``tests/oracles.py`` solves
those by ODE integration), and each block has a closed form in
z = z(t): e^{-t} on the H-Z normal, 2 cosh^m(t) I_z(m, m) (incomplete
beta function, I_z(m, m) = z^m F(m, 1-m; 1+m; z) / (m B(m, m))) on a
center or kernel slot with parameter m, and M(t) M(0)^{-1} with the
hypergeometric pair block M on a pair slot.  Its determinant obeys
det E(t) = const * e^{-t trace ad_H} * h(z(t)) with h constant exactly
in the harmonic case, making the horosphere mean curvature
m(t) = -d/dt log|det E(t)| constant.
"""

import numpy as np

from solvharm import (CentralGeodesicFrame, build_damek_ricci,
                      clifford_generators, mean_curvature_numeric,
                      stable_jacobi_tensor, standard_decomposition)
from solvharm.lie_metric import MetricLieAlgebra

np.set_printoptions(precision=6, suppress=True)

d = standard_decomposition(build_damek_ricci(clifford_generators(1)))
frame = CentralGeodesicFrame.build(d)
print("frame blocks: xi (H-Z plane), centers mu =", frame.mus,
      ", pairs (rho, theta) =", frame.pairs.tolist())

grid = np.linspace(0.5, 8.0, 16)
sample = stable_jacobi_tensor(d, grid)
dets = np.array([np.linalg.det(e) for e in sample.e])
print("\n   t     det E(t)      det E(t) * e^{2t}")
for t, det in list(zip(grid, dets))[::5]:
    print(f"  {t:4.1f}  {det:12.5e}   {det * np.exp(2 * t):12.8f}")

m_fd, m_trace = mean_curvature_numeric(sample)
print(f"\nmean curvature m(t): min {m_fd.min():.8f}, max {m_fd.max():.8f}"
      f"  (trace ad_H = {d.trace_ad_h})")

# Perturb the bracket strength: theta = 0.8 instead of 1.  The algebra
# is still solvable and standard, but the mean curvature now drifts, so
# the space cannot be asymptotically harmonic.
perturbed = MetricLieAlgebra(4, (
    (0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 1.0), (1, 2, 3, 0.8),
))
dp = standard_decomposition(perturbed)
sp = stable_jacobi_tensor(dp, np.linspace(0.0, 3.0, 16))
_, m_perturbed = mean_curvature_numeric(sp)
print(f"\ntheta = 0.8 perturbation: m(t) ranges over "
      f"[{m_perturbed.min():.6f}, {m_perturbed.max():.6f}]"
      f"  (variation {m_perturbed.max() - m_perturbed.min():.2e})")
