"""The volume-density test of harmonicity.

A space is harmonic when the Jacobi determinant det A_v(t) (with
A(0) = 0, A'(0) = id along the geodesic of v) does not depend on the
direction v.  Damek-Ricci spaces pass in every direction; breaking the
bracket normalization even slightly shows up immediately.
"""

import numpy as np

from solvharm import (build_damek_ricci, build_real_hyperbolic,
                      clifford_generators)
from solvharm.jacobi_flow import volume_density
from solvharm.lie_metric import MetricLieAlgebra

rng = np.random.default_rng(42)
times = np.array([0.5, 1.0, 2.0])


def direction_spread(g, n_dirs=12):
    rows = []
    for _ in range(n_dirs):
        v = rng.standard_normal(g.dim)
        v /= np.linalg.norm(v)
        rows.append(volume_density(g, v, times))
    rows = np.array(rows)
    return rows.mean(axis=0), (rows.max(0) - rows.min(0)) / rows.mean(0)


# Real hyperbolic space: density sinh^{n-1}(t), same in every direction.
g = build_real_hyperbolic(4)
mean, spread = direction_spread(g)
print("real hyperbolic H^4 densities:", np.round(mean, 8))
print("                sinh(t)^3    :", np.round(np.sinh(times) ** 3, 8))
print("direction spread             :", spread)

# Damek-Ricci: not two-point homogeneous (for l >= 1 the isotropy does
# not act transitively on directions), yet the density is isotropic.
g = build_damek_ricci(clifford_generators(1))
mean, spread = direction_spread(g)
print("\nDamek-Ricci (dim 4) densities:", np.round(mean, 8))
print("direction spread              :", spread)

# Spoil the Heisenberg-type normalization: theta = 0.8.
perturbed = MetricLieAlgebra(4, (
    (0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 1.0), (1, 2, 3, 0.8),
))
mean, spread = direction_spread(perturbed)
print("\ntheta = 0.8 perturbation densities:", np.round(mean, 6))
print("direction spread (now visible)    :", np.round(spread, 6))
