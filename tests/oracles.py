"""Slow reference implementations that the package's fast paths are
checked against.  Nothing in ``src/`` imports this module."""

import math

import numpy as np
from scipy.integrate import solve_ivp

from solvharm.config import DEFAULT_TOLS
from solvharm.lie_metric import _null_space


def covariant_volume_density(g, v, t_grid, tols=DEFAULT_TOLS):
    """det A_v(t) from the covariant Jacobi equation D_t^2 J + R(J, u) u = 0.

    The geodesic u' = -nabla_u u is integrated jointly with the
    left-invariant frame coefficients c of the Jacobi columns and
    p = D_t c, with c(0) = 0 and p(0) an orthonormal basis of the
    complement of v.  Each right-hand side contracts u (x) u with the
    n^2 x n^2 curvature tensor ``g.curvature``.  det A = det[c, u],
    oriented positive at the first grid time after 0, as in
    :func:`jacobi_flow.volume_density`.
    """
    v = np.asarray(v, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    n = g.dim
    k = n - 1
    gamma, r_tensor = g.connection, g.curvature
    gamma_flat = gamma.reshape(n, n * n)
    r_flat = r_tensor.transpose(1, 2, 0, 3).reshape(n * n, n * n)

    def rhs(t, y):
        u = y[:n]
        c = y[n: n + n * k].reshape(n, k)
        p = y[n + n * k:].reshape(n, k)
        w_t = (u @ gamma_flat).reshape(n, n)          # nabla_u e_j = w_t[j]
        r_u = (np.outer(u, u).ravel() @ r_flat).reshape(n, n).T
        w = w_t.T
        dc = p - w @ c
        dp = -r_u @ c - w @ p
        return np.concatenate([-(u @ w_t), dc.ravel(), dp.ravel()])

    perp = _null_space(v[np.newaxis, :])
    y0 = np.concatenate([v, np.zeros(n * k), perp.ravel()])
    sol = solve_ivp(rhs, (0.0, max(float(t_grid[-1]), 1e-12)), y0,
                    method="DOP853", t_eval=t_grid, rtol=tols.ode_rtol,
                    atol=tols.ode_atol)
    assert sol.success, sol.message
    dets = np.array([
        np.linalg.det(np.column_stack([y[n: n + n * k].reshape(n, k), y[:n]]))
        for y in sol.y.T
    ])
    first = np.argmax(t_grid > 1e-9)
    return math.copysign(1.0, dets[first]) * dets
