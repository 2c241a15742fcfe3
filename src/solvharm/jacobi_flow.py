"""Jacobi fields along geodesics: integration, stable tensors, densities.

Everything is phrased in left-invariant frames, where the connection and
the Jacobi operator along the distinguished geodesics have explicit
closed forms.  The central geodesic (tangent to the canonical top
eigenvector Z of the center) gets a dedicated orthonormal frame of the
normal bundle, read off the adapted basis of the standard decomposition,
in which the stable Jacobi tensor is evaluated block by block from the
paper's closed forms: e^{-t} on the H-Z normal, incomplete beta
functions on the center and kernel slots, and the hypergeometric pair
blocks of :mod:`hypergeom`.  The finite-horizon boundary problems, solved
by ODE integration, remain as their oracle.  The volume-density test
integrates the linearized geodesic flow along arbitrary directions in
the left-trivialization, from the connection and the brackets alone;
it never reads the curvature tensor.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.special import beta, betainc

from .config import DEFAULT_TOLS, Tolerances
from .curvature import central_frame_split, central_jacobi_blocks
from .errors import (ConjugatePointError, DimensionError, DomainError,
                     NumericalError)
from .hypergeom import stable_block_and_derivative, z_of_t
from .lie_metric import MetricLieAlgebra, StandardSolvableData, _null_space

__all__ = [
    "JacobiTensorSample",
    "CentralGeodesicFrame",
    "central_velocity",
    "covariant_derivative_along",
    "integrate_jacobi",
    "finite_horizon_tensor",
    "stable_jacobi_tensor",
    "mean_curvature_numeric",
    "to_parallel_frame",
    "volume_density",
]


def central_velocity(t: float):
    """Velocity coefficients of the central geodesic on (H, Z)."""
    return -math.tanh(t), 1.0 / math.cosh(t)


@dataclass(frozen=True)
class JacobiTensorSample:
    """Jacobi tensor values on a time grid.

    ``e_prime`` holds covariant derivatives; ``frame`` records whether
    coefficients refer to the left-invariant central frame or its
    parallel rotation.
    """

    t_grid: np.ndarray
    e: np.ndarray          # (nt, k, m)
    e_prime: np.ndarray    # (nt, k, m)
    frame: str = "left-invariant"


@dataclass(frozen=True)
class CentralGeodesicFrame:
    """Orthonormal frame of the normal bundle along the central geodesic.

    The geodesic is tangent to the canonical top eigenvector
    Z = ``data.z_top_vector``.  Slots: the parallel normal xi(t) inside
    the H-Z plane, then the adapted basis vectors of ``data`` (see
    :func:`curvature.central_frame_split`): the ad_H eigenvectors of z
    other than Z, the kernel of j(Z) in v, and the rotation pairs
    (V_i, ~V_i).  Only xi depends on t; the pair fields rotate with
    connection speed theta_i / (2 cosh t).
    """

    data: StandardSolvableData
    mus: np.ndarray
    z_perp: np.ndarray
    rho_stars: np.ndarray
    kernel: np.ndarray
    pairs: np.ndarray
    pair_cols: np.ndarray

    @classmethod
    def build(cls, d: StandardSolvableData) -> "CentralGeodesicFrame":
        return cls(d, *central_frame_split(d))

    @property
    def size(self) -> int:
        return 1 + len(self.mus) + len(self.rho_stars) + 2 * len(self.pairs)

    def velocity_vector(self, t: float) -> np.ndarray:
        vh, vz = central_velocity(t)
        return vh * self.data.h_vector + vz * self.data.z_top_vector

    def xi(self, t: float) -> np.ndarray:
        """Parallel unit normal in the totally geodesic H-Z plane."""
        return (self.data.h_vector / math.cosh(t)
                + math.tanh(t) * self.data.z_top_vector)

    def frame_matrix(self, t: float) -> np.ndarray:
        """Columns of the frame in the algebra basis, (dim, dim-1)."""
        return np.column_stack(
            [self.xi(t), self.z_perp, self.kernel, self.pair_cols]
        )

    def connection(self, t: float) -> np.ndarray:
        """Skew matrix W(t) with D/dt = d/dt + W on frame coefficients."""
        k = self.size
        w = np.zeros((k, k))
        offset = 1 + len(self.mus) + len(self.rho_stars)
        for i, (_, theta) in enumerate(self.pairs):
            rate = theta / (2.0 * math.cosh(t))
            w[offset + 2 * i, offset + 2 * i + 1] = rate
            w[offset + 2 * i + 1, offset + 2 * i] = -rate
        return w

    def jacobi_operator(self, t: float) -> np.ndarray:
        return central_jacobi_blocks(self.mus, self.rho_stars, self.pairs, t)


def covariant_derivative_along(d: StandardSolvableData, t: float,
                               field) -> np.ndarray:
    """nabla_{gamma'(t)} of a left-invariant field along the central
    geodesic, via the connection."""
    field = np.asarray(field, dtype=float)
    if field.shape != (d.algebra.dim,):
        raise DimensionError(f"field must have shape ({d.algebra.dim},)")
    vh, vz = central_velocity(t)
    u = vh * d.h_vector + vz * d.z_top_vector
    return np.einsum("i,ijk,j->k", u, d.algebra.connection, field)


def _frame_rhs(frame: CentralGeodesicFrame, k: int, m: int):
    def rhs(t, y):
        c = y[: k * m].reshape(k, m)
        p = y[k * m:].reshape(k, m)
        w = frame.connection(t)
        r = frame.jacobi_operator(t)
        dc = p - w @ c
        dp = -r @ c - w @ p
        return np.concatenate([dc.ravel(), dp.ravel()])
    return rhs


def _solve_frame_system(frame: CentralGeodesicFrame, c0, p0, t_span, t_eval,
                        tols: Tolerances):
    k = frame.size
    c0 = np.asarray(c0, dtype=float).reshape(k, -1)
    p0 = np.asarray(p0, dtype=float).reshape(k, -1)
    m = c0.shape[1]
    y0 = np.concatenate([c0.ravel(), p0.ravel()])
    sol = solve_ivp(
        _frame_rhs(frame, k, m), t_span, y0, method="DOP853",
        t_eval=t_eval, rtol=tols.ode_rtol, atol=tols.ode_atol,
    )
    if not sol.success:
        raise NumericalError(f"Jacobi integration failed: {sol.message}")
    nt = sol.t.size
    c = sol.y[: k * m].T.reshape(nt, k, m)
    p = sol.y[k * m:].T.reshape(nt, k, m)
    return sol.t, c, p, sol.y[:, -1]


def integrate_jacobi(d: StandardSolvableData, j0, j0prime,
                     t_max: float, steps: int = 200,
                     tols: Tolerances = DEFAULT_TOLS) -> JacobiTensorSample:
    """Integrate the Jacobi system D^2 J + R(t) J = 0 in the central frame.

    ``j0`` and ``j0prime`` are frame coefficients of the initial value
    and initial covariant derivative (vectors or matrices of columns).
    """
    frame = CentralGeodesicFrame.build(d)
    t_eval = np.linspace(0.0, t_max, steps + 1)
    t, c, p, _ = _solve_frame_system(frame, j0, j0prime, (0.0, t_max),
                                     t_eval, tols)
    return JacobiTensorSample(t_grid=t, e=c, e_prime=p)


def _frame_blocks(frame: CentralGeodesicFrame):
    """(offset, size) of the decoupled diagonal blocks of the frame system."""
    blocks = [(0, 1)]
    pos = 1
    for _ in range(len(frame.mus) + len(frame.rho_stars)):
        blocks.append((pos, 1))
        pos += 1
    for _ in range(len(frame.pairs)):
        blocks.append((pos, 2))
        pos += 2
    return blocks


def _block_finite_horizon(frame: CentralGeodesicFrame, offset: int, size: int,
                          t_grid, r: float, tols: Tolerances):
    """E_r and its covariant derivative for one decoupled block.

    Shooting per block keeps the terminal solve well conditioned: the
    scalar blocks are exact divisions and the 2x2 pair blocks only mix
    the growth rates of a single rotation plane.
    """
    sl = slice(offset, offset + size)

    def rhs(t, y):
        c = y[: 2 * size * size].reshape(size, 2 * size)
        p = y[2 * size * size:].reshape(size, 2 * size)
        w = frame.connection(t)[sl, sl]
        rr = frame.jacobi_operator(t)[sl, sl]
        return np.concatenate([(p - w @ c).ravel(), (-rr @ c - w @ p).ravel()])

    eye, zero = np.eye(size), np.zeros((size, size))
    y0 = np.concatenate([np.hstack([eye, zero]).ravel(),
                         np.hstack([zero, eye]).ravel()])
    t_eval = np.unique(np.concatenate([np.asarray(t_grid, float), [r]]))
    sol = solve_ivp(rhs, (0.0, r), y0, method="DOP853", t_eval=t_eval,
                    rtol=tols.ode_rtol, atol=tols.ode_atol)
    if not sol.success:
        raise NumericalError(f"Jacobi integration failed: {sol.message}")
    nt = sol.t.size
    c = sol.y[: 2 * size * size].T.reshape(nt, size, 2 * size)
    p = sol.y[2 * size * size:].T.reshape(nt, size, 2 * size)
    phi1, phi2 = c[:, :, :size], c[:, :, size:]
    dphi1, dphi2 = p[:, :, :size], p[:, :, size:]
    phi2_r = phi2[-1]
    scale = max(np.abs(phi2_r).max(), 1.0)
    if abs(np.linalg.det(phi2_r)) <= (tols.det_floor * scale) ** size:
        raise ConjugatePointError(f"singular terminal solve at r = {r}")
    coeff = -np.linalg.solve(phi2_r, phi1[-1])
    keep = np.isin(sol.t, np.asarray(t_grid, float))
    e_blk = phi1[keep] + phi2[keep] @ coeff
    ep_blk = dphi1[keep] + dphi2[keep] @ coeff
    return e_blk, ep_blk


def finite_horizon_tensor(d: StandardSolvableData, t_grid, r: float,
                          tols: Tolerances = DEFAULT_TOLS) -> JacobiTensorSample:
    """Jacobi tensor with E(0) = id, E(r) = 0, sampled on ``t_grid``.

    Each decoupled frame block is integrated with DOP853 and shot to the
    horizon r.  As r grows this converges to :func:`stable_jacobi_tensor`;
    it is the numerical oracle for those closed forms.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[-1] > r:
        raise DomainError("horizon r must lie beyond the last grid point")
    frame = CentralGeodesicFrame.build(d)
    k = frame.size
    e = np.zeros((t_grid.size, k, k))
    ep = np.zeros((t_grid.size, k, k))
    for offset, size in _frame_blocks(frame):
        sl = slice(offset, offset + size)
        e[:, sl, sl], ep[:, sl, sl] = _block_finite_horizon(
            frame, offset, size, t_grid, r, tols)
    return JacobiTensorSample(t_grid=t_grid, e=e, e_prime=ep)


def _scalar_stable_block(m: float, t: np.ndarray, z: np.ndarray):
    """Stable solution of f'' = (m + m^2 sinh^2 t) / cosh^2 t * f, f(0) = 1.

    Reduction of order against the Killing solution cosh^m t gives
    f = cosh^m(t) int_t^oo cosh^(-2m)(s) ds / C_m, and z = z(s) turns the
    integral into the incomplete beta function 2^(2m-1) B(m, m) I_z(m, m).
    """
    ch = np.cosh(t)
    e = 2.0 * ch ** m * betainc(m, m, z)
    c_m = 2.0 ** (2.0 * m - 2.0) * beta(m, m)
    return e, m * np.tanh(t) * e - ch ** -m / c_m


def _pair_stable_block(rho: float, theta: float, t_grid: np.ndarray,
                       tols: Tolerances):
    """E = M(t) M(0)^-1 and its covariant derivative for one pair block."""
    m0, _ = stable_block_and_derivative(rho, theta, 0.0)
    cond = np.linalg.cond(m0)
    if cond * tols.series_tol > tols.bvp_converged:
        raise NumericalError(
            f"stable pair block (rho, theta) = ({rho:.6g}, {theta:.6g}) is "
            f"ill conditioned at t = 0: cond M(0) = {cond:.3g} limits its "
            f"accuracy to {cond * tols.series_tol:.2g} > bvp_converged = "
            f"{tols.bvp_converged:.2g}"
        )
    m0_inv = np.linalg.inv(m0)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    e = np.empty((t_grid.size, 2, 2))
    ep = np.empty((t_grid.size, 2, 2))
    for n, t in enumerate(t_grid):
        m_t, dm_t = stable_block_and_derivative(rho, theta, t)
        e[n] = m_t @ m0_inv
        ep[n] = (dm_t + theta / (2.0 * math.cosh(t)) * rot @ m_t) @ m0_inv
    return e, ep


def stable_jacobi_tensor(d: StandardSolvableData, t_grid,
                         tols: Tolerances = DEFAULT_TOLS) -> JacobiTensorSample:
    """Stable Jacobi tensor E(t), E(0) = id, from the paper's closed forms.

    E is the limit r -> oo of the boundary problems E_r(0) = id,
    E_r(r) = 0 (see :func:`finite_horizon_tensor`, kept as the numerical
    oracle), along the geodesic tangent to the canonical top eigenvector
    ``d.z_top_vector``.  In the central frame, whose slots are the adapted
    basis of ``d`` (:class:`CentralGeodesicFrame`), it is block diagonal
    with the spectral data of :meth:`StandardSolvableData.frame_factor_data`
    (the numbers the h-scan reads), with z = z(t):

    * xi slot: E = e^{-t};
    * center and kernel slots with parameter m (mu_j or rho*_k):
      E = 2 cosh^m(t) I_z(m, m), E' = m tanh(t) E - cosh^{-m}(t) / C_m,
      C_m = 2^{2m-2} B(m, m), where
      I_z(m, m) = z^m F(m, 1-m; 1+m; z) / (m B(m, m));
    * pair slots (rho, theta): E = M(t) M(0)^{-1} with the hypergeometric
      block M of :func:`hypergeom.stable_block_and_derivative`.

    ``e_prime`` is the covariant derivative c' + W c.  A pair block whose
    M(0) is so ill conditioned that ``cond M(0) * tols.series_tol``
    exceeds ``tols.bvp_converged`` (theta -> 0) raises NumericalError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    frame = CentralGeodesicFrame.build(d)
    k = frame.size
    e = np.zeros((t_grid.size, k, k))
    ep = np.zeros((t_grid.size, k, k))
    e[:, 0, 0] = np.exp(-t_grid)
    ep[:, 0, 0] = -e[:, 0, 0]
    z = np.array([z_of_t(t) for t in t_grid])
    scalars = np.concatenate([frame.mus, frame.rho_stars])
    for i, m in enumerate(scalars, start=1):
        e[:, i, i], ep[:, i, i] = _scalar_stable_block(m, t_grid, z)
    offset = 1 + len(scalars)
    pair_blocks = {}   # equal pairs, e.g. all of a Damek-Ricci build, share one
    for i, (rho, theta) in enumerate(frame.pairs):
        key = (float(rho), float(theta))
        if key not in pair_blocks:
            pair_blocks[key] = _pair_stable_block(rho, theta, t_grid, tols)
        sl = slice(offset + 2 * i, offset + 2 * i + 2)
        e[:, sl, sl], ep[:, sl, sl] = pair_blocks[key]
    return JacobiTensorSample(t_grid=t_grid, e=e, e_prime=ep)


def mean_curvature_numeric(sample: JacobiTensorSample):
    """Horosphere mean curvature m(t) = -d/dt log|det E(t)| on the grid.

    Returns ``(m_fd, m_trace)``: central finite differences of
    log|det E| and the pointwise cross-check trace(-E' E^{-1}).
    """
    t = sample.t_grid
    dets = np.array([np.linalg.det(e) for e in sample.e])
    # a stable determinant decays exponentially but never changes sign;
    # a sign flip or underflow to zero marks a conjugate point
    if np.any(dets == 0.0) or np.any(np.sign(dets) != np.sign(dets[0])) \
            or np.abs(dets).min() < 1e-300:
        raise ConjugatePointError("det E vanishes on the grid")
    logs = np.log(np.abs(dets))
    m_fd = -np.gradient(logs, t)
    m_trace = np.array([
        -np.trace(ep @ np.linalg.inv(e))
        for e, ep in zip(sample.e, sample.e_prime)
    ])
    return m_fd, m_trace


def to_parallel_frame(sample: JacobiTensorSample,
                      frame: CentralGeodesicFrame) -> JacobiTensorSample:
    """Rotate pair blocks by theta/2 * gd(t) into the parallel frame."""
    if sample.frame == "parallel":
        return sample
    offset = 1 + len(frame.mus) + len(frame.rho_stars)
    e_out = sample.e.copy()
    ep_out = sample.e_prime.copy()
    for n, t in enumerate(sample.t_grid):
        gd = math.asin(math.tanh(t))
        rot = np.eye(frame.size)
        for i, (_, theta) in enumerate(frame.pairs):
            alpha = 0.5 * theta * gd
            ca, sa = math.cos(alpha), math.sin(alpha)
            sl = slice(offset + 2 * i, offset + 2 * i + 2)
            rot[sl, sl] = np.array([[ca, sa], [-sa, ca]])   # R(alpha)^T
        e_out[n] = rot @ sample.e[n]
        ep_out[n] = rot @ sample.e_prime[n]
    return JacobiTensorSample(t_grid=sample.t_grid.copy(), e=e_out,
                              e_prime=ep_out, frame="parallel")


# ---------------------------------------------------------------------------
# volume densities along arbitrary directions
# ---------------------------------------------------------------------------

def volume_density(g: MetricLieAlgebra, v, t_grid,
                   tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """det A_v(t) of the Jacobi tensor with A(0) = 0, A'(0) = id.

    Jacobi fields are the linearization of the Euler-Arnold geodesic flow
    u' = -nabla_u u.  In the left-trivialization J = dL_gamma xi, a
    variation (xi, eta) of the flow, with eta the variation of u, solves

    * u' = -nabla_u u,               u(0) = v;
    * xi' = eta + [xi, u],           xi(0) = 0;
    * eta' = -2 nabla_u eta + [u, eta],  eta(0) = an orthonormal basis of
      the complement of v,

    so D_t J(0) = eta(0), and det A is the determinant of the columns xi
    together with u in the orthonormal left-invariant frame.  The system
    needs only Gamma and the brackets, never the curvature tensor.
    Harmonicity makes the result independent of the direction v.  Gamma
    comes from ``g.connection``, so all directions of one algebra share
    it, and R is never formed.
    """
    v = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:   # NaN fails too
        raise DomainError("direction v must be a unit vector")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not t_grid[0] >= 0.0 \
            or not np.all(np.diff(t_grid) > 0.0):
        raise DomainError("t_grid must be a strictly increasing grid of "
                          "nonnegative times")
    n = g.dim
    k = n - 1
    gamma = g.connection
    perp = _null_space(v[np.newaxis, :])
    # one matvec each for nabla_u (a[j, l]) and ad_u (ad[j, l])
    gamma_flat = gamma.reshape(n, n * n)                   # [i, (j, l)]
    tensor_flat = g.tensor.reshape(n, n * n)

    def rhs(t, y):
        u = y[:n]
        xi = y[n: n + n * k].reshape(n, k)
        eta = y[n + n * k:].reshape(n, k)
        a = (u @ gamma_flat).reshape(n, n)
        ad = (u @ tensor_flat).reshape(n, n)
        du = -(u @ a)
        dxi = eta - ad.T @ xi
        deta = -(2.0 * a - ad).T @ eta
        return np.concatenate([du, dxi.ravel(), deta.ravel()])

    y0 = np.concatenate([v, np.zeros(n * k), perp.ravel()])
    solver = DOP853(rhs, 0.0, y0, max(float(t_grid[-1]), 1e-12),
                    rtol=tols.ode_rtol, atol=tols.ode_atol)
    samples, done = [], 0
    try:
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise NumericalError(f"geodesic integration failed: {message}")
            upto = np.searchsorted(t_grid, solver.t, side="right")
            if upto > done:
                samples.append(solver.dense_output()(t_grid[done:upto]))
                done = upto
    finally:
        # the solver reaches itself through its wrapped right-hand sides;
        # unlinking them frees its stage arrays now, not at the next
        # cyclic garbage collection
        solver.fun = solver.fun_vectorized = None
    y = np.hstack(samples).T                                # (nt, state)
    dets = np.linalg.det(np.concatenate(
        [y[:, n: n + n * k].reshape(-1, n, k), y[:, :n, np.newaxis]], axis=2))

    # orient so the density is positive right after 0, then check for
    # conjugate points at the interior grid times.  det A(t) ~ t^(n-1)
    # near 0, so the floor applies to the ratio to the flat density.
    interior = t_grid > 1e-9
    if np.any(interior):
        first = np.argmax(interior)
        sign = math.copysign(1.0, dets[first])
        dets = sign * dets
        t_in = t_grid[interior]
        bad = dets[interior] / t_in ** (n - 1) < tols.det_floor
        if np.any(bad):
            raise ConjugatePointError(
                f"volume density vanishes at t = {t_in[np.argmax(bad)]:.6g}"
            )
    return dets
