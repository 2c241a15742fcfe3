"""Jacobi fields along geodesics: stable tensors and volume densities.

Everything is phrased in left-invariant frames, where the connection and
the Jacobi operator along the distinguished geodesics have explicit
closed forms.  The central geodesic (tangent to the canonical top
eigenvector Z of the center) gets a dedicated orthonormal frame of the
normal bundle, read off the adapted basis of the standard decomposition,
in which the stable Jacobi tensor is evaluated block by block from the
paper's closed forms: e^{-t} on the H-Z normal, incomplete beta
functions on the center and kernel slots, and the hypergeometric pair
blocks of :mod:`hypergeom`.  Volume densities of certified H-type
inputs (:func:`lie_metric.h_type_certificate`) are the closed form of
harmonic Damek-Ricci spaces, the same in every direction; on every other
input the linearized geodesic flow is integrated along the given
direction in the left-trivialization, from the connection and the
brackets alone.  Neither path reads the curvature tensor.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.special import beta, betainc

from .config import (DEFAULT_TOLS, HYP2F1_REL, INTERIOR_T, MIN_HORIZON,
                     UNIT_VECTOR_TOL, Tolerances)
from .curvature import central_frame_split, central_jacobi_blocks
from .errors import (ConjugatePointError, DimensionError, DomainError,
                     NumericalError)
from .hypergeom import stable_block_and_derivative, z_of_t
from .lie_metric import (HTypeCertificate, MetricLieAlgebra,
                         StandardSolvableData, _null_space)

__all__ = [
    "JacobiTensorSample",
    "CentralGeodesicFrame",
    "stable_jacobi_tensor",
    "mean_curvature_numeric",
    "volume_density",
]


@dataclass(frozen=True)
class JacobiTensorSample:
    """Jacobi tensor values on a time grid, in the left-invariant
    central frame; ``e_prime`` holds covariant derivatives."""

    t_grid: np.ndarray
    e: np.ndarray          # (nt, k, m)
    e_prime: np.ndarray    # (nt, k, m)


@dataclass(frozen=True)
class CentralGeodesicFrame:
    """Orthonormal frame of the normal bundle along the central geodesic.

    The geodesic is tangent to the canonical top eigenvector Z, the
    adapted basis vector ``data.z_indices[-1]``.  Slots: the parallel
    normal xi(t) in the H-Z plane, then the adapted basis vectors of
    ``data`` (see :func:`curvature.central_frame_split`): the ad_H
    eigenvectors of z other than Z, the kernel of j(Z) in v, and the
    rotation pairs (V_i, ~V_i).  Only xi depends on t; the pair fields
    rotate with connection speed theta_i / (2 cosh t).
    :func:`stable_jacobi_tensor` reads only the spectral data and never
    builds this frame; the test oracles integrate in it.
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

    def jacobi_operator(self, t: float) -> np.ndarray:
        return central_jacobi_blocks(self.mus, self.rho_stars, self.pairs, t)


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
    """E = M(t) M(0)^-1 and its covariant derivative for one pair block,
    from one evaluation of M on t = 0 and the grid."""
    m, dm = stable_block_and_derivative(rho, theta,
                                        np.concatenate([[0.0], t_grid]))
    m0, m, dm = m[0], m[1:], dm[1:]
    cond = np.linalg.cond(m0)
    if cond * HYP2F1_REL > tols.bvp_converged:
        raise NumericalError(
            f"stable pair block (rho, theta) = ({rho:.6g}, {theta:.6g}) is "
            f"ill conditioned at t = 0: cond M(0) = {cond:.3g} limits its "
            f"accuracy to {cond * HYP2F1_REL:.2g} > bvp_converged = "
            f"{tols.bvp_converged:.2g}"
        )
    m0_inv = np.linalg.inv(m0)
    # the frame connection W = theta / (2 cosh t) [[0, 1], [-1, 0]]
    rate = (theta / (2.0 * np.cosh(t_grid)))[:, None, None]
    w_m = rate * np.stack([m[:, 1], -m[:, 0]], axis=1)
    return m @ m0_inv, (dm + w_m) @ m0_inv


def stable_jacobi_tensor(d: StandardSolvableData, t_grid,
                         tols: Tolerances = DEFAULT_TOLS) -> JacobiTensorSample:
    """Stable Jacobi tensor E(t), E(0) = id, from the paper's closed forms.

    E is the limit r -> oo of the boundary problems E_r(0) = id,
    E_r(r) = 0 (integrated by ``finite_horizon_tensor`` of the test
    oracles), along the geodesic tangent to the canonical top eigenvector
    Z, ``d.z_indices[-1]``.  In the central frame, whose slots are the adapted
    basis of ``d`` (:class:`CentralGeodesicFrame`), it is block diagonal
    with the spectral data of :meth:`StandardSolvableData.frame_factor_data`
    (the numbers the h-scan reads, and all it reads of ``d``), with
    z = z(t):

    * xi slot: E = e^{-t};
    * center and kernel slots with parameter m (mu_j or rho*_k):
      E = 2 cosh^m(t) I_z(m, m), E' = m tanh(t) E - cosh^{-m}(t) / C_m,
      C_m = 2^{2m-2} B(m, m), where
      I_z(m, m) = z^m F(m, 1-m; 1+m; z) / (m B(m, m));
    * pair slots (rho, theta): E = M(t) M(0)^{-1} with the hypergeometric
      block M of :func:`hypergeom.stable_block_and_derivative`.

    ``e_prime`` is the covariant derivative c' + W c.  Pairs whose rho
    and theta both agree with an earlier pair's within ``tols.eigen_merge``
    share that pair's block, as ``standard_decomposition`` merges the
    ad_H eigenvalues they come from: every pair of a Damek-Ricci build,
    in any basis, takes one evaluation.  A pair block whose M(0) is so
    ill conditioned that ``cond M(0) * config.HYP2F1_REL`` exceeds
    ``tols.bvp_converged`` (theta -> 0) raises NumericalError.

    Pair blocks lose accuracy with t like e^{t max(rho, 1 - rho)} eps,
    from the cancellation of M(t) against Killing fields (see
    :func:`hypergeom.stable_block_and_derivative`): about 1e-8 relative
    at t = 20 for (rho, theta) = (0.5, 1.0).  Any grid is accepted; the
    ``analyze`` grid stops at t = 8.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    mus, rho_stars, pairs = d.frame_factor_data()
    scalars = np.concatenate([mus, rho_stars])
    offset = 1 + len(scalars)
    k = offset + 2 * len(pairs)
    e = np.zeros((t_grid.size, k, k))
    ep = np.zeros((t_grid.size, k, k))
    e[:, 0, 0] = np.exp(-t_grid)
    ep[:, 0, 0] = -e[:, 0, 0]
    z = z_of_t(t_grid)
    for i, m in enumerate(scalars, start=1):
        e[:, i, i], ep[:, i, i] = _scalar_stable_block(m, t_grid, z)
    evaluated = []   # (rho, theta, block) of the pairs evaluated so far
    for i, (rho, theta) in enumerate(pairs):
        block = next((b for r, t, b in evaluated
                      if abs(rho - r) <= tols.eigen_merge
                      and abs(theta - t) <= tols.eigen_merge), None)
        if block is None:
            block = _pair_stable_block(rho, theta, t_grid, tols)
            evaluated.append((rho, theta, block))
        sl = slice(offset + 2 * i, offset + 2 * i + 2)
        e[:, sl, sl], ep[:, sl, sl] = block
    return JacobiTensorSample(t_grid=t_grid, e=e, e_prime=ep)


def mean_curvature_numeric(sample: JacobiTensorSample) -> np.ndarray:
    """Horosphere mean curvature m(t) = -d/dt log|det E(t)| on the grid,
    by central finite differences of log|det E| from ``slogdet``, which
    reads a det E below float64's range (e^(-t trace ad_H) at large t)."""
    signs, log_dets = np.linalg.slogdet(sample.e)
    # a stable determinant decays exponentially but never changes sign;
    # a sign flip or a zero marks a conjugate point
    if np.any(signs != signs[0]) or signs[0] == 0:
        raise ConjugatePointError("det E vanishes on the grid")
    return -np.gradient(log_dets, sample.t_grid)


# ---------------------------------------------------------------------------
# volume densities along arbitrary directions
# ---------------------------------------------------------------------------

_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(np.finfo(float).tiny)


def _overflow(log_det: float, t: float) -> NumericalError:
    return NumericalError(
        f"volume density overflows float64: log|det A| = {log_det:.6g} at "
        f"t = {t:.6g}, past log(max float64) = {_LOG_MAX:.6g}")


def _underflow(log_det: float, t: float) -> NumericalError:
    return NumericalError(
        f"volume density underflows float64: log|det A| = {log_det:.6g} at "
        f"t = {t:.6g}, below log(min normal float64) = {_LOG_TINY:.6g}")


def volume_density(g: MetricLieAlgebra, v, t_grid,
                   tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """det A_v(t) of the Jacobi tensor with A(0) = 0, A'(0) = id.

    On an input certified H-type (:func:`lie_metric.h_type_certificate`),
    with ad_H = lam (1/2 on v, 1 on z), m = dim v and k = dim z, the
    density is the same in every direction v, in closed form (Berndt,
    Tricerri and Vanhecke, LNM 1598, ch. 4):

        det A(t) = (2 sinh(lam t / 2) / lam)^m (sinh(lam t) / lam)^k,

    evaluated as its logarithm (:func:`_damek_ricci_density`).  The
    certificate is ``g.decomposition(tols).certificate``, computed once
    per algebra instance, so all directions share it.  Every other input
    takes :func:`_integrated_density`, the linearized geodesic flow,
    which is also the test oracle of the closed form.

    The density grows like e^{t trace ad_H}, so a metric scaled up by c
    reaches float64's range c times sooner.  A density past that range
    raises NumericalError naming the overflow, log|det A| and the first
    grid time past the range (on the integrated path, the time the
    integration reached if it stopped before the grid did).  Near t = 0
    it shrinks like t^(n-1): a density below the smallest normal float64
    at a grid time t > 0 raises NumericalError naming the underflow,
    log|det A| and the first such time, on both paths (on the integrated
    path after the conjugate-point check).  A ``v`` of other than shape
    ``(g.dim,)`` raises DimensionError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (g.dim,):
        raise DimensionError(f"direction v must have shape ({g.dim},), got "
                             f"{v.shape}")
    if not abs(np.linalg.norm(v) - 1.0) <= UNIT_VECTOR_TOL:   # NaN fails too
        raise DomainError("direction v must be a unit vector")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or not t_grid[0] >= 0.0 \
            or not np.all(np.diff(t_grid) > 0.0):
        raise DomainError("t_grid must be a strictly increasing grid of "
                          "nonnegative times")
    cert = g.decomposition(tols).certificate
    if cert is None:
        return _integrated_density(g, v, t_grid, tols)
    return _damek_ricci_density(cert, t_grid)


def _damek_ricci_density(cert: HTypeCertificate,
                         t_grid: np.ndarray) -> np.ndarray:
    """The closed form of :func:`volume_density` for the certificate
    ``cert``, from its logarithm

        m (a / 2 + log((1 - e^-a) / lam))
        + k (a + log((1 - e^-2a) / (2 lam)))

    at a = lam t > 0, each 1 - e^-x taken by ``expm1``: no sinh
    overflows, and m = 0 multiplies a finite logarithm, so there is no
    0 log 0.  t = 0 gives 0.  A logarithm past log(max float64) raises
    the overflow at the first grid time that reaches it, and one below
    log(min normal float64) the underflow.
    """
    lam, m, k = cert.lam, cert.m, cert.k
    positive = t_grid > 0.0
    a = lam * t_grid[positive]
    log_det = (m * (0.5 * a + np.log(-np.expm1(-a) / lam))
               + k * (a + np.log(-np.expm1(-2.0 * a) / lam / 2.0)))
    for past, error in ((log_det > _LOG_MAX, _overflow),
                        (log_det < _LOG_TINY, _underflow)):
        if past.any():
            first = int(np.argmax(past))
            raise error(log_det[first], t_grid[positive][first])
    dets = np.zeros_like(t_grid)
    dets[positive] = np.exp(log_det)
    return dets


def _integrated_density(g: MetricLieAlgebra, v: np.ndarray,
                        t_grid: np.ndarray, tols: Tolerances) -> np.ndarray:
    """:func:`volume_density` by integrating the geodesic flow, for a
    unit ``v`` and a grid that function has checked.

    Jacobi fields are the linearization of the Euler-Arnold geodesic flow
    u' = -nabla_u u.  In the left-trivialization J = dL_gamma xi, a
    variation (xi, eta) of the flow, with eta the variation of u, solves

    * u' = ad_u^T u,              u(0) = v;
    * xi' = eta - ad_u xi,         xi(0) = 0;
    * eta' = -c_u eta,             eta(0) = an orthonormal basis of the
      complement of v,

    with c_u = 2 nabla_u - ad_u; the u equation is u' = -nabla_u u
    because <nabla_u u, z> = -<[u, z], u> (Koszul).  So D_t J(0) =
    eta(0), and det A is the determinant of the columns xi together with
    u in the orthonormal left-invariant frame, integrated by DOP853
    within ``tols.ode_rtol`` and ``tols.ode_atol``.  Each right-hand
    side is four contiguous kernels into one output buffer: u contracted
    with the stacked bracket operator ``g.flow_operator``, which gives
    ad_u and -c_u; one batched product of those with the stacked
    (xi, eta); one subtraction for xi'; and one n x n product for u'.
    The operator is built once per algebra from ``g.connection`` and the
    brackets, so all directions share it, and R is never formed.  A
    density whose ratio to the flat one t^(n-1) falls below
    ``tols.det_floor`` at an interior grid time raises
    ConjugatePointError.
    """
    n = g.dim
    k = n - 1
    nk = n * k
    op = g.flow_operator
    perp = _null_space(v[np.newaxis, :])

    def rhs(t, y):
        u = y[:n]
        w = np.dot(u, op).reshape(2, n, n)                # ad_u, -c_u
        dy = np.empty_like(y)
        np.matmul(w, y[n:].reshape(2, n, k), out=dy[n:].reshape(2, n, k))
        np.subtract(y[n + nk:], dy[n:n + nk], out=dy[n:n + nk])
        np.dot(u, w[0], out=dy[:n])                       # ad_u^T u
        return dy

    def frames(y):   # the columns xi and u of each state, (rows, n, n)
        return np.concatenate(
            [y[:, n: n + nk].reshape(-1, n, k), y[:, :n, np.newaxis]], axis=2)

    y0 = np.concatenate([v, np.zeros(nk), perp.ravel()])
    # a density past float64's range overflows the stage sums of a step,
    # which is then refused until the step size underflows; that failure
    # is reported as the overflow, with no numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        solver = DOP853(rhs, 0.0, y0, max(float(t_grid[-1]), MIN_HORIZON),
                        rtol=tols.ode_rtol, atol=tols.ode_atol)
        samples, done = [], 0
        try:
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    log_det = np.linalg.slogdet(
                        frames(solver.y[np.newaxis]))[1][0]
                    if log_det > _LOG_MAX:
                        raise _overflow(log_det, solver.t)
                    raise NumericalError(
                        f"geodesic integration failed: {message}")
                upto = np.searchsorted(t_grid, solver.t, side="right")
                if upto > done:
                    samples.append(solver.dense_output()(t_grid[done:upto]))
                    done = upto
        finally:
            # the solver reaches itself through its wrapped right-hand
            # sides; unlinking them frees its stage arrays now, not at the
            # next cyclic garbage collection
            solver.fun = solver.fun_vectorized = None
        states = frames(np.hstack(samples).T)
        dets = np.linalg.det(states)
        if not np.isfinite(dets).all():
            bad = np.argmin(np.isfinite(dets))
            raise _overflow(np.linalg.slogdet(states[bad])[1], t_grid[bad])

    # orient so the density is positive right after 0, then check for
    # conjugate points at the interior grid times.  det A(t) ~ t^(n-1)
    # near 0, so the floor applies to the ratio to the flat density,
    # taken as the determinant of the frame with its xi columns divided
    # by t: t^(n-1) alone can underflow, leaving 0 / 0
    interior = t_grid > INTERIOR_T
    if np.any(interior):
        first = np.argmax(interior)
        sign = math.copysign(1.0, dets[first])
        dets = sign * dets
        t_in = t_grid[interior]
        scaled = states[interior]
        scaled[:, :, :k] /= t_in[:, np.newaxis, np.newaxis]
        ratios = np.linalg.det(scaled)
        bad = math.copysign(1.0, ratios[0]) * ratios < tols.det_floor
        if np.any(bad):
            raise ConjugatePointError(
                f"volume density vanishes at t = {t_in[np.argmax(bad)]:.6g}"
            )
    tiny = (t_grid > 0.0) & (np.abs(dets) < np.finfo(float).tiny)
    if np.any(tiny):
        first = int(np.argmax(tiny))
        raise _underflow(np.linalg.slogdet(states[first])[1], t_grid[first])
    return dets
