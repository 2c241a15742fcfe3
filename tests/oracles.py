"""Slow reference implementations that the package's fast paths and
closed forms are checked against.  Nothing in ``src/`` imports this
module.

* :func:`structure_tensor_loop`: the bracket tensor and stored triples
  accumulated one row at a time, against the array parse of
  ``lie_metric.MetricLieAlgebra``;
* :func:`j_generators`: the maps j(Z_a) of a split n = v + z, one tensor
  slice, for the Clifford-relation checks of the tests;
* :func:`jacobi_residual_einsum` and :func:`curvature_einsum`: the Jacobi
  residual and R by unordered ``einsum``, against the BLAS products of
  ``MetricLieAlgebra.jacobi_residual`` and ``curvature.curvature_tensor``;
* :func:`central_jacobi_blocks_block_diag`: the frame Jacobi operator
  assembled block by block, against ``curvature.central_jacobi_blocks``;
* :func:`skew_derivations_commuting_with_ad_h` and :func:`add_to_ad_h`:
  the skew derivations of [s, s] that commute with a self-adjoint ad_H,
  as a null space, and the algebra with one of them added to ad_H, a
  normal ad_H that ``lie_metric.standard_decomposition`` reads through
  its symmetric part;
* :func:`mixed_damek_ricci` and :func:`damek_ricci_scaled_j`: Damek-Ricci
  builds of the mixed (p, q) Clifford modules, and of a module with one
  J scaled, off H-type, for the closed-form path of ``cli.build_report``
  and the dense path it leaves to every other input;
* :func:`stable_block_scalar` and :func:`pair_stable_block_per_t`: the
  hypergeometric pair block at one t at a time, from 2x2 matrix
  products, against the whole-grid ``hypergeom.stable_block_and_derivative``
  and ``jacobi_flow._pair_stable_block``;
* :func:`covariant_volume_density`: the covariant Jacobi equation with the
  full curvature tensor, and :func:`three_matvec_volume_density`: the
  linearized geodesic flow with nabla_u, ad_u and nabla_u u contracted
  separately, both against ``jacobi_flow.volume_density``;
* :func:`integrate_jacobi` and :func:`finite_horizon_tensor`: the Jacobi
  system in the central frame, integrated by one DOP853 driver, against
  the closed forms of ``jacobi_flow.stable_jacobi_tensor``;
* :func:`finite_horizon_shape`: second fundamental forms of spheres,
  converging to the maximal Riccati solution;
* :func:`nabla_R`: the n^5 tensor whose norm ``curvature.nabla_R_norm``
  accumulates without forming it, and :func:`nabla_R_norm_three_products`:
  that norm from all four slot terms of the dense R, three n^4 products
  per derivative index, against the blocked products on antisymmetric
  index pairs of ``curvature.nabla_R_norm``;
* :func:`mean_curvature_analytic`: m(t) from finite differences of h,
  and :func:`mean_curvature_trace`: m(t) = -trace(E' E^{-1}) pointwise,
  both against the finite differences of
  ``jacobi_flow.mean_curvature_numeric``;
* :func:`ricci`: Ric as the contraction of the dense R of
  ``curvature.curvature_tensor``, against the bracket formula of
  ``curvature.ricci_from_brackets`` that ``curvature.einstein_check``
  reads;
* :func:`bracket_table`, :func:`jacobi_identity_exact` and
  :func:`ricci_from_brackets`: the brackets as sparse triples in any
  number type (``fractions.Fraction`` for exact arithmetic), the Jacobi
  identity in that type, and Ric from the structure constants alone
  (Besse 7.38), against :func:`ricci` of R;
* :func:`spectra_match`: multiset comparison of two spectra;
* :func:`gamma`, :func:`reciprocal_gamma`, :func:`monodromy_coeffs`
  (with :class:`MonodromyCoeffs`) and :func:`classify_factor_monodromy`:
  the continuation of each half series of a factor of h around z = 1
  from gamma-ratio coefficients (DLMF 15.10), and the factor classifier
  derived from it, against the closed criterion of
  ``hypergeom.classify_factor``;
* :func:`riccati_max_doubled`: the maximal Riccati solution from the
  2n x 2n doubled matrix, against ``riccati.solve_algebraic_riccati_max``;
* :func:`g17` and :func:`render_json_scalar`: one number as the CLI
  writes it, and the report writer one value at a time, against the
  row-at-a-time formatter of ``cli``.
"""

import dataclasses
import io
import itertools
import json
import math

import numpy as np
import scipy.optimize
from scipy import special
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag

from solvharm.clifford_dr import (CliffordModule, build_damek_ricci,
                                  clifford_generators)
from solvharm.config import DEFAULT_TOLS
from solvharm.curvature import curvature_tensor
from solvharm.errors import (ConjugatePointError, DomainError, NumericalError,
                             SingularMatrixError)
from solvharm.hypergeom import (_integer, _nonpositive_int, fundamental_pair,
                                h_function, pair_exponents, z_of_t)
from solvharm.jacobi_flow import CentralGeodesicFrame, JacobiTensorSample
from solvharm.lie_metric import (MetricLieAlgebra, _null_space, ad_matrix,
                                 derived_algebra, symmetric_skew_split)
from solvharm.numerics import (as_square, matrix_exponential,
                               ordered_real_schur, solve_linear,
                               sorted_spectrum)

HORIZON_CAP = 80.0   # farthest horizon of finite_horizon_shape


# ---------------------------------------------------------------------------
# brackets, Jacobi identity and curvature by loops and einsum
# ---------------------------------------------------------------------------

def structure_tensor_loop(dim, rows):
    """``(tensor, triples)`` of rows (i, j, k, c), one row at a time."""
    tensor = np.zeros((dim, dim, dim))
    cleaned = []
    for (i, j, k, c) in rows:
        i, j, k, c = int(i), int(j), int(k), float(c)
        tensor[i, j, k] += c
        tensor[j, i, k] -= c
        cleaned.append((i, j, k, c))
    return tensor, tuple(cleaned)


def j_generators(g, v_indices, z_indices) -> np.ndarray:
    """j(Z_a)[p, q] = <[V_q, V_p], Z_a>, stacked over the z indices."""
    v, z = list(v_indices), list(z_indices)
    return g.tensor[np.ix_(v, v, z)].transpose(2, 1, 0)


def jacobi_residual_einsum(t) -> float:
    """max over basis triples of |[[e_i,e_j],e_k] + cyclic|."""
    e = np.einsum("ijm,mkl->ijkl", t, t)
    jac = e + np.einsum("jkil->ijkl", e) + np.einsum("kijl->ijkl", e)
    return float(np.sqrt((jac**2).sum(axis=-1)).max())


def curvature_einsum(t, gamma) -> np.ndarray:
    """R[i, j, k, :] = R(e_i, e_j) e_k from brackets ``t`` and Gamma."""
    second = np.einsum("jkm,iml->ijkl", gamma, gamma)
    bracket_term = np.einsum("ijm,mkl->ijkl", t, gamma)
    return second - np.einsum("jikl->ijkl", second) - bracket_term


def central_jacobi_blocks_block_diag(mus, rho_stars, pairs, t) -> np.ndarray:
    """The frame Jacobi operator from one small array per block."""
    s, c = np.sinh(t), np.cosh(t)
    blocks = [np.array([[-1.0]])]
    for m in np.concatenate([np.atleast_1d(mus), np.atleast_1d(rho_stars)]):
        blocks.append(np.array([[-(m + s * s * m * m) / (c * c)]]))
    for rho, theta in np.asarray(pairs, dtype=float).reshape(-1, 2):
        diag1 = theta * theta / 4.0 - rho - s * s * rho * rho
        diag2 = (theta * theta / 4.0 - (1.0 - rho)
                 - s * s * ((1.0 - rho) * (1.0 - rho)))
        offd = s * theta * (rho - 0.5)
        blocks.append(np.array([[diag1, offd], [offd, diag2]]) / (c * c))
    return block_diag(*blocks)


# ---------------------------------------------------------------------------
# skew derivations that commute with ad_H
# ---------------------------------------------------------------------------

def skew_derivations_commuting_with_ad_h(g, merge_tol=1e-9) -> np.ndarray:
    """Basis ``(q, dim, dim)`` of the skew derivations K of n = [s, s] that
    commute with a self-adjoint ad_H|n, in the ambient coordinates of
    ``g`` (K vanishes on H and maps n into n).

    K commutes with ad_H iff it keeps every ad_H eigenspace, so the
    unknowns are one skew block per eigenspace; the derivation identity
    K[x, y] = [Kx, y] + [x, Ky] on a basis of n is a linear system in
    them, and its null space is the answer.
    """
    n_basis = derived_algebra(g)
    h = _null_space(n_basis.T)[:, 0]
    m_n = n_basis.T @ ad_matrix(h, g) @ n_basis
    assert np.abs(m_n - m_n.T).max() <= 1e-12 * np.abs(m_n).max()
    rho, vecs = np.linalg.eigh(m_n)
    r = len(rho)
    unknowns = []
    for block in np.split(vecs, np.flatnonzero(np.diff(rho) > merge_tol) + 1,
                          axis=1):
        for a in range(block.shape[1]):
            for b in range(a + 1, block.shape[1]):
                unknowns.append(np.outer(block[:, a], block[:, b])
                                - np.outer(block[:, b], block[:, a]))
    if not unknowns:
        return np.zeros((0, g.dim, g.dim))
    # t_n[a, c, :] = [b_a, b_c] in n coordinates
    t_n = np.einsum("ia,jc,ijk,kd->acd", n_basis, n_basis, g.tensor,
                    n_basis)
    k = np.array(unknowns)
    defect = (np.einsum("pkm,acm->pack", k, t_n)
              - np.einsum("pma,mck->pack", k, t_n)
              - np.einsum("pmc,amk->pack", k, t_n))
    coeffs = _null_space(defect.reshape(len(k), r ** 3).T)
    return np.einsum("ia,pab,jb->pij", n_basis,
                     np.tensordot(coeffs.T, k, axes=1), n_basis)


def add_to_ad_h(g, k):
    """``g`` with ``k`` added to ad_H, H the unit normal of [s, s]:
    [x, y] + <h, x> k y - <h, y> k x."""
    h = _null_space(derived_algebra(g).T)[:, 0]
    tensor = (g.tensor + np.einsum("i,kj->ijk", h, k)
              - np.einsum("j,ki->ijk", h, k))
    return MetricLieAlgebra.from_tensor(tensor, jacobi_tol=g.jacobi_tol)


# ---------------------------------------------------------------------------
# Damek-Ricci builds from modified Clifford modules
# ---------------------------------------------------------------------------

def _damek_ricci_from(l, copies, change):
    """The Damek-Ricci algebra of ``copies`` of the irreducible module
    for l, with ``change(generators, size)`` applied to a copy of its
    generators (size = the irreducible dimension) first."""
    cm = clifford_generators(l, copies)
    gens = cm.generators.copy()
    change(gens, cm.m // copies)
    return build_damek_ricci(CliffordModule(l, cm.m, gens))


def mixed_damek_ricci(l, p, q):
    """The Damek-Ricci algebra of the (p, q) Clifford module, l = 3 mod 4:
    p copies of one irreducible module and q of the other, made by
    negating J_l on the last q copies.  (3; 1, 1) and (3; 2, 0) have equal
    dim v and dim z; the first is not symmetric, the second is."""
    def flip(gens, size):
        gens[-1, p * size:, p * size:] *= -1.0
    return _damek_ricci_from(l, p + q, flip)


def damek_ricci_scaled_j(l, copies, factor, a=0):
    """The Damek-Ricci brackets of (l, copies) with J_a times ``factor``:
    still a Lie algebra with ad_H = (1/2, 1), but not H-type unless
    ``factor`` is +-1."""
    def scale(gens, size):
        gens[a] *= factor
    return _damek_ricci_from(l, copies, scale)


# ---------------------------------------------------------------------------
# the stable pair block one time at a time
# ---------------------------------------------------------------------------

def stable_block_scalar(rho: float, theta: float, t: float):
    """M(t) and M'(t) of ``hypergeom.stable_block_and_derivative`` at one
    scalar t: first-kind columns from ker(d/dt - B) plus Killing columns
    from ker(d/dt - A), with A and B as 2x2 matrices."""
    z = 1.0 / (1.0 + math.exp(2.0 * t))
    a, b = pair_exponents(rho, theta)
    u1, u1p, u2, u2p = fundamental_pair(a, b, rho, z)
    ch, th, sech = math.cosh(t), math.tanh(t), 1.0 / math.cosh(t)
    a_mat = th * np.diag([rho, 1.0 - rho])
    b_op = a_mat + sech * np.array([[0.0, -theta], [theta, 0.0]])

    def ker_b_solution(u, up):
        return np.array([-(ch ** -rho) * up,
                         2.0 * theta * ch ** (1.0 - rho) * u])

    s1 = ker_b_solution(u1, u1p)
    s2 = ker_b_solution(u2, u2p)
    k1 = np.array([ch ** rho, 0.0])
    k2 = np.array([0.0, ch ** (1.0 - rho)])
    col1 = s1 - 2.0 * theta * k2
    col2 = s2 + 4.0 ** rho * (1.0 - rho) * k1
    dcol1 = b_op @ s1 - 2.0 * theta * (a_mat @ k2)
    dcol2 = b_op @ s2 + 4.0 ** rho * (1.0 - rho) * (a_mat @ k1)
    return np.column_stack([col1, col2]), np.column_stack([dcol1, dcol2])


def pair_stable_block_per_t(rho: float, theta: float, t_grid):
    """E = M(t) M(0)^-1 and its covariant derivative on ``t_grid``, from
    :func:`stable_block_scalar` at each t."""
    m0_inv = np.linalg.inv(stable_block_scalar(rho, theta, 0.0)[0])
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    e = np.empty((len(t_grid), 2, 2))
    ep = np.empty((len(t_grid), 2, 2))
    for n, t in enumerate(t_grid):
        m_t, dm_t = stable_block_scalar(rho, theta, t)
        e[n] = m_t @ m0_inv
        ep[n] = (dm_t + theta / (2.0 * math.cosh(t)) * rot @ m_t) @ m0_inv
    return e, ep


def _flow_density(rhs, v, t_grid, tols):
    """det[c, u] of the state (u, c, p), integrated by DOP853 from
    u = v, c = 0 and p an orthonormal basis of the complement of v,
    oriented positive at the first grid time after 0, as in
    :func:`jacobi_flow.volume_density`."""
    v = np.asarray(v, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    n = v.size
    k = n - 1
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


def covariant_volume_density(g, v, t_grid, tols=DEFAULT_TOLS):
    """det A_v(t) from the covariant Jacobi equation D_t^2 J + R(J, u) u = 0.

    The geodesic u' = -nabla_u u is integrated jointly with the
    left-invariant frame coefficients c of the Jacobi columns and
    p = D_t c, with c(0) = 0 and p(0) an orthonormal basis of the
    complement of v.  Each right-hand side contracts u (x) u with the
    n^2 x n^2 curvature tensor of ``curvature.curvature_tensor``.
    """
    n = g.dim
    k = n - 1
    gamma = g.connection
    r_tensor = curvature_tensor(g, gamma)
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

    return _flow_density(rhs, v, t_grid, tols)


def three_matvec_volume_density(g, v, t_grid, tols=DEFAULT_TOLS):
    """det A_v(t) from the linearized geodesic flow, one term at a time.

    The system of :func:`jacobi_flow.volume_density`, u' = -nabla_u u,
    xi' = eta + [xi, u], eta' = -2 nabla_u eta + [u, eta], with nabla_u
    and ad_u contracted from Gamma and the brackets separately and
    nabla_u u as a third matvec.
    """
    n = g.dim
    k = n - 1
    gamma_flat = g.connection.reshape(n, n * n)
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

    return _flow_density(rhs, v, t_grid, tols)


# ---------------------------------------------------------------------------
# the central geodesic and its frame
# ---------------------------------------------------------------------------

def z_top_vector(d) -> np.ndarray:
    """The canonical top eigenvector Z: the last adapted basis vector."""
    return np.eye(d.algebra.dim)[d.z_indices[-1]]


def central_velocity(t: float):
    """Velocity coefficients of the central geodesic on (H, Z)."""
    return -math.tanh(t), 1.0 / math.cosh(t)


def velocity_vector(frame: CentralGeodesicFrame, t: float) -> np.ndarray:
    vh, vz = central_velocity(t)
    return vh * frame.data.h_vector + vz * z_top_vector(frame.data)


def xi(frame: CentralGeodesicFrame, t: float) -> np.ndarray:
    """Parallel unit normal in the totally geodesic H-Z plane."""
    return (frame.data.h_vector / math.cosh(t)
            + math.tanh(t) * z_top_vector(frame.data))


def frame_matrix(frame: CentralGeodesicFrame, t: float) -> np.ndarray:
    """Columns of the frame in the algebra basis, (dim, dim-1)."""
    return np.column_stack(
        [xi(frame, t), frame.z_perp, frame.kernel, frame.pair_cols]
    )


def frame_connection(frame: CentralGeodesicFrame, t: float) -> np.ndarray:
    """Skew matrix W(t) with D/dt = d/dt + W on frame coefficients."""
    k = frame.size
    w = np.zeros((k, k))
    offset = 1 + len(frame.mus) + len(frame.rho_stars)
    for i, (_, theta) in enumerate(frame.pairs):
        rate = theta / (2.0 * math.cosh(t))
        w[offset + 2 * i, offset + 2 * i + 1] = rate
        w[offset + 2 * i + 1, offset + 2 * i] = -rate
    return w


def covariant_derivative_along(d, t: float, field) -> np.ndarray:
    """nabla_{gamma'(t)} of a left-invariant field along the central
    geodesic, via the connection."""
    vh, vz = central_velocity(t)
    u = vh * d.h_vector + vz * z_top_vector(d)
    return np.einsum("i,ijk,j->k", u, d.algebra.connection,
                     np.asarray(field, dtype=float))


# ---------------------------------------------------------------------------
# Jacobi tensors by integration
# ---------------------------------------------------------------------------

def _integrate_frame(frame, c0, p0, t_max, t_eval, tols, block=slice(None)):
    """Solve D^2 c + R(t) c = 0, D = d/dt + W(t), on the frame slots
    ``block`` from c(0) = c0, D c(0) = p0 (columns), with DOP853.

    Returns ``(t, c, p)`` with c and p of shape (nt, k, m).
    """
    c0 = np.asarray(c0, dtype=float)
    k = c0.shape[0]
    c0 = c0.reshape(k, -1)
    m = c0.shape[1]
    p0 = np.asarray(p0, dtype=float).reshape(k, m)

    def rhs(t, y):
        c, p = y.reshape(2, k, m)
        w = frame_connection(frame, t)[block, block]
        r = frame.jacobi_operator(t)[block, block]
        return np.concatenate([(p - w @ c).ravel(), (-r @ c - w @ p).ravel()])

    y0 = np.concatenate([c0.ravel(), p0.ravel()])
    sol = solve_ivp(rhs, (0.0, t_max), y0, method="DOP853", t_eval=t_eval,
                    rtol=tols.ode_rtol, atol=tols.ode_atol)
    if not sol.success:
        raise NumericalError(f"Jacobi integration failed: {sol.message}")
    c, p = sol.y.T.reshape(-1, 2, k, m).transpose(1, 0, 2, 3)
    return sol.t, c, p


def integrate_jacobi(d, j0, j0prime, t_max: float, steps: int = 200,
                     tols=DEFAULT_TOLS) -> JacobiTensorSample:
    """Integrate the Jacobi system D^2 J + R(t) J = 0 in the central frame.

    ``j0`` and ``j0prime`` are frame coefficients of the initial value
    and initial covariant derivative (vectors or matrices of columns).
    """
    t, c, p = _integrate_frame(CentralGeodesicFrame.build(d), j0, j0prime,
                               t_max, np.linspace(0.0, t_max, steps + 1),
                               tols)
    return JacobiTensorSample(t_grid=t, e=c, e_prime=p)


def _frame_blocks(frame: CentralGeodesicFrame):
    """The decoupled blocks of ``frame`` as ``(slots, sub, sub_slots)``.

    ``sub`` holds the xi slot and this block alone, so its operator and
    connection at ``sub_slots`` are the block's, evaluated without the
    rest of the frame: xi, each scalar slot, then each pair plane.
    """
    none, no_pairs = np.zeros(0), np.zeros((0, 2))
    alone = dataclasses.replace(frame, mus=none, rho_stars=none,
                                pairs=no_pairs)
    blocks = [(slice(0, 1), alone, slice(0, 1))]
    slot = 1
    for field in ("mus", "rho_stars", "pairs"):
        width = 2 if field == "pairs" else 1
        for value in getattr(frame, field):
            sub = dataclasses.replace(alone, **{field: np.array([value])})
            blocks.append((slice(slot, slot + width), sub,
                           slice(1, 1 + width)))
            slot += width
    return blocks


def finite_horizon_tensor(d, t_grid, r: float,
                          tols=DEFAULT_TOLS) -> JacobiTensorSample:
    """Jacobi tensor with E(0) = id, E(r) = 0, sampled on ``t_grid``.

    Each decoupled frame block (the scalar slots, then the 2x2 pair
    planes) is integrated from E = (id, 0), E' = (0, id) and shot to the
    horizon r.  Shooting per block keeps the terminal solve well
    conditioned: the scalar blocks are exact divisions and the pair
    blocks only mix the growth rates of a single rotation plane.  As r
    grows this converges to :func:`jacobi_flow.stable_jacobi_tensor`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[-1] > r:
        raise DomainError("horizon r must lie beyond the last grid point")
    frame = CentralGeodesicFrame.build(d)
    t_eval = np.unique(np.concatenate([t_grid, [r]]))
    keep = np.isin(t_eval, t_grid)
    e = np.zeros((t_grid.size, frame.size, frame.size))
    ep = np.zeros_like(e)
    for sl, sub, sub_sl in _frame_blocks(frame):
        size = sl.stop - sl.start
        eye, zero = np.eye(size), np.zeros((size, size))
        _, c, p = _integrate_frame(sub, np.hstack([eye, zero]),
                                   np.hstack([zero, eye]), r, t_eval, tols,
                                   block=sub_sl)
        phi1, phi2 = c[:, :, :size], c[:, :, size:]
        phi2_r = phi2[-1]
        scale = max(np.abs(phi2_r).max(), 1.0)
        if abs(np.linalg.det(phi2_r)) <= (tols.det_floor * scale) ** size:
            raise ConjugatePointError(f"singular terminal solve at r = {r}")
        coeff = -np.linalg.solve(phi2_r, phi1[-1])
        e[:, sl, sl] = phi1[keep] + phi2[keep] @ coeff
        ep[:, sl, sl] = p[keep, :, :size] + p[keep, :, size:] @ coeff
    return JacobiTensorSample(t_grid=t_grid, e=e, e_prime=ep)


def finite_horizon_shape(ad_a, r: float) -> np.ndarray:
    """Second fundamental form U_r = -E_r'(0) of a sphere at distance r.

    Solves the constant-coefficient Jacobi system along the geodesic of
    A in the left-invariant frame, (d/dt + S_A)^2 E + R_A E = 0 with
    R_A = -D_A^2 - [D_A, S_A] and boundary conditions E(0) = id,
    E(r) = 0, via one matrix exponential of the companion system and a
    terminal linear solve.  U_r converges monotonically (decreasing) to
    D_A + X as r grows, X the maximal Riccati solution.
    """
    a = as_square(ad_a)
    if not r > 0:
        raise DomainError("horizon r must be positive")
    if r > HORIZON_CAP:
        raise DomainError(
            f"horizon {r} exceeds the cap {HORIZON_CAP}; "
            "spectra this slow should use the algebraic solver"
        )
    n = a.shape[0]
    d_sym, s_skew = symmetric_skew_split(a)
    r_a = -d_sym @ d_sym - (d_sym @ s_skew - s_skew @ d_sym)
    companion = np.zeros((2 * n, 2 * n))
    companion[:n, n:] = np.eye(n)
    companion[n:, :n] = -(s_skew @ s_skew + r_a)
    companion[n:, n:] = -2.0 * s_skew
    phi = matrix_exponential(r * companion)
    phi11, phi12 = phi[:n, :n], phi[:n, n:]
    try:
        p = -solve_linear(phi12, phi11)
    except SingularMatrixError as exc:
        raise ConjugatePointError(
            f"boundary solve singular at r = {r}: {exc}"
        ) from exc
    return -(p + s_skew)


# ---------------------------------------------------------------------------
# curvature, mean curvature and spectra
# ---------------------------------------------------------------------------

def ricci(r: np.ndarray) -> np.ndarray:
    """Ricci tensor Ric[j, k] = sum_i <R(e_i, e_j) e_k, e_i> of the dense
    tensor of ``curvature.curvature_tensor``."""
    return np.einsum("ijki->jk", r)


def nabla_R(g) -> np.ndarray:
    """Covariant derivative (nabla_{e_l} R)(e_i, e_j) e_k, index [l,i,j,k,:].

    Holds four n^5 arrays.
    """
    gamma = g.connection
    r = curvature_tensor(g, gamma)
    term0 = np.einsum("ijkm,lmp->lijkp", r, gamma)
    term1 = np.einsum("lim,mjkp->lijkp", gamma, r)
    term2 = np.einsum("ljm,imkp->lijkp", gamma, r)
    term3 = np.einsum("lkm,ijmp->lijkp", gamma, r)
    return term0 - term1 - term2 - term3


def nabla_R_norm_three_products(g) -> float:
    """Frobenius norm of nabla R; zero iff the space is locally symmetric.

    Reads ``g.connection`` and the dense R of ``curvature_tensor``.  The
    square norm is accumulated one derivative index l at a time, so memory
    stays O(n^4):

        (nabla_l R)(e_i, e_j) e_k = nabla_l (R(e_i, e_j) e_k)
            - R(nabla_l e_i, e_j) e_k - R(e_i, nabla_l e_j) e_k
            - R(e_i, e_j) nabla_l e_k,

    each term a BLAS product of R with the matrix Gamma_l = gamma[l].
    R is antisymmetric in (i, j), so the third term is minus the (i, j)
    transpose of the second.
    """
    gamma = g.connection
    r = curvature_tensor(g, gamma)
    n = g.dim
    by_first = r.reshape(n, n ** 3)           # [m, (j, k, p)]
    by_third = r.reshape(n * n, n, n)         # [(i, j), m, p]
    acc = np.empty(r.shape)                   # nabla_l R
    buf = np.empty(r.shape)    # one term at a time; C order, so the
                               # reshaped out= targets are views of it
    total = 0.0
    for gam in gamma:
        np.matmul(r, gam, out=acc)
        np.matmul(gam, by_first, out=buf.reshape(n, n ** 3))
        acc -= buf
        acc += buf.transpose(1, 0, 2, 3)
        np.matmul(gam, by_third, out=buf.reshape(n * n, n, n))
        acc -= buf
        total += float(np.vdot(acc, acc))
    return math.sqrt(total)


def mean_curvature_analytic(d, t: float) -> float:
    """m(t) = trace ad_H - d/dt log|h(z(t))| along the central geodesic."""
    mu_f, rho_star, pairs = d.frame_factor_data()
    z = z_of_t(t)
    step = 1e-6          # z step of the finite differences of h
    h0 = h_function(mu_f, rho_star, pairs, z)
    if abs(h0) < 1e-12:
        raise DomainError(f"h vanishes at z = {z}; mean curvature undefined")
    if z > step:
        hp = h_function(mu_f, rho_star, pairs, z + step)
        hm = h_function(mu_f, rho_star, pairs, z - step)
        dh_dz = (hp - hm) / (2.0 * step)
    else:
        # too close to z = 0 for the central stencil: one-sided, 2nd order
        hp = h_function(mu_f, rho_star, pairs, z + step)
        hpp = h_function(mu_f, rho_star, pairs, z + 2.0 * step)
        dh_dz = (-3.0 * h0 + 4.0 * hp - hpp) / (2.0 * step)
    dz_dt = -2.0 * z * (1.0 - z)
    return d.trace_ad_h - dh_dz / h0 * dz_dt


def mean_curvature_trace(sample) -> np.ndarray:
    """m(t) = -trace(E'(t) E(t)^{-1}) at each grid time: the pointwise
    value that the finite differences of log|det E| approximate."""
    return -np.trace(sample.e_prime @ np.linalg.inv(sample.e),
                     axis1=1, axis2=2)


# ---------------------------------------------------------------------------
# Ricci curvature from the structure constants, in any number type
# ---------------------------------------------------------------------------

def bracket_table(g, number=float) -> dict:
    """The nonzero c[i, j, k] = <[e_i, e_j], e_k> of ``g`` with both
    orders of (i, j), each stored row converted by ``number``: with
    ``fractions.Fraction`` the table is exact for rational builds."""
    c = {}
    for i, j, k, value in g.structure_constants:
        value = number(value)
        c[i, j, k] = c.get((i, j, k), 0) + value
        c[j, i, k] = c.get((j, i, k), 0) - value
    return {key: value for key, value in c.items() if value != 0}


def _grouped(c, free, keep):
    """{c's indices at ``keep``: {its index at ``free``: value}}."""
    groups = {}
    for key, value in c.items():
        groups.setdefault(tuple(key[p] for p in keep), {})[key[free]] = value
    return groups


def jacobi_identity_exact(g, number=float) -> bool:
    """Whether [[e_i, e_j], e_k] + cyclic = 0 for every basis triple, in
    the arithmetic of ``number`` (exactly, for ``Fraction``)."""
    by_pair = _grouped(bracket_table(g, number), 2, (0, 1))

    def bracket(vec, k):   # [vec, e_k]
        out = {}
        for m, x in vec.items():
            for l, y in by_pair.get((m, k), {}).items():
                out[l] = out.get(l, 0) + x * y
        return out

    for i, j, k in itertools.combinations(range(g.dim), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, y in bracket(by_pair.get((a, b), {}), c).items():
                total[l] = total.get(l, 0) + y
        if any(total.values()):
            return False
    return True


def ricci_from_brackets(g, number=float) -> list:
    """Ric of the left-invariant metric from the brackets alone (Besse,
    *Einstein Manifolds*, 7.38), as a list of rows in ``number``:

    Ric(X, Y) = -1/2 sum_i <[X, e_i], [Y, e_i]> - 1/2 B(X, Y)
                + 1/4 sum_ij <[e_i, e_j], X> <[e_i, e_j], Y>
                - 1/2 (<[Z, X], Y> + <[Z, Y], X>),

    with B the Killing form and <Z, W> = trace ad_W.  Each sum is taken
    over the nonzero triples of :func:`bracket_table` only."""
    n = g.dim
    c = bracket_table(g, number)
    zero = number(0)
    ric = [[zero] * n for _ in range(n)]

    def add(weight, left, right):
        # ric[a][b] += weight * sum over keys of left[key][a] right[key][b]
        for key, col_a in left.items():
            for b, y in right.get(key, {}).items():
                for a, x in col_a.items():
                    ric[a][b] += weight * x * y

    half, quarter = number(1) / 2, number(1) / 4
    first = _grouped(c, 0, (1, 2))        # (i, k): {a: c[a, i, k]}
    add(-half, first, first)
    add(-half, first, {(j, k): col for (k, j), col in first.items()})   # B
    last = _grouped(c, 2, (0, 1))         # (i, j): {a: c[i, j, a]}
    add(quarter, last, last)
    z = {}                                # <Z, e_w> = trace ad_{e_w}
    for (w, j, k), value in c.items():
        if j == k:
            z[w] = z.get(w, zero) + value
    for (w, a, b), value in c.items():
        if w in z:
            ric[a][b] -= half * z[w] * value
            ric[b][a] -= half * z[w] * value
    return ric


def spectra_match(a, b, tol: float = 1e-9) -> bool:
    """Multiset comparison of two spectra, via optimal pairing."""
    sa, sb = sorted_spectrum(a), sorted_spectrum(b)
    if sa.shape != sb.shape:
        return False
    cost = np.abs(sa[:, None] - sb[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return bool(cost[rows, cols].max() <= tol * max(1.0, np.abs(sa).max()))


# ---------------------------------------------------------------------------
# gamma, monodromy and the factor classifier they derive
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MonodromyCoeffs:
    b11: complex
    b12: complex


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericalError(f"{what} is not finite: {value}")
    return value


def gamma(x: float) -> float:
    """Gamma function by ``scipy.special.gamma``; a pole is a DomainError."""
    if _nonpositive_int(x):
        raise DomainError(f"gamma pole at x = {x}")
    return _finite(float(special.gamma(x)), f"gamma({x})")


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) by ``scipy.special.rgamma``, exactly 0 at the poles."""
    if _nonpositive_int(x):
        return 0.0
    return _finite(float(special.rgamma(x)), f"1/gamma({x})")


def monodromy_coeffs(a: float, b: float, c: float,
                     tols=DEFAULT_TOLS) -> MonodromyCoeffs:
    """Continuation of u1 along the positive loop around z = 1.

    The continued branch is B11 u1 + B12 u2 (DLMF 15.10).  Terminating
    series (a or b a nonpositive integer) are single valued: (1, 0),
    which also covers the integer-c center case mu = 1.  B12 is
    assembled from reciprocal gammas so the integer-parameter zeros are
    exact.
    """
    if (_nonpositive_int(a, tols.classifier_zero)
            or _nonpositive_int(b, tols.classifier_zero)):
        return MonodromyCoeffs(complex(1.0), complex(0.0))
    if _integer(c, tols.classifier_zero):
        raise DomainError(f"monodromy formula needs c not an integer, got {c}")
    phase = np.exp(1j * math.pi * (c - a - b))
    b11 = 1.0 - 2j * phase * (math.sin(math.pi * a) * math.sin(math.pi * b)
                              / math.sin(math.pi * c))
    b12 = (-2j * math.pi * phase * gamma(c) * gamma(c - 1.0)
           * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)
           * reciprocal_gamma(b) * reciprocal_gamma(a))
    return MonodromyCoeffs(complex(b11), complex(b12))


def classify_factor_monodromy(kind, *params, tols=DEFAULT_TOLS):
    """The factor classifier rebuilt from the monodromy of each half series.

    Takes the arguments of ``hypergeom.classify_factor`` and returns its
    ``(label, degree)``.  A pair factor continues to
    A/z + B z^-c + C z^-(1-c) plus a bounded part; it stays bounded only
    when A = 0 and the singular coefficients cancel, which forces
    c = 1/2 and b a positive integer, giving a polynomial of degree
    b - 1.  Against the closed criterion of ``hypergeom.classify_factor``.
    """
    tol = tols.classifier_zero
    if kind == "center":
        (mu,) = params
        return ("constant" if abs(mu - 1.0) <= tol else "unbounded"), None
    if kind == "kernel":
        return "unbounded", None
    c, theta = params
    a, b = pair_exponents(c, theta)
    m1 = monodromy_coeffs(a, b, c, tols)
    m2 = monodromy_coeffs(-a, -b, 1.0 - c, tols)
    if abs(m1.b11 + m2.b11 - 2.0) > tol:
        return "unbounded", None
    if abs(c - 0.5) <= tol and abs(m1.b12 + m2.b12) <= tol:
        if abs(b - round(b)) > 1e-8:
            return "unbounded", None
        return "polynomial", int(round(b)) - 1
    return "unbounded", None


# ---------------------------------------------------------------------------
# Riccati and the report writer
# ---------------------------------------------------------------------------

def riccati_max_doubled(ad_a, tols=DEFAULT_TOLS) -> np.ndarray:
    """Maximal symmetric solution of X^2 + X A + A^T X = 0 from the real
    Schur form of the doubled matrix ``[[-A, -I], [0, A^T]]``.

    Its strictly stable invariant subspace, together with the axis
    subspace of A embedded as [Q_axis; 0] (where X vanishes), is the
    graph [I; X] of the maximal solution.
    """
    a = as_square(ad_a)
    n = a.shape[0]
    cut = -0.5 * (tols.axis_band + tols.separation_band)
    big = np.block([[-a, -np.eye(n)], [np.zeros((n, n)), a.T]])
    _, z, sdim, _ = ordered_real_schur(big, lambda x, y: x < cut)
    _, q, n_axis, _ = ordered_real_schur(a, lambda x, y: abs(x) < -cut)
    assert sdim + n_axis == n, (sdim, n_axis)
    u = np.hstack([z[:, :sdim],
                   np.vstack([q[:, :n_axis], np.zeros((n, n_axis))])])
    x = np.linalg.solve(u[:n].T, u[n:].T).T
    return 0.5 * (x + x.T)


def g17(value) -> str:
    """One finite number as the CLI writes it: %.17g, -0 written as 0."""
    return format(float(value) + 0.0, ".17g")


def _scalar_jsonable(value):
    if isinstance(value, dict):
        return {str(k): _scalar_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scalar_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _scalar_jsonable(value.tolist())
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        return {"re": float(value.real), "im": float(value.imag)}
    return value


def _scalar_emit(value, out):
    if isinstance(value, dict):
        out.write("{" + ", ".join(
            json.dumps(str(k)) + ": " + _scalar_text(v)
            for k, v in value.items()) + "}")
    elif isinstance(value, (list, tuple)):
        out.write("[" + ", ".join(_scalar_text(v) for v in value) + "]")
    elif isinstance(value, bool):
        out.write("true" if value else "false")
    elif value is None:
        out.write("null")
    elif isinstance(value, int):
        out.write(str(value))
    elif isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            out.write(json.dumps(str(value)))
        else:
            out.write(g17(value))
    else:
        out.write(json.dumps(value))


def _scalar_text(value) -> str:
    buf = io.StringIO()
    _scalar_emit(value, buf)
    return buf.getvalue()


def render_json_scalar(value) -> str:
    """A report as the CLI writes it: fixed key order, %.17g floats with
    -0 written as 0, non-finite floats as strings, complex numbers as
    {"re", "im"}; every array expanded and written one element at a
    time."""
    return _scalar_text(_scalar_jsonable(value)) + "\n"
