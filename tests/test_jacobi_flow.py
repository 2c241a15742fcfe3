import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import beta

from oracles import (central_velocity, covariant_derivative_along,
                     covariant_volume_density, finite_horizon_tensor,
                     damek_ricci_scaled_j, frame_connection, frame_matrix,
                     integrate_jacobi, mean_curvature_trace,
                     mixed_damek_ricci, pair_stable_block_per_t,
                     three_matvec_volume_density, velocity_vector,
                     z_top_vector)
from solvharm import curvature, jacobi_flow
from solvharm.cli import build_report
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.config import DEFAULT_TOLS
from solvharm.errors import ConjugatePointError, DomainError, NumericalError
from solvharm.hypergeom import gauss_f, stable_block_and_derivative, z_of_t
from solvharm.jacobi_flow import (CentralGeodesicFrame, JacobiTensorSample,
                                  mean_curvature_numeric, stable_jacobi_tensor,
                                  volume_density)
from solvharm.lie_metric import MetricLieAlgebra, standard_decomposition


def _integrated(g, v, t):
    """The integrated path of ``volume_density``, which certified H-type
    inputs skip: their test oracle."""
    return jacobi_flow._integrated_density(g, v, np.asarray(t, dtype=float),
                                           DEFAULT_TOLS)


def _pair_block_algebra(rho, theta):
    return MetricLieAlgebra(4, (
        (0, 1, 1, rho), (0, 2, 2, 1.0 - rho), (0, 3, 3, 1.0),
        (1, 2, 3, theta),
    ))


def test_central_velocity_values():
    assert central_velocity(0.0) == (0.0, 1.0)
    vh, vz = central_velocity(40.0)
    assert abs(vh + 1.0) <= 1e-12 and abs(vz) <= 1e-12
    vh, vz = central_velocity(1.0)
    assert abs(vh * vh + vz * vz - 1.0) <= 1e-14


def test_covariant_derivative_closed_forms(dr_data):
    d = dr_data[(2, 1)]
    # central fields orthogonal to Z are parallel
    z_star = np.zeros(d.algebra.dim)
    z_star[d.z_indices[0]] = 1.0
    for t in (0.0, 0.7, 2.5):
        np.testing.assert_allclose(
            covariant_derivative_along(d, t, z_star), 0.0, atol=1e-12
        )
    # v-fields rotate with speed theta / (2 cosh t) through j(Z)
    frame = CentralGeodesicFrame.build(d)
    v_col = frame.pair_cols[:, 0]
    vt_col = frame.pair_cols[:, 1]
    theta = frame.pairs[0, 1]
    got = covariant_derivative_along(d, 0.0, v_col)
    np.testing.assert_allclose(got, -(theta / 2.0) * vt_col, atol=1e-12)
    # geodesic property: the connection term cancels the coefficient
    # derivative of the velocity field, D(gamma')/dt = 0
    for t in (0.0, 1.2):
        vel = velocity_vector(frame, t)
        sech = 1.0 / math.cosh(t)
        coeff_dot = (-sech**2) * d.h_vector \
            + (-sech * math.tanh(t)) * z_top_vector(d)
        total = coeff_dot + covariant_derivative_along(d, t, vel)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_frame_is_orthonormal_and_normal(dr_data):
    d = dr_data[(3, 1)]
    frame = CentralGeodesicFrame.build(d)
    for t in (0.0, 0.8, 3.0):
        mat = frame_matrix(frame, t)
        np.testing.assert_allclose(mat.T @ mat, np.eye(frame.size),
                                   atol=1e-12)
        vel = velocity_vector(frame, t)
        assert abs(np.linalg.norm(vel) - 1.0) <= 1e-14
        np.testing.assert_allclose(mat.T @ vel, 0.0, atol=1e-14)


def test_integrate_hz_block_decay(dr_data):
    d = dr_data[(1, 1)]
    frame = CentralGeodesicFrame.build(d)
    k = frame.size
    j0 = np.zeros(k)
    j0[0] = 1.0
    j0p = np.zeros(k)
    j0p[0] = -1.0
    s = integrate_jacobi(d, j0, j0p, 10.0, steps=50)
    assert np.abs(s.e[:, 0, 0] - np.exp(-s.t_grid)).max() <= 1e-8


def test_integrate_center_factor_killing_and_stable(dr_data):
    d = dr_data[(2, 1)]
    frame = CentralGeodesicFrame.build(d)
    k = frame.size
    mu = frame.mus[0]
    # stable field e^{-mu t} F(mu, 1-mu; 1+mu; z) is e^{-t} for mu = 1
    j0 = np.zeros(k)
    j0[1] = 1.0
    j0p = np.zeros(k)
    j0p[1] = -mu
    s = integrate_jacobi(d, j0, j0p, 10.0, steps=40)
    assert np.abs(s.e[:, 1, 0] - np.exp(-s.t_grid)).max() <= 1e-8
    # Killing field cosh^mu(t): initial value 1, derivative 0
    j0p = np.zeros(k)
    s = integrate_jacobi(d, j0, j0p, 6.0, steps=30)
    expected = np.cosh(s.t_grid) ** mu
    assert np.abs(s.e[:, 1, 0] - expected).max() <= 1e-8 * expected.max()


@pytest.mark.parametrize("rho,theta", [(0.5, 1.0), (0.25, 0.5), (0.3, 0.8)])
def test_integrate_pair_block_matches_closed_form(rho, theta):
    d = standard_decomposition(_pair_block_algebra(rho, theta))
    frame = CentralGeodesicFrame.build(d)
    k = frame.size
    off = 1 + len(frame.mus) + len(frame.rho_stars)
    m0, m0p = stable_block_and_derivative(rho, theta, 0.0)
    j0 = np.zeros((k, 2))
    j0[off: off + 2] = m0
    j0p = np.zeros((k, 2))
    j0p[off: off + 2] = m0p
    j0p += frame_connection(frame, 0.0) @ j0
    s = integrate_jacobi(d, j0, j0p, 10.0, steps=100)
    sup = 0.0
    for i, t in enumerate(s.t_grid):
        mt, _ = stable_block_and_derivative(rho, theta, t)
        sup = max(sup, np.abs(s.e[i][off: off + 2] - mt).max())
    assert sup <= 1e-6


def test_killing_pair_solutions_satisfy_jacobi(generic_pair_algebra):
    # ker(d/dt - A): (cosh^rho, 0) and (0, cosh^(1-rho)) solve the system
    d = standard_decomposition(generic_pair_algebra)
    frame = CentralGeodesicFrame.build(d)
    rho = frame.pairs[0, 0]
    k = frame.size
    off = 1 + len(frame.mus) + len(frame.rho_stars)
    for component, power in ((0, rho), (1, 1.0 - rho)):
        j0 = np.zeros(k)
        j0[off + component] = 1.0
        # the plain derivative vanishes at 0
        j0p = frame_connection(frame, 0.0) @ j0
        s = integrate_jacobi(d, j0, j0p, 5.0, steps=25)
        expected = np.cosh(s.t_grid) ** power
        got = s.e[:, off + component, 0]
        assert np.abs(got - expected).max() <= 1e-8 * expected.max()


def test_wronskian_conserved(dr_data):
    d = dr_data[(3, 1)]
    frame = CentralGeodesicFrame.build(d)
    k = frame.size
    rng = np.random.default_rng(3)
    j0 = rng.standard_normal((k, 2))
    j0p = rng.standard_normal((k, 2))
    s = integrate_jacobi(d, j0, j0p, 8.0, steps=60)
    w = np.array([
        s.e_prime[i][:, 0] @ s.e[i][:, 1] - s.e[i][:, 0] @ s.e_prime[i][:, 1]
        for i in range(len(s.t_grid))
    ])
    assert np.abs(w - w[0]).max() <= 1e-9 * max(1.0, abs(w[0]))


def test_stable_tensor_real_hyperbolic_block():
    d = standard_decomposition(build_real_hyperbolic(3))
    grid = np.linspace(0.0, 6.0, 25)
    s = stable_jacobi_tensor(d, grid)
    for i, t in enumerate(grid):
        np.testing.assert_allclose(s.e[i], math.exp(-t) * np.eye(2),
                                   atol=1e-8)


def test_stable_tensor_det_law(dr_data):
    d = dr_data[(2, 1)]
    grid = np.linspace(0.5, 8.0, 26)
    s = stable_jacobi_tensor(d, grid)
    dets = np.array([np.linalg.det(e) for e in s.e])
    logs = np.log(np.abs(dets))
    slope, _ = np.polyfit(grid, logs, 1)
    assert abs(slope + d.trace_ad_h) <= 1e-8


def test_stable_tensor_norm_eventually_decreasing(dr_data):
    d = dr_data[(1, 1)]
    grid = np.linspace(0.0, 10.0, 41)
    s = stable_jacobi_tensor(d, grid)
    norms = np.array([np.linalg.norm(e, 2) for e in s.e])
    assert norms.max() <= norms[0] + 1e-9
    tail = norms[grid >= 2.0]
    assert np.all(np.diff(tail) <= 1e-12)


@pytest.mark.parametrize("rho,theta", [(0.05, 1.0), (0.25, 0.5), (0.3, 0.8)])
def test_stable_tensor_slow_pairs_solve_jacobi_forward(rho, theta):
    # slowly decaying pairs, out of reach of finite horizons r <= 1280:
    # the closed form is a Jacobi tensor with E(0) = id
    d = standard_decomposition(_pair_block_algebra(rho, theta))
    grid = np.linspace(0.0, 8.0, 41)
    s = stable_jacobi_tensor(d, grid)
    np.testing.assert_allclose(s.e[0], np.eye(s.e.shape[1]), atol=1e-14)
    fwd = integrate_jacobi(d, s.e[0], s.e_prime[0], 8.0, steps=40)
    np.testing.assert_allclose(fwd.t_grid, grid, atol=1e-14)
    assert np.abs(fwd.e - s.e).max() <= 1e-8
    assert np.abs(fwd.e_prime - s.e_prime).max() <= 1e-8


@pytest.mark.parametrize("key", [(1, 1), (2, 1), (3, 1), "perturbed"])
def test_stable_tensor_matches_finite_horizon_oracle(key, dr_data,
                                                     perturbed_theta_algebra):
    d = (standard_decomposition(perturbed_theta_algebra)
         if key == "perturbed" else dr_data[key])
    grid = np.linspace(0.0, 8.0, 33)
    s = stable_jacobi_tensor(d, grid)
    oracle = finite_horizon_tensor(d, grid, 64.0)
    assert np.abs(s.e - oracle.e).max() <= 1e-9
    assert np.abs(s.e_prime - oracle.e_prime).max() <= 1e-9


def test_stable_tensor_scalar_slots_match_oracle():
    # a lower center eigenvalue mu = 0.3 in the scalar slot
    d = standard_decomposition(
        MetricLieAlgebra(3, ((0, 1, 1, 1.0), (0, 2, 2, 0.3))))
    grid = np.linspace(0.0, 8.0, 17)
    s = stable_jacobi_tensor(d, grid)
    oracle = finite_horizon_tensor(d, grid, 160.0)
    assert np.abs(s.e - oracle.e).max() <= 1e-9
    assert np.abs(s.e_prime - oracle.e_prime).max() <= 1e-9


@pytest.mark.parametrize("m", [0.05, 0.3, 0.5, 1.0, 2.5])
def test_scalar_block_betainc_matches_hypergeometric_form(m):
    # I_z(m, m) = z^m F(m, 1-m; 1+m; z) / (m B(m, m))
    t = np.linspace(0.0, 10.0, 21)
    z = np.array([z_of_t(x) for x in t])
    e, _ = jacobi_flow._scalar_stable_block(m, t, z)
    expected = np.array([
        2.0 * math.cosh(ti) ** m * zi ** m * gauss_f(m, 1.0 - m, 1.0 + m, zi)
        / (m * beta(m, m))
        for ti, zi in zip(t, z)
    ])
    np.testing.assert_allclose(e, expected, rtol=1e-12)
    assert e[0] == pytest.approx(1.0, abs=1e-15)


def test_stable_tensor_ill_conditioned_pair_guard():
    # M(0) degrades like 0.5 / theta; at theta = 1e-6 its condition
    # number times config.HYP2F1_REL exceeds the default bvp_converged
    d = standard_decomposition(_pair_block_algebra(0.5, 1e-6))
    grid = np.linspace(0.5, 8.0, 26)
    with pytest.raises(NumericalError, match="ill conditioned"):
        stable_jacobi_tensor(d, grid)
    loose = DEFAULT_TOLS.with_overrides(bvp_converged=1e-6)
    s = stable_jacobi_tensor(d, grid, tols=loose)
    assert np.all(np.isfinite(s.e))


def test_stable_tensor_does_not_integrate(monkeypatch):
    # structural guard: the dim-32 Damek-Ricci stable tensor never
    # evaluates the frame Jacobi operator, so no ODE runs behind it
    d = standard_decomposition(build_damek_ricci(clifford_generators(7, 3)))
    assert d.algebra.dim == 32
    calls = []
    original = CentralGeodesicFrame.jacobi_operator

    def counting(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(CentralGeodesicFrame, "jacobi_operator", counting)
    s = stable_jacobi_tensor(d, np.linspace(0.5, 8.0, 26))
    assert len(calls) == 0
    assert s.e.shape == (26, 31, 31)


def test_pair_blocks_one_grid_call_per_distinct_pair(
        monkeypatch, dr_data, generic_pair_algebra, haar_rotate):
    original = jacobi_flow.stable_block_and_derivative
    calls = []

    def counting(rho, theta, t):
        calls.append((rho, theta, np.shape(t)))
        return original(rho, theta, t)

    monkeypatch.setattr(jacobi_flow, "stable_block_and_derivative", counting)
    grid = np.linspace(0.5, 8.0, 26)
    rotated = haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 7)
    for d in (dr_data[(3, 1)], standard_decomposition(generic_pair_algebra),
              standard_decomposition(rotated)):
        calls.clear()
        s = stable_jacobi_tensor(d, grid)
        # distinct within eigen_merge: the first of each group is evaluated
        distinct = []
        for p in d.pairs.tolist():
            if all(np.abs(np.subtract(p, q)).max() > DEFAULT_TOLS.eigen_merge
                   for q in distinct):
                distinct.append(tuple(p))
        assert [(rho, theta) for rho, theta, _ in calls] == distinct
        assert all(shape == (grid.size + 1,) for *_, shape in calls)
        frame = CentralGeodesicFrame.build(d)
        off = 1 + len(frame.mus) + len(frame.rho_stars)
        for i, (rho, theta) in enumerate(frame.pairs):
            sl = slice(off + 2 * i, off + 2 * i + 2)
            e, ep = pair_stable_block_per_t(rho, theta, grid)
            # roundoff relative to the Killing-field scale of the block,
            # carried through M(0)^-1
            m0_inv = np.linalg.inv(stable_block_and_derivative(
                rho, theta, 0.0)[0])
            bound = (1e-14 * np.cosh(grid) ** max(rho, 1.0 - rho)
                     * np.linalg.norm(m0_inv, 2))
            assert np.all(np.abs(s.e[:, sl, sl] - e).max(axis=(1, 2))
                          <= bound)
            assert np.all(np.abs(s.e_prime[:, sl, sl] - ep).max(axis=(1, 2))
                          <= bound)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rotated_damek_ricci_pairs_share_one_block(seed, monkeypatch,
                                                   haar_rotate):
    # the pairs of a rotated DR (7, 2) differ in their last bits, and are
    # one pair within eigen_merge: a report evaluates one pair block
    calls = []
    original = jacobi_flow._pair_stable_block

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(jacobi_flow, "_pair_stable_block", counting)
    g = haar_rotate(build_damek_ricci(clifford_generators(7, 2)), seed)
    report = build_report(g)
    assert report["classification"] == "DamekRicciNonsymmetric"
    assert len(calls) == 1
    assert report["mean_curvature"]["max_deviation"] <= 1e-12


def test_finite_horizon_monotone_shape_operators(dr_data):
    d = dr_data[(2, 1)]
    t0 = np.array([0.0])
    shapes = []
    for r in (6.0, 10.0, 18.0, 30.0):
        s = finite_horizon_tensor(d, t0, r)
        shapes.append(-s.e_prime[0])
    for u_r, u_big in zip(shapes, shapes[1:]):
        assert np.linalg.eigvalsh(u_big - u_r).max() <= 1e-9


def test_mean_curvature_real_hyperbolic():
    n = 4
    d = standard_decomposition(build_real_hyperbolic(n))
    grid = np.linspace(0.5, 8.0, 26)
    s = stable_jacobi_tensor(d, grid)
    m_fd, m_trace = mean_curvature_numeric(s), mean_curvature_trace(s)
    assert np.abs(m_fd - (n - 1)).max() <= 1e-6
    assert np.abs(m_trace - (n - 1)).max() <= 1e-7
    assert np.abs(m_fd - m_trace).max() <= 1e-6


def test_mean_curvature_perturbed_not_constant(perturbed_theta_algebra):
    d = standard_decomposition(perturbed_theta_algebra)
    grid = np.linspace(0.0, 3.0, 31)
    s = stable_jacobi_tensor(d, grid)
    m_fd, m_trace = mean_curvature_numeric(s), mean_curvature_trace(s)
    assert m_trace.max() - m_trace.min() > 1e-3
    assert m_fd.max() - m_fd.min() > 1e-3
    # for non-constant m the finite differences carry an O(h^2) bias
    assert np.abs(m_fd - m_trace).max() <= 5e-3


def test_mean_curvature_conjugate_point_guard():
    t = np.linspace(0.0, 2.0, 21)
    e = np.array([(1.0 - ti) * np.eye(2) for ti in t])
    ep = np.array([-np.eye(2) for _ in t])
    sample = JacobiTensorSample(t_grid=t, e=e, e_prime=ep)
    with pytest.raises(ConjugatePointError):
        mean_curvature_numeric(sample)


def test_mean_curvature_numeric_matches_per_time_loop(dr_data,
                                                      generic_pair_algebra):
    # the stacked det against the per-t loop it replaced
    for d in [*dr_data.values(), standard_decomposition(generic_pair_algebra)]:
        s = stable_jacobi_tensor(d, np.linspace(0.5, 8.0, 26))
        dets = np.array([np.linalg.det(e) for e in s.e])
        assert np.array_equal(
            mean_curvature_numeric(s),
            -np.gradient(np.log(np.abs(dets)), s.t_grid))


def test_volume_density_flat():
    g = build_flat(4)
    v = np.zeros(4)
    v[1] = 1.0
    t = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(volume_density(g, v, t), t**3, rtol=1e-10)


def test_volume_density_real_hyperbolic(rng):
    g = build_real_hyperbolic(4)
    t = np.array([0.5, 1.0, 2.0])
    # v = H is orthogonal to [s, s], so nabla_H H = 0 and u stays H
    h_dir = np.zeros(4)
    h_dir[0] = 1.0
    np.testing.assert_allclose(
        volume_density(g, h_dir, t), np.sinh(t) ** 3, rtol=1e-10
    )
    # along generic directions u turns
    for _ in range(3):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(
            volume_density(g, v, t), np.sinh(t) ** 3, rtol=1e-9
        )


def _closed_form_inputs(dr_algebras):
    """(name, algebra, m, k) of the certified inputs the closed form is
    checked on: every ``dr_algebras`` build, the mixed modules (3; 1,1)
    and (7; 1,1), and RH^4 (m = 0)."""
    inputs = [(f"dr-{l}-{c}", g, g.dim - 1 - l, l)
              for (l, c), g in dr_algebras.items()]
    inputs += [(f"mixed-{l}-1-1", mixed_damek_ricci(l, 1, 1), 2 * size, l)
               for l, size in ((3, 4), (7, 8))]
    inputs.append(("rh-4", build_real_hyperbolic(4), 0, 3))
    return inputs


def test_volume_density_damek_ricci_closed_form(dr_algebras, haar_rotate):
    # harmonic closed form: det A(t) = (2 sinh(t/2))^m sinh(t)^k in every
    # direction and in every orthonormal basis, checked against the
    # integrated geodesic flow, the path every uncertified input takes.
    # Scaling the brackets by c scales the density by c^-(n-1) at t / c
    t = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 4.0])
    rng = np.random.default_rng(29)
    for name, g, m, k in _closed_form_inputs(dr_algebras):
        expected = (2.0 * np.sinh(t / 2.0)) ** m * np.sinh(t) ** k
        variants = [(g, 1.0), (haar_rotate(g, 1), 1.0),
                    (haar_rotate(g, 2), 1.0)]
        variants += [(g.rescaled(c), c) for c in (2.0 ** 20, 2.0 ** -20, 3.7)]
        for alg, c in variants:
            assert alg.decomposition().certificate is not None, (name, c)
            v = rng.standard_normal(g.dim)
            v /= np.linalg.norm(v)
            dets = volume_density(alg, v, t / c)
            assert dets[0] == 0.0
            oracle = _integrated(alg, v, t / c)
            np.testing.assert_allclose(dets[1:], oracle[1:], rtol=1e-9,
                                       err_msg=f"{name} c={c}")
            np.testing.assert_allclose(dets * c ** (g.dim - 1), expected,
                                       rtol=1e-12, err_msg=f"{name} c={c}")


def test_volume_density_central_matches_stable_frame(dr_data):
    # central direction: det A equals the det of the Jacobi tensor with
    # A(0) = 0, A'(0) = id integrated in the dedicated central frame
    d = dr_data[(1, 1)]
    t = np.array([0.5, 1.0, 2.0])
    dets = volume_density(d.algebra, z_top_vector(d), t)
    frame = CentralGeodesicFrame.build(d)
    k = frame.size
    s = integrate_jacobi(d, np.zeros((k, k)), np.eye(k), 2.0, steps=20)
    for ti, det in zip(t, dets):
        i = np.argmin(np.abs(s.t_grid - ti))
        assert np.isclose(det, np.linalg.det(s.e[i]), rtol=1e-8)


@pytest.mark.parametrize("key, t", [((7, 2), 0.25), ((8, 3), 0.5)])
def test_volume_density_floor_is_scale_free(key, t):
    # det A(t) ~ t^(n-1) near 0 (1.6e-14 at dim 24 and t = 1/4) is no
    # conjugate point: the floor applies to det A(t) / t^(n-1)
    g = build_damek_ricci(clifford_generators(*key))
    v = np.random.default_rng(5).standard_normal(g.dim)
    v /= np.linalg.norm(v)
    m = g.dim - 1 - key[0]
    expected = (2.0 * np.sinh(t / 2.0)) ** m * np.sinh(t) ** key[0]
    for density in (volume_density, _integrated):
        np.testing.assert_allclose(density(g, v, np.array([t])),
                                   [expected], rtol=1e-8)


def test_volume_density_floor_survives_underflow():
    # dim 57 scaled by 2^20 at t = 0.1 / 2^20: t^56 underflows, and the
    # density with it, but det A(t) / t^(n-1), near 1, is still checked
    g = damek_ricci_scaled_j(8, 3, 1 + 1e-6).rescaled(2.0 ** 20)
    v = np.eye(g.dim)[0]
    t = np.array([0.1, 0.2]) / 2.0 ** 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(volume_density(g, v, t), [0.0, 0.0])
        with pytest.raises(ConjugatePointError, match="t = 9.53674e-08"):
            volume_density(g, v, t, DEFAULT_TOLS.with_overrides(
                det_floor=2.0))


def test_volume_density_finds_heisenberg_conjugate_point():
    g = build_heisenberg_type(clifford_generators(1))
    with pytest.raises(ConjugatePointError, match="t = 8"):
        volume_density(g, np.array([0.6, 0.0, 0.8]),
                       np.linspace(0.5, 12.0, 24))


def test_volume_density_requires_unit_vector():
    g = build_flat(3)
    with pytest.raises(DomainError):
        volume_density(g, np.array([2.0, 0.0, 0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        volume_density(g, np.array([np.nan, 0.0, 0.0]), np.array([1.0]))


@pytest.mark.parametrize("t_grid", [[1.0, 0.5], [-0.5, 1.0], [0.5, 0.5],
                                    [], [[0.5, 1.0]], [0.5, float("nan")]])
def test_volume_density_rejects_bad_grid(t_grid):
    g = build_flat(3)
    with pytest.raises(DomainError, match="t_grid"):
        volume_density(g, np.array([1.0, 0.0, 0.0]), np.array(t_grid))


@pytest.fixture(scope="module")
def oracle_inputs(dr_algebras, perturbed_theta_algebra, haar_rotate):
    return {"dr-2-1": dr_algebras[(2, 1)],
            "dr-7-2": build_damek_ricci(clifford_generators(7, 2)),
            "rotated-dr-3-1": haar_rotate(dr_algebras[(3, 1)], 11),
            "perturbed-theta": perturbed_theta_algebra,
            "heisenberg-3": build_heisenberg_type(clifford_generators(1))}


@pytest.mark.parametrize("name", ["dr-2-1", "dr-7-2", "rotated-dr-3-1",
                                  "perturbed-theta", "heisenberg-3"])
def test_volume_density_matches_covariant_oracle(name, oracle_inputs):
    # the linearized geodesic flow and the covariant Jacobi equation with
    # the full curvature tensor give one determinant
    g = oracle_inputs[name]
    t = np.array([0.5, 1.0, 2.0])
    rng = np.random.default_rng(17)
    for _ in range(8):
        v = rng.standard_normal(g.dim)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(volume_density(g, v, t),
                                   covariant_volume_density(g, v, t),
                                   rtol=1e-9)


@pytest.mark.parametrize("name", ["dr-2-1", "dr-7-2", "rotated-dr-3-1",
                                  "perturbed-theta", "heisenberg-3"])
def test_volume_density_matches_three_matvec_oracle(name, oracle_inputs):
    # the stacked operator changes only the order of the sums in each
    # right-hand side, so the two integrations agree to rounding; the
    # certified Damek-Ricci inputs are integrated through the oracle path
    g = oracle_inputs[name]
    density = _integrated if name.startswith(("dr", "rotated")) \
        else volume_density
    t = np.array([0.5, 1.0, 2.0])
    rng = np.random.default_rng(23)
    for _ in range(8):
        v = rng.standard_normal(g.dim)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(density(g, v, t),
                                   three_matvec_volume_density(g, v, t),
                                   rtol=1e-12, atol=0.0)


def test_volume_density_never_reads_curvature(monkeypatch):
    g = build_damek_ricci(clifford_generators(2, 1))   # fresh instance

    def forbidden(g, gamma):
        raise AssertionError("volume_density formed the curvature")

    monkeypatch.setattr(curvature, "curvature_tensor", forbidden)
    monkeypatch.setattr(curvature, "curvature_operator", forbidden)
    t = np.array([0.5, 1.0, 2.0])
    expected = (2.0 * np.sinh(t / 2.0)) ** 4 * np.sinh(t) ** 2
    rng = np.random.default_rng(3)
    for _ in range(4):
        v = rng.standard_normal(g.dim)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(volume_density(g, v, t), expected,
                                   rtol=1e-8)


def test_volume_density_keeps_nothing_alive():
    # with the cyclic collector off, whatever a call leaves in a reference
    # cycle accumulates (the ODE solver's stage arrays, 144 kB at dim 24);
    # DR (7, 2) off H-type, so the flow is integrated
    g = damek_ricci_scaled_j(7, 2, 1 + 1e-6)
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((9, g.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t = np.array([0.5, 1.0, 2.0])
    volume_density(g, dirs[0], t)   # builds g.flow_operator, kept on purpose
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for v in dirs[1:]:
            volume_density(g, v, t)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 2 ** 20


@pytest.mark.parametrize("times, reached", [
    ([0.5, 1.0, 2.0], None),      # the integration stops on its own
    ([0.01, 0.1, 0.2], "0.2"),    # it ends, and det A overflows at t = 0.2
])
def test_volume_density_overflow_is_named(dr_algebras, times, reached):
    # scaled by 1e3, DR (2, 1) has trace ad_H = 4000, and its density
    # e^{t trace ad_H} leaves float64 near t = 0.18
    g = dr_algebras[(2, 1)]
    big = MetricLieAlgebra.from_tensor(g.tensor * 1e3)
    v = np.full(g.dim, g.dim ** -0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="volume density overflows float64") as exc:
            volume_density(big, v, np.array(times))
    assert "log|det A| = " in str(exc.value)
    if reached:
        assert f"at t = {reached}," in str(exc.value)
    # a grid that stays inside float64 is unchanged
    dets = volume_density(big, v, np.array([0.01, 0.1]))
    assert np.isfinite(dets).all()


def test_integrated_density_overflow_is_named():
    # the integrated path reports the same overflow: DR (2, 1) off H-type,
    # scaled by 1e3, leaves float64 near t = 0.18 too
    big = MetricLieAlgebra.from_tensor(
        damek_ricci_scaled_j(2, 1, 1 + 1e-6).tensor * 1e3)
    assert big.decomposition().certificate is None
    v = np.full(big.dim, big.dim ** -0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"volume density overflows "
                           r"float64: log\|det A\| = \S+ at t = 0\.2,"):
            volume_density(big, v, np.array([0.01, 0.1, 0.2]))
