import sys
import tracemalloc

import numpy as np
import pytest

from oracles import central_jacobi_blocks_block_diag, curvature_einsum, nabla_R
from solvharm import curvature, lie_metric
from solvharm.cli import build_report
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.curvature import (central_frame_split, central_jacobi_blocks,
                                curvature_norm, curvature_tensor,
                                einstein_check,
                                jacobi_operator_H, levi_civita, nabla_R_norm,
                                ricci, sectional_curvature)
from solvharm.errors import DomainError
from solvharm.jacobi_flow import CentralGeodesicFrame, volume_density
from solvharm.lie_metric import (MetricLieAlgebra, ad_matrix,
                                 scale_squared, standard_decomposition,
                                 symmetric_skew_split)


def _basis(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _connection_invariants(g):
    gamma = levi_civita(g)
    t = g.tensor
    # metric compatibility: <Gamma[i,j], e_k> + <e_j, Gamma[i,k]> = 0
    compat = gamma + np.einsum("ikj->ijk", gamma)
    # torsion: Gamma[i,j] - Gamma[j,i] - [e_i, e_j]
    torsion = gamma - np.einsum("jik->ijk", gamma) - t
    return np.abs(compat).max(), np.abs(torsion).max()


def test_levi_civita_abelian_zero():
    np.testing.assert_allclose(levi_civita(build_flat(4)), 0.0)


def test_levi_civita_damek_ricci_h_parallel(dr_algebras):
    g = dr_algebras[(2, 1)]
    gamma = levi_civita(g)
    np.testing.assert_allclose(gamma[0], np.zeros((7, 7)), atol=1e-14)


def test_levi_civita_real_hyperbolic_plane():
    g = build_real_hyperbolic(2)
    gamma = levi_civita(g)
    np.testing.assert_allclose(gamma[1, 0], [0.0, -1.0], atol=1e-14)  # nabla_Z H
    np.testing.assert_allclose(gamma[1, 1], [1.0, 0.0], atol=1e-14)   # nabla_Z Z


@pytest.mark.parametrize("builder", [
    lambda: build_flat(3),
    lambda: build_real_hyperbolic(4),
    lambda: build_damek_ricci(clifford_generators(2)),
])
def test_connection_invariants(builder):
    compat, torsion = _connection_invariants(builder())
    assert compat <= 1e-12
    assert torsion <= 1e-12


def test_curvature_flat_zero():
    g = build_flat(3)
    r = curvature_tensor(g, levi_civita(g))
    np.testing.assert_allclose(r, 0.0)


def test_curvature_constant_negative_oracle(rng):
    g = build_real_hyperbolic(5)
    r = curvature_tensor(g, levi_civita(g))
    for _ in range(20):
        x, y = rng.standard_normal((2, 5))
        num = np.einsum("i,j,k,ijkl,l->", x, y, y, r, x)
        expected = -((x @ x) * (y @ y) - (x @ y) ** 2)
        assert abs(num - expected) <= 1e-10 * max(1.0, abs(expected))


def test_curvature_tensor_symmetries(dr_algebras):
    g = dr_algebras[(2, 1)]
    r = curvature_tensor(g, levi_civita(g))
    # antisymmetry in the first two slots
    assert np.abs(r + np.einsum("jikl->ijkl", r)).max() <= 1e-12
    # first Bianchi identity
    bianchi = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
    assert np.abs(bianchi).max() <= 1e-10
    # pair symmetry <R(ei,ej)ek, el> = <R(ek,el)ei, ej>
    assert np.abs(r - np.einsum("klij->ijkl", r)).max() <= 1e-10


def test_einstein_cases(dr_algebras):
    ok, c, resid = einstein_check(build_flat(4))
    assert ok and abs(c) <= 1e-12

    n = 6
    ok, c, resid = einstein_check(build_real_hyperbolic(n))
    assert ok and abs(c + (n - 1)) <= 1e-10

    for key in ((1, 1), (2, 1), (3, 1)):
        ok, c, resid = einstein_check(dr_algebras[key])
        assert ok and c < 0 and resid <= 1e-8


def test_ricci_symmetric(dr_algebras):
    g = dr_algebras[(3, 1)]
    ric = ricci(curvature_tensor(g, levi_civita(g)))
    np.testing.assert_allclose(ric, ric.T, atol=1e-12)


def test_sectional_curvature_cases(dr_algebras, rng):
    g = build_real_hyperbolic(3)
    r = curvature_tensor(g, levi_civita(g))
    assert np.isclose(
        sectional_curvature(r, _basis(3, 0), _basis(3, 1)), -1.0
    )

    flat = build_flat(3)
    rf = curvature_tensor(flat, levi_civita(flat))
    assert sectional_curvature(rf, _basis(3, 0), _basis(3, 1)) == 0.0

    gdr = dr_algebras[(2, 1)]
    rdr = curvature_tensor(gdr, levi_civita(gdr))
    for _ in range(200):
        x, y = rng.standard_normal((2, 7))
        assert sectional_curvature(rdr, x, y) <= 1e-10

    with pytest.raises(DomainError):
        sectional_curvature(r, _basis(3, 0), 2.0 * _basis(3, 0))


def test_jacobi_operator_h_real_hyperbolic():
    g = build_real_hyperbolic(4)
    op = jacobi_operator_H(g, _basis(4, 0))
    np.testing.assert_allclose(op[1:, 1:], -np.eye(3), atol=1e-12)


def test_jacobi_operator_h_damek_ricci(dr_data):
    d = dr_data[(2, 1)]
    op = jacobi_operator_H(d, d.h_vector)
    np.testing.assert_allclose(
        np.diag(op), [0.0, -0.25, -0.25, -0.25, -0.25, -1.0, -1.0], atol=1e-12
    )


def test_jacobi_operator_h_matches_tensor_generic():
    # ad_H not normal: [H, X] = X, [H, Y] = X + 2Y on an abelian n
    g = MetricLieAlgebra(3, ((0, 1, 1, 1.0), (0, 2, 1, 1.0), (0, 2, 2, 2.0)))
    a = _basis(3, 0)
    d_sym, s_skew = symmetric_skew_split(ad_matrix(a, g))
    assert np.abs(d_sym @ s_skew - s_skew @ d_sym).max() > 1e-3  # non-normal
    op = jacobi_operator_H(g, a)
    r = curvature_tensor(g, levi_civita(g))
    contraction = np.einsum("a,b,jabl->lj", a, a, r)
    np.testing.assert_allclose(op[1:, 1:], contraction[1:, 1:], atol=1e-10)


def test_jacobi_operator_h_all_standard_builds(dr_data):
    for d in dr_data.values():
        a = d.h_vector
        op = jacobi_operator_H(d, a)
        r = curvature_tensor(d.algebra, levi_civita(d.algebra))
        contraction = np.einsum("a,b,jabl->lj", a, a, r)
        assert np.abs(op - contraction).max() <= 1e-10


def test_jacobi_operator_h_rejects_bad_direction(dr_data):
    d = dr_data[(1, 1)]
    with pytest.raises(DomainError):
        jacobi_operator_H(d, d.z_top_vector)   # not orthogonal to [s, s]
    with pytest.raises(DomainError):
        jacobi_operator_H(d, 2.0 * d.h_vector)


def test_central_operator_at_zero_and_infinity(dr_data):
    frame = CentralGeodesicFrame.build(dr_data[(2, 1)])
    op0 = frame.jacobi_operator(0.0)
    # center factor mu = 1 at slot 1: R(0) Z* = -mu Z*
    assert np.isclose(op0[1, 1], -1.0)
    # t -> infinity: center block tends to -mu^2
    op_inf = frame.jacobi_operator(40.0)
    assert np.isclose(op_inf[1, 1], -1.0, atol=1e-12)

    # a center eigenvalue mu < 1 on an abelian nilpotent part
    mu = 0.6
    g = MetricLieAlgebra(3, ((0, 1, 1, mu), (0, 2, 2, 1.0)))
    frame = CentralGeodesicFrame.build(standard_decomposition(g))
    assert np.isclose(frame.jacobi_operator(0.0)[1, 1], -mu)
    assert np.isclose(frame.jacobi_operator(40.0)[1, 1], -mu * mu)


def _assert_frame_matches_transported_tensor(d, times):
    """The closed-form R(t) equals the curvature tensor of the adapted
    algebra contracted along the central geodesic, in the frame of
    :func:`central_frame_split`."""
    alg = d.algebra
    r = curvature_tensor(alg, levi_civita(alg))
    _, z_perp, _, kernel, _, pair_cols = central_frame_split(d)
    central = CentralGeodesicFrame.build(d)
    for t in times:
        u = -np.tanh(t) * d.h_vector + d.z_top_vector / np.cosh(t)
        xi = d.h_vector / np.cosh(t) + np.tanh(t) * d.z_top_vector
        frame = np.column_stack([xi, z_perp, kernel, pair_cols])
        oracle = frame.T @ np.einsum("a,b,jabl->lj", u, u, r) @ frame
        formula = central.jacobi_operator(t)
        assert np.abs(oracle - formula).max() <= 1e-10
        # quadratic-form symmetry of R(t) in the transported frame
        assert np.abs(oracle - oracle.T).max() <= 1e-8


def test_central_operator_matches_transported_tensor(generic_pair_algebra,
                                                     haar_rotate):
    for g in [generic_pair_algebra] + [haar_rotate(generic_pair_algebra, s)
                                       for s in (11, 12, 13)]:
        _assert_frame_matches_transported_tensor(
            standard_decomposition(g), (0.0, 0.4, 1.3, 3.0))


# a pair, two kernel vectors and two center eigenvalues at once
KERNEL_PAIR_CENTER = MetricLieAlgebra(7, (
    (0, 1, 1, 0.3), (0, 2, 2, 0.7), (0, 3, 3, 0.4), (0, 4, 4, 0.4),
    (0, 5, 5, 0.8), (0, 6, 6, 1.0),
    (1, 2, 6, 0.5), (3, 4, 5, 0.9),
))


def test_central_operator_general_standard_data(haar_rotate):
    # the closed-form blocks must match the transported curvature tensor
    g = KERNEL_PAIR_CENTER
    for alg in [g] + [haar_rotate(g, s) for s in (11, 12, 13)]:
        d = standard_decomposition(alg)
        np.testing.assert_allclose(d.mu, [0.8, 1.0], atol=1e-12)
        np.testing.assert_allclose(d.rho_star, [0.4, 0.4], atol=1e-12)
        np.testing.assert_allclose(d.pairs, [[0.3, 0.5]], atol=1e-12)
        _assert_frame_matches_transported_tensor(d, (0.0, 0.6, 1.7, 4.0))


def test_central_frame_split_reads_adapted_basis(dr_data, generic_pair_algebra,
                                                 haar_rotate):
    cases = list(dr_data.values()) + [
        standard_decomposition(generic_pair_algebra),
        standard_decomposition(KERNEL_PAIR_CENTER),
        standard_decomposition(haar_rotate(dr_data[(3, 1)].algebra, 7)),
    ]
    for d in cases:
        mus, z_perp, rho_stars, kernel, pairs, pair_cols = \
            central_frame_split(d)
        for got, want in zip((mus, rho_stars, pairs), d.frame_factor_data()):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(mus, d.mu[:-1])
        columns = np.column_stack([z_perp, kernel, pair_cols])
        eye = np.eye(d.algebra.dim)
        assert np.array_equal(
            columns, eye[:, list(d.z_indices[:-1]) + list(d.v_indices)])
        assert kernel.shape[1] == len(rho_stars)
        assert pair_cols.shape[1] == 2 * len(pairs)


def test_build_report_runs_pair_decomposition_once(monkeypatch,
                                                   generic_pair_algebra):
    # the central frame and the h-scan read one spectral-data path
    calls = []
    original = lie_metric.pair_decomposition

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("solvharm") and hasattr(module,
                                                   "pair_decomposition"):
            monkeypatch.setattr(module, "pair_decomposition", counting)
    g = MetricLieAlgebra(4, generic_pair_algebra.structure_constants)
    assert build_report(g)["classification"] == "NotAsymptoticallyHarmonic"
    assert len(calls) == 1


def test_nabla_r_symmetric_spaces(dr_algebras):
    assert nabla_R_norm(build_real_hyperbolic(3)) <= 1e-10
    # complex hyperbolic model: l = 1 with two module copies
    assert nabla_R_norm(dr_algebras[(1, 2)]) <= 1e-9


def test_nabla_r_nonsymmetric_witness(dr_algebras):
    g = dr_algebras[(2, 1)]
    assert nabla_R_norm(g) > 1e-3
    ratio = nabla_R_norm(g) / curvature_norm(
        curvature_tensor(g, levi_civita(g))
    )
    assert ratio > 1e-3


def _nabla_r_norm_oracle(g):
    return float(np.sqrt((nabla_R(g) ** 2).sum()))


@pytest.mark.parametrize("name", ["perturbed-theta", "generic-pair",
                                  "dr-2-1", "dr-3-1"])
@pytest.mark.parametrize("seed", [11, 12])
def test_nabla_r_norm_matches_full_tensor(name, seed, dr_algebras,
                                          perturbed_theta_algebra,
                                          generic_pair_algebra, haar_rotate):
    base = {"perturbed-theta": perturbed_theta_algebra,
            "generic-pair": generic_pair_algebra,
            "dr-2-1": dr_algebras[(2, 1)],
            "dr-3-1": dr_algebras[(3, 1)]}[name]
    g = haar_rotate(base, seed)
    r_norm = curvature_norm(curvature_tensor(g, levi_civita(g)))
    # absolute bound: DR (3, 1) is symmetric, its norm is pure roundoff
    assert abs(nabla_R_norm(g) - _nabla_r_norm_oracle(g)) \
        <= 1e-12 * max(1.0, r_norm)


def test_nabla_r_norm_memory_stays_order_n4():
    # one full n^5 term of nabla R on DR (7, 3) is 32^5 doubles = 268 MB
    g = build_damek_ricci(clifford_generators(7, 3))
    assert g.dim == 32
    g.curvature   # Gamma and R are not part of the norm's own footprint
    tracemalloc.start()
    try:
        value = nabla_R_norm(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value > 1.0
    assert peak < 64 * 2 ** 20


def test_jacobi_check_and_curvature_hold_two_n4_arrays():
    # DR (7, 3): one n^4 array is 32^4 doubles = 8.4 MB; the Jacobi check
    # of the construction and R each hold at most two of them at once
    rows = build_damek_ricci(clifford_generators(7, 3)).structure_constants
    tracemalloc.start()
    try:
        g = MetricLieAlgebra(32, rows)
        _, build_peak = tracemalloc.get_traced_memory()
        gamma = levi_civita(g)
        tracemalloc.reset_peak()
        r = curvature_tensor(g, gamma)
        _, r_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.shape == (32,) * 4
    assert build_peak <= 18.5e6
    assert r_peak <= 18.5e6


def test_curvature_matches_einsum(dr_algebras, perturbed_theta_algebra,
                                  generic_pair_algebra, haar_rotate):
    cases = [*dr_algebras.values(), perturbed_theta_algebra,
             generic_pair_algebra, haar_rotate(dr_algebras[(3, 1)], 7),
             haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 7)]
    for g in cases:
        got = curvature_tensor(g, g.connection)
        want = curvature_einsum(g.tensor, g.connection)
        assert np.abs(got - want).max() <= 1e-14 * scale_squared(g)


def test_central_jacobi_blocks_match_block_diag(dr_data, haar_rotate):
    rng = np.random.default_rng(3)
    spectra = [d.frame_factor_data() for d in dr_data.values()]
    spectra.append(standard_decomposition(KERNEL_PAIR_CENTER)
                   .frame_factor_data())
    spectra.append(standard_decomposition(
        haar_rotate(dr_data[(3, 1)].algebra, 7)).frame_factor_data())
    spectra.append((np.zeros(0), np.zeros(0), np.zeros((0, 2))))
    spectra += [(rng.uniform(0.1, 1.0, a), rng.uniform(0.1, 0.9, b),
                 np.column_stack([rng.uniform(0.05, 0.5, c),
                                  rng.uniform(0.1, 2.0, c)]))
                for a, b, c in rng.integers(0, 4, (40, 3))]
    for mus, rho_stars, pairs in spectra:
        for t in (0.0, 0.4, 1.3, 3.0, 40.0):
            got = central_jacobi_blocks(mus, rho_stars, pairs, t)
            want = central_jacobi_blocks_block_diag(mus, rho_stars, pairs, t)
            assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Gamma, R and the flow operator are computed at most once per algebra
# instance, R and the operator only when a consumer reads them
# ---------------------------------------------------------------------------

@pytest.fixture()
def geometry_calls(monkeypatch):
    """Counts of levi_civita / curvature_tensor / flow_operator calls made
    from now on."""
    calls = {"levi_civita": 0, "curvature_tensor": 0, "flow_operator": 0}

    def counting(name):
        original = getattr(curvature, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(curvature, name, wrapper)

    for name in calls:
        counting(name)
    return calls


def test_build_report_computes_geometry_once(geometry_calls):
    g = build_damek_ricci(clifford_generators(2, 1))   # fresh instance
    report = build_report(g)
    assert report["classification"] == "DamekRicciNonsymmetric"
    assert geometry_calls == {"levi_civita": 1, "curvature_tensor": 1,
                              "flow_operator": 0}


def test_volume_density_shares_geometry(geometry_calls, rng):
    g = build_damek_ricci(clifford_generators(2, 1))
    dirs = rng.standard_normal((8, g.dim))
    dirs[0] = _basis(g.dim, 0)   # H, along which u stays constant
    rows = [volume_density(g, v / np.linalg.norm(v), np.array([0.5, 1.0]))
            for v in dirs]
    assert geometry_calls == {"levi_civita": 1, "curvature_tensor": 0,
                              "flow_operator": 1}
    assert np.ptp(rows, axis=0).max() <= 1e-8 * np.abs(rows).max()


def test_geometry_is_read_only(dr_algebras):
    g = dr_algebras[(1, 1)]
    with pytest.raises(ValueError):
        g.curvature[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        g.connection[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        g.flow_operator[0, 0] = 1.0
