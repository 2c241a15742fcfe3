import json
import re
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (add_to_ad_h, central_jacobi_blocks_block_diag,
                     curvature_einsum, damek_ricci_scaled_j,
                     jacobi_identity_exact, mixed_damek_ricci, nabla_R,
                     nabla_R_norm_three_products, ricci, ricci_from_brackets,
                     skew_derivations_commuting_with_ad_h,
                     structure_tensor_loop, z_top_vector)
from solvharm import curvature, hypergeom, jacobi_flow, lie_metric
from solvharm.cli import build_report, main
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.config import DEFAULT_TOLS
from solvharm.curvature import (central_frame_split, central_jacobi_blocks,
                                curvature_norm, curvature_tensor,
                                einstein_check, levi_civita, nabla_R_norm)
from solvharm.errors import DimensionError
from solvharm.jacobi_flow import CentralGeodesicFrame, volume_density
from solvharm.lie_metric import (MetricLieAlgebra, ad_matrix, algebra_to_dict,
                                 standard_decomposition, symmetric_skew_split)


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
    r = curvature_tensor(g)
    np.testing.assert_allclose(r, 0.0)


def test_curvature_constant_negative_oracle(rng):
    g = build_real_hyperbolic(5)
    r = curvature_tensor(g)
    for _ in range(20):
        x, y = rng.standard_normal((2, 5))
        num = np.einsum("i,j,k,ijkl,l->", x, y, y, r, x)
        expected = -((x @ x) * (y @ y) - (x @ y) ** 2)
        assert abs(num - expected) <= 1e-10 * max(1.0, abs(expected))


def test_curvature_tensor_symmetries(dr_algebras):
    g = dr_algebras[(2, 1)]
    r = curvature_tensor(g)
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


def test_ricci_from_brackets_matches_ricci_of_r(
        haar_rotate, generic_pair_algebra, perturbed_theta_algebra):
    # Besse 7.38 in floats, the oracle's sparse sums and the package's
    # BLAS products, on dense rotated bases and on non-Einstein algebras,
    # against the contraction of R
    dr72 = build_damek_ricci(clifford_generators(7, 2))
    for g in (haar_rotate(dr72, 3), haar_rotate(dr72.rescaled(0.3), 4),
              generic_pair_algebra, haar_rotate(perturbed_theta_algebra, 5)):
        want = ricci(curvature_tensor(g))
        for got in (np.array(ricci_from_brackets(g)),
                    curvature.ricci_from_brackets(g)):
            assert np.abs(got - want).max() \
                <= 1e-13 * max(1.0, np.abs(want).max())


def _exact_einstein_builds():
    """Rational builds with their exact Einstein constants: DR with
    m = dim v, k = dim z has -(m + 4k)/4, RH^n has -(n - 1)."""
    for key in ((1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (7, 2)):
        j = clifford_generators(*key)
        k, m = j.shape[:2]
        yield pytest.param(build_damek_ricci(j), Fraction(-(m + 4 * k), 4),
                           id=f"dr-{key[0]}-{key[1]}")
    for n in (2, 3, 5):
        yield pytest.param(build_real_hyperbolic(n), Fraction(-(n - 1)),
                           id=f"rh-{n}")
    yield pytest.param(build_flat(4), Fraction(0), id="flat-4")


@pytest.mark.parametrize("g, c", list(_exact_einstein_builds()))
def test_exact_ricci_on_rational_builds(g, c):
    # the stored structure constants are exact binary fractions, so the
    # brackets are a Lie algebra and Ric = c id with zero tolerance
    assert jacobi_identity_exact(g, Fraction)
    ric = ricci_from_brackets(g, Fraction)
    assert all(isinstance(x, Fraction) for row in ric for x in row)
    assert ric == [[c if a == b else 0 for b in range(g.dim)]
                   for a in range(g.dim)]
    ok, constant, _ = einstein_check(g)
    assert ok and abs(constant - float(c)) <= 1e-13 * max(1.0, abs(c))


def test_exact_jacobi_check_sees_a_failure():
    # [e0, e1] = e1, [e0, e2] = e2, [e1, e2] = e0 is no Lie bracket:
    # the cyclic sum on (e0, e1, e2) is 2 e0
    bad = SimpleNamespace(dim=3, tensor=structure_tensor_loop(3, (
        (0, 1, 1, 1.0), (0, 2, 2, 1.0), (1, 2, 0, 1.0))))
    assert not jacobi_identity_exact(bad, Fraction)
    assert jacobi_identity_exact(build_real_hyperbolic(3), Fraction)


def test_ricci_symmetric(dr_algebras):
    g = dr_algebras[(3, 1)]
    ric = ricci(curvature_tensor(g))
    np.testing.assert_allclose(ric, ric.T, atol=1e-12)


def _sectional(r, x, y):
    """K(x, y) = <R(x, y) y, x> / (|x|^2 |y|^2 - <x, y>^2) of the dense R."""
    gram = (x @ x) * (y @ y) - (x @ y) ** 2
    return np.einsum("i,j,k,ijkl,l->", x, y, y, r, x) / gram


def test_sectional_curvature_cases(dr_algebras, rng):
    r = curvature_tensor(build_real_hyperbolic(3))
    assert np.isclose(_sectional(r, _basis(3, 0), _basis(3, 1)), -1.0)
    rf = curvature_tensor(build_flat(3))
    assert _sectional(rf, _basis(3, 0), _basis(3, 1)) == 0.0
    # a Damek-Ricci space has K <= 0
    rdr = curvature_tensor(dr_algebras[(2, 1)])
    for x, y in rng.standard_normal((200, 2, 7)):
        assert _sectional(rdr, x, y) <= 1e-10


def _jacobi_operator_h(g, a):
    """R(., A)A = -D_A^2 - [D_A, S_A] for A perp [s, s], with D_A and S_A
    the symmetric and skew parts of ad_A."""
    d, s = symmetric_skew_split(ad_matrix(a, g))
    return -d @ d - (d @ s - s @ d)


def _jacobi_operator_of_r(g, a):
    """R(., A)A contracted from the dense R."""
    return np.einsum("a,b,jabl->lj", a, a, curvature_tensor(g))


def test_jacobi_operator_h_real_hyperbolic():
    op = _jacobi_operator_of_r(build_real_hyperbolic(4), _basis(4, 0))
    np.testing.assert_allclose(op[1:, 1:], -np.eye(3), atol=1e-12)


def test_jacobi_operator_h_damek_ricci(dr_data):
    d = dr_data[(2, 1)]
    op = _jacobi_operator_of_r(d.algebra, d.h_vector)
    np.testing.assert_allclose(
        np.diag(op), [0.0, -0.25, -0.25, -0.25, -0.25, -1.0, -1.0], atol=1e-12
    )


@pytest.mark.parametrize("shape", [(1, 7), (8,)])
def test_vector_arguments_must_have_shape_n(dr_algebras, shape):
    # numpy's einsum raised a ValueError deep inside for these shapes
    g = dr_algebras[(2, 1)]
    bad = np.zeros(shape)
    bad.flat[0] = 1.0
    with pytest.raises(DimensionError, match=r"shape \(7,\)"):
        ad_matrix(bad, g)
    with pytest.raises(DimensionError, match=r"shape \(7,\)"):
        volume_density(g, bad, np.array([1.0]))


def test_jacobi_operator_h_matches_tensor_generic():
    # ad_H not normal: [H, X] = X, [H, Y] = X + 2Y on an abelian n
    g = MetricLieAlgebra(3, ((0, 1, 1, 1.0), (0, 2, 1, 1.0), (0, 2, 2, 2.0)))
    a = _basis(3, 0)
    d_sym, s_skew = symmetric_skew_split(ad_matrix(a, g))
    assert np.abs(d_sym @ s_skew - s_skew @ d_sym).max() > 1e-3  # non-normal
    np.testing.assert_allclose(_jacobi_operator_h(g, a)[1:, 1:],
                               _jacobi_operator_of_r(g, a)[1:, 1:],
                               atol=1e-10)


def test_jacobi_operator_h_all_standard_builds(dr_data):
    for d in dr_data.values():
        op = _jacobi_operator_h(d.algebra, d.h_vector)
        assert np.abs(op - _jacobi_operator_of_r(d.algebra, d.h_vector)
                      ).max() <= 1e-10


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
    r = curvature_tensor(alg)
    _, z_perp, _, kernel, _, pair_cols = central_frame_split(d)
    central = CentralGeodesicFrame.build(d)
    for t in times:
        u = -np.tanh(t) * d.h_vector + z_top_vector(d) / np.cosh(t)
        xi = d.h_vector / np.cosh(t) + np.tanh(t) * z_top_vector(d)
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
    g = MetricLieAlgebra(
        4, algebra_to_dict(generic_pair_algebra)["structure_constants"])
    assert build_report(g)["classification"] == "NotAsymptoticallyHarmonic"
    assert len(calls) == 1


def test_nabla_r_symmetric_spaces(dr_algebras):
    assert nabla_R_norm(build_flat(1)) == 0.0   # no 2-vectors at all
    assert nabla_R_norm(build_real_hyperbolic(3)) <= 1e-10
    # complex hyperbolic model: l = 1 with two module copies
    assert nabla_R_norm(dr_algebras[(1, 2)]) <= 1e-9


def test_nabla_r_nonsymmetric_witness(dr_algebras):
    g = dr_algebras[(2, 1)]
    assert nabla_R_norm(g) > 1e-3
    assert nabla_R_norm(g) / curvature_norm(g) > 1e-3


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
    r_norm = curvature_norm(g)
    # absolute bound: DR (3, 1) is symmetric, its norm is pure roundoff
    assert abs(nabla_R_norm(g) - _nabla_r_norm_oracle(g)) \
        <= 1e-12 * max(1.0, r_norm)


@pytest.mark.parametrize("name, symmetric", [
    ("dr-1-1", True), ("dr-1-2", True), ("dr-2-1", False), ("dr-3-1", True),
    ("perturbed-theta", False), ("generic-pair", False),
    ("rot-dr-1-1", True), ("rot-dr-2-1", False), ("rot-dr-3-1", True),
    ("rot-dr-7-1", True), ("rot-dr-7-2", False)])
def test_nabla_r_norm_matches_three_product_oracle(name, symmetric,
                                                   dr_algebras,
                                                   perturbed_theta_algebra,
                                                   generic_pair_algebra,
                                                   haar_rotate):
    g = {"dr-1-1": lambda: dr_algebras[(1, 1)],
         "dr-1-2": lambda: dr_algebras[(1, 2)],
         "dr-2-1": lambda: dr_algebras[(2, 1)],
         "dr-3-1": lambda: dr_algebras[(3, 1)],
         "perturbed-theta": lambda: perturbed_theta_algebra,
         "generic-pair": lambda: generic_pair_algebra,
         "rot-dr-1-1": lambda: haar_rotate(dr_algebras[(1, 1)], 7),
         "rot-dr-2-1": lambda: haar_rotate(dr_algebras[(2, 1)], 7),
         "rot-dr-3-1": lambda: haar_rotate(dr_algebras[(3, 1)], 7),
         "rot-dr-7-1": lambda: haar_rotate(
             build_damek_ricci(clifford_generators(7, 1)), 7),
         "rot-dr-7-2": lambda: haar_rotate(
             build_damek_ricci(clifford_generators(7, 2)), 7)}[name]()
    value, oracle = nabla_R_norm(g), nabla_R_norm_three_products(g)
    # both norms of a symmetric space are roundoff of a zero tensor, about
    # 1e-15 |R|; the expansion 2 |S|^2 + 2 tr(S S) of |S + S^T|^2 leaves
    # 4e-9 to 3e-8 |R| on the rotated DR (1, 1), (3, 1) and (7, 1), with
    # a negative sum of squares on (1, 1) and (7, 1)
    if symmetric:
        assert abs(value - oracle) <= 1e-12 * curvature_norm(g)
    else:
        assert oracle > 1e-3
        assert abs(value - oracle) <= 1e-13 * oracle


def test_nabla_r_norm_holds_under_two_n4_arrays():
    # DR (7, 3): one n^4 array is 32^4 doubles = 8.4 MB; the three-product
    # kernel holds two of them, the pair kernel about one
    g = build_damek_ricci(clifford_generators(7, 3))
    assert g.dim == 32
    g.curvature_operator   # built beforehand, outside the kernel's footprint
    tracemalloc.start()
    try:
        value = nabla_R_norm(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value > 1.0
    assert peak <= 2 * 32 ** 4 * 8


def test_nabla_r_norm_memory_stays_order_n4():
    # one full n^5 term of nabla R on DR (7, 3) is 32^5 doubles = 268 MB
    g = build_damek_ricci(clifford_generators(7, 3))
    assert g.dim == 32
    g.curvature_operator   # Gamma and R are not part of the norm's footprint
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
    # of the construction and the dense R each hold at most two of them
    rows = algebra_to_dict(build_damek_ricci(clifford_generators(7, 3)))[
        "structure_constants"]
    tracemalloc.start()
    try:
        g = MetricLieAlgebra(32, rows)
        _, build_peak = tracemalloc.get_traced_memory()
        g.connection
        tracemalloc.reset_peak()
        r = curvature_tensor(g)
        _, r_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.shape == (32,) * 4
    assert build_peak <= 18.5e6
    assert r_peak <= 18.5e6


def test_build_report_holds_under_five_quarters_n4():
    # dim 32: one n^4 array is 32^4 doubles = 8.4 MB.  Neither the load
    # (its Jacobi check) nor the report allocates one.  DR (7, 3) takes
    # the closed forms; with J_1 off H-type by 1e-6 it takes the dense
    # path, which holds the operator on the 2-vectors, its signed gather
    # and S_l (about n^4 doubles) and blocks of a fixed byte budget
    bound = 1.25 * 32 ** 4 * 8
    for base, label in (
            (build_damek_ricci(clifford_generators(7, 3)),
             "DamekRicciNonsymmetric"),
            (damek_ricci_scaled_j(7, 3, 1 + 1e-6),
             "NotAsymptoticallyHarmonic")):
        rows = algebra_to_dict(base)["structure_constants"]
        tracemalloc.start()
        try:
            g = MetricLieAlgebra(32, rows)
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = build_report(g)
            _, report_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["classification"] == label
        assert build_peak <= bound
        assert report_peak <= bound


def _curvature_cases(dr_algebras, perturbed_theta_algebra,
                     generic_pair_algebra, haar_rotate):
    return [*dr_algebras.values(), perturbed_theta_algebra,
            generic_pair_algebra, haar_rotate(dr_algebras[(3, 1)], 7),
            haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 7)]


def test_curvature_matches_einsum(dr_algebras, perturbed_theta_algebra,
                                  generic_pair_algebra, haar_rotate):
    for g in _curvature_cases(dr_algebras, perturbed_theta_algebra,
                              generic_pair_algebra, haar_rotate):
        got = curvature_tensor(g)
        want = curvature_einsum(g.tensor, g.connection)
        assert np.abs(got - want).max() <= 1e-14 * g.scale * g.scale


def test_curvature_operator_matches_dense_tensor(
        dr_algebras, perturbed_theta_algebra, generic_pair_algebra,
        haar_rotate):
    # the operator is R on the pairs i < j, k < q, symmetric by pair
    # symmetry, and carries |R| of the dense tensor
    for g in _curvature_cases(dr_algebras, perturbed_theta_algebra,
                              generic_pair_algebra, haar_rotate):
        r = curvature_tensor(g)
        j, i = np.tril_indices(g.dim, -1)   # pairs i < j, by j then i
        op = g.curvature_operator
        bound = 1e-14 * g.scale * g.scale
        assert np.abs(op - r[i, j][:, i, j]).max() <= bound
        assert np.abs(op - op.T).max() <= bound
        assert curvature_norm(g) == pytest.approx(np.linalg.norm(r),
                                                  rel=1e-14)


@pytest.mark.parametrize("budget", [1, 2 ** 18, 2 ** 40])
def test_blocked_curvature_stages_match_the_default(budget, monkeypatch,
                                                    haar_rotate):
    # one row i per chunk and one column j per block, chunks of 2 rows
    # and blocks of 4 columns that split dim 24 unevenly, and one block
    # for everything give one operator and one |nabla R| up to roundoff
    # (the default budget runs dim 24 in chunks of 9 rows and product
    # blocks of 19 columns)
    dr72 = haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 7)
    want = dr72.curvature_operator
    want_nr = nabla_R_norm(dr72)
    monkeypatch.setattr(curvature, "CURVATURE_BLOCK_BYTES", budget)
    rows = algebra_to_dict(dr72)["structure_constants"]
    g = MetricLieAlgebra(dr72.dim, rows)
    got = g.curvature_operator
    bound = 1e-14 * g.scale * g.scale
    assert np.abs(got - want).max() <= bound
    assert nabla_R_norm(g) == pytest.approx(want_nr, rel=1e-13)


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

def _count_calls(monkeypatch, names):
    """Counts of calls to the named ``curvature`` functions made from now
    on, by name."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(curvature, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(curvature, name, wrapper)

    for name in calls:
        counting(name)
    return calls


@pytest.fixture()
def geometry_calls(monkeypatch):
    """Counts of levi_civita / curvature_tensor / curvature_operator /
    flow_operator calls made from now on."""
    return _count_calls(monkeypatch, ("levi_civita", "curvature_tensor",
                                      "curvature_operator", "flow_operator"))


def test_build_report_computes_geometry_once(geometry_calls):
    # a fresh instance off H-type (J_1 times 1 + 1e-6), so the dense path
    # runs; an H-type input builds no geometry at all (test below)
    g = damek_ricci_scaled_j(2, 1, 1 + 1e-6)
    report = build_report(g)
    assert report["classification"] == "NotAsymptoticallyHarmonic"
    assert geometry_calls == {"levi_civita": 1, "curvature_tensor": 0,
                              "curvature_operator": 1, "flow_operator": 0}


def test_second_report_reuses_nabla_r_norm(monkeypatch):
    # |nabla R| is kept on the algebra like Gamma and the operator, so a
    # second report of one uncertified instance runs no kernel again
    g = damek_ricci_scaled_j(2, 1, 1 + 1e-6)
    calls = _count_calls(monkeypatch, ("nabla_R_norm", "curvature_operator"))
    first = build_report(g)
    assert calls == {"nabla_R_norm": 1, "curvature_operator": 1}
    assert build_report(g) == first
    assert calls == {"nabla_R_norm": 1, "curvature_operator": 1}
    assert g.nabla_R_norm == first["symmetry"]["nabla_r_norm"]


@pytest.mark.parametrize("name", ["dr-2-1", "dr-2-1-scaled-j", "flat-4",
                                  "heisenberg-3"])
def test_analyze_computes_ricci_once(name, monkeypatch, tmp_path):
    # one Ric per run, from the brackets, whichever path |R| takes
    g = (build_damek_ricci(clifford_generators(2, 1)) if name == "dr-2-1"
         else _dense_inputs(name, {}))
    calls = _count_calls(monkeypatch, ("ricci_from_brackets",))
    code, _ = _analyze_file(tmp_path, g)
    assert code == 0
    assert calls == {"ricci_from_brackets": 1}


@pytest.mark.parametrize("key", [(2, 1), (3, 2), (7, 2)])
def test_uncertified_einstein_block_matches_dense_ricci(key):
    # off H-type (J_1 times 1 + 1e-6): c and the residual of the report
    # are those of the contraction of the dense R
    g = damek_ricci_scaled_j(*key, 1 + 1e-6)
    assert g.decomposition().certificate is None
    ric = ricci(curvature_tensor(g))
    c = np.trace(ric) / g.dim
    residual = np.linalg.norm(ric - c * np.eye(g.dim))
    einstein = build_report(g)["einstein"]
    bound = 1e-13 * np.linalg.norm(ric)
    assert abs(einstein["constant"] - c) <= bound
    assert abs(einstein["residual"] - residual) <= bound


def _analyze_file(tmp_path, g, *argv):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(algebra_to_dict(g)))
    out = tmp_path / "report.json"
    code = main(["analyze", str(path), "--output", str(out), *argv])
    return code, json.loads(out.read_text())


def _skew_ad_h(l, copies):
    """DR (l, copies) with 0.3 times a skew derivation that commutes with
    ad_H added to ad_H: ad_H is normal, not self-adjoint, and the input's
    brackets are not the Damek-Ricci ones in any frame."""
    g = build_damek_ricci(clifford_generators(l, copies))
    return add_to_ad_h(g, 0.3 * skew_derivations_commuting_with_ad_h(g)[0])


_CERTIFIED = {
    "dr-1-1": lambda rot: build_damek_ricci(clifford_generators(1, 1)),
    "dr-2-1": lambda rot: build_damek_ricci(clifford_generators(2, 1)),
    "rot-dr-7-2": lambda rot: rot(
        build_damek_ricci(clifford_generators(7, 2)), 7),
    "mixed-3-1-1": lambda rot: mixed_damek_ricci(3, 1, 1),
    "rot-mixed-3-2-0": lambda rot: rot(mixed_damek_ricci(3, 2, 0), 7),
    "rh-3": lambda rot: build_real_hyperbolic(3),
    # ad_H normal but not self-adjoint: the standard decomposition reads
    # the symmetric-part modification, isometric to the input, and that
    # is DR (2, 1) in the adapted frame, so the certificate reads it too
    "dr-2-1-skew-ad-h": lambda rot: _skew_ad_h(2, 1),
    "rot-dr-2-1-skew-ad-h": lambda rot: rot(_skew_ad_h(2, 1), 7),
}


def _dense_inputs(name, fixtures):
    return {
        "perturbed-theta": lambda: fixtures["perturbed-theta"],
        "generic-pair": lambda: fixtures["generic-pair"],
        "dr-2-1-scaled-j": lambda: damek_ricci_scaled_j(2, 1, 1 + 1e-6),
        "heisenberg-3": lambda: build_heisenberg_type(clifford_generators(1)),
        "flat-4": lambda: build_flat(4),
    }[name]()


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_certified_inputs_skip_the_dense_curvature_stages(name, monkeypatch,
                                                          tmp_path,
                                                          haar_rotate):
    calls = _count_calls(monkeypatch, ("curvature_operator", "nabla_R_norm"))
    code, report = _analyze_file(tmp_path, _CERTIFIED[name](haar_rotate))
    assert code == 0
    assert report["classification"] in ("RankOneSymmetric",
                                        "DamekRicciNonsymmetric")
    assert calls == {"curvature_operator": 0, "nabla_R_norm": 0}


@pytest.mark.parametrize("name", ["perturbed-theta", "generic-pair",
                                  "dr-2-1-scaled-j"])
def test_other_inputs_take_the_dense_curvature_stages(
        name, monkeypatch, tmp_path, perturbed_theta_algebra,
        generic_pair_algebra):
    g = _dense_inputs(name, {"perturbed-theta": perturbed_theta_algebra,
                             "generic-pair": generic_pair_algebra})
    assert lie_metric.h_type_certificate(standard_decomposition(g)) is None
    calls = _count_calls(monkeypatch, ("curvature_operator", "nabla_R_norm"))
    code, report = _analyze_file(tmp_path, g)
    assert code == 0
    assert calls == {"curvature_operator": 1, "nabla_R_norm": 1}


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_certified_density_never_integrates(name, monkeypatch, haar_rotate):
    # a certified input's density is the closed form: it reads neither the
    # connection nor the flow operator, starts no integration, and does not
    # depend on the direction
    g = _CERTIFIED[name](haar_rotate)

    def forbidden(*args, **kwargs):
        raise AssertionError("a certified density read the geodesic flow")
    for attr in ("connection", "flow_operator"):
        monkeypatch.setattr(MetricLieAlgebra, attr, property(forbidden))
    monkeypatch.setattr(jacobi_flow, "_dop853", forbidden)
    rng = np.random.default_rng(31)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    rows = [volume_density(g, v / np.linalg.norm(v), t)
            for v in rng.standard_normal((4, g.dim))]
    assert all(np.array_equal(row, rows[0]) for row in rows)


@pytest.mark.parametrize("name", ["perturbed-theta", "generic-pair",
                                  "dr-2-1-scaled-j", "heisenberg-3",
                                  "flat-4"])
def test_other_densities_are_integrated(name, monkeypatch,
                                        perturbed_theta_algebra,
                                        generic_pair_algebra):
    # every input without a certificate starts one integration per
    # direction and gets exactly what the integrated path gives
    g = _dense_inputs(name, {"perturbed-theta": perturbed_theta_algebra,
                             "generic-pair": generic_pair_algebra})
    assert g.decomposition().certificate is None
    started = []
    solver = jacobi_flow._dop853

    def counting(*args, **kwargs):
        started.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(jacobi_flow, "_dop853", counting)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    for v in np.random.default_rng(37).standard_normal((3, g.dim)):
        v /= np.linalg.norm(v)
        assert np.array_equal(
            volume_density(g, v, t),
            jacobi_flow._integrated_density(g, v, t, DEFAULT_TOLS))
    assert len(started) == 6


@pytest.mark.parametrize("key", [(2, 1), (7, 2)])
def test_skew_ad_h_certifies_with_its_damek_ricci_twin(key):
    # at every scale the skew input gets its twin's certificate, and with
    # it the twin's label and closed-form |R| and |nabla R|
    twin = build_damek_ricci(clifford_generators(*key))
    skew = _skew_ad_h(*key)
    for c in (1e-30, 1.0, 1e30):
        a, b = twin.rescaled(c), skew.rescaled(c)
        got, want = (x.decomposition().certificate for x in (b, a))
        assert got is not None and got[1:] == want[1:]
        assert got.lam == pytest.approx(want.lam, rel=1e-14)
        ours, theirs = build_report(b), build_report(a)
        assert ours["classification"] == theirs["classification"]
        for block, field in (("curvature", "norm"),
                             ("symmetry", "nabla_r_norm")):
            assert ours[block][field] == pytest.approx(theirs[block][field],
                                                       rel=1e-14)


def test_certified_derivations_must_agree(monkeypatch, tmp_path, capsys):
    # on DR (2, 1) Ric from the brackets is -(m + 4k) / 4 = -3 times id,
    # and the H-type certificate implies rigidity along the chosen Z; a
    # derivation patched to disagree makes analyze exit 4 once the report
    # is written, naming the identity, its value and its bound
    g = build_damek_ricci(clifford_generators(2, 1))
    code, report = _analyze_file(tmp_path, g)
    assert code == 0 and report["classification"] == "DamekRicciNonsymmetric"
    capsys.readouterr()
    original = curvature.ricci_from_brackets
    # still Einstein, so only the second derivation can see it
    monkeypatch.setattr(curvature, "ricci_from_brackets",
                        lambda g: original(g) + 1e-6 * np.eye(g.dim))
    code, shifted = _analyze_file(tmp_path, g)
    err = capsys.readouterr().err
    assert code == 4
    assert shifted["classification"] == "DamekRicciNonsymmetric"
    bound = DEFAULT_TOLS.einstein_residual * g.scale * g.scale
    gap = re.search(r"c = -\(m \+ 4k\) lam\^2 / 4 = -3\.0: "
                    r"\|Ric - c id\| = (\S+) exceeds (\S+)\n", err)
    assert gap and gap[2] == repr(bound)
    assert float(gap[1]) == pytest.approx(1e-6 * np.sqrt(g.dim), rel=1e-6)
    # build_report leaves each message in ``failures``, the one source of
    # exit 4, so a library caller sees it without the CLI
    failures = []
    build_report(g, failures=failures)
    assert failures == err.splitlines()
    monkeypatch.setattr(curvature, "ricci_from_brackets", original)

    rigidity = hypergeom.rigidity_conclusion
    monkeypatch.setattr(hypergeom, "rigidity_conclusion",
                        lambda d, tols: (False, rigidity(d, tols)[1]))
    code, unrigid = _analyze_file(tmp_path, g)
    err = capsys.readouterr().err
    # the certificate decides the label; the contradicting witness exits 4
    assert code == 4
    assert unrigid["classification"] == "DamekRicciNonsymmetric"
    assert "rigidity.is_rigid = False" in err and "(True)" in err
    failures = []
    build_report(g, failures=failures)
    assert failures == err.splitlines()


def test_certified_trace_must_be_m_over_2_plus_k(monkeypatch, tmp_path,
                                                 capsys):
    # on DR (2, 1), m = 4 and k = 2, so trace ad_H / lam = 4; a trace
    # patched off it by 1e-6, past 2 eigen_merge (m + k) = 1.2e-8 and
    # within mean_constancy, makes analyze exit 4 with this message alone
    g = build_damek_ricci(clifford_generators(2, 1))
    trace = lie_metric.StandardSolvableData.trace_ad_h
    monkeypatch.setattr(lie_metric.StandardSolvableData, "trace_ad_h",
                        property(lambda d: trace.fget(d) + 1e-6))
    code, report = _analyze_file(tmp_path, g)
    err = capsys.readouterr().err
    assert code == 4
    assert report["classification"] == "DamekRicciNonsymmetric"
    bound = 2 * DEFAULT_TOLS.eigen_merge * 6
    assert err == (f"H-type, yet trace_ad_h = {4 + 1e-6!r} is not m/2 + k "
                   f"= 4.0: off by {4 + 1e-6 - 4!r} exceeds {bound!r}\n")


@pytest.mark.parametrize("argv, operator", [
    (["analyze"], 1),
    (["analyze", "--density-csv", "{tmp}/d.csv"], 1),
    (["classify"], 0),
    (["scan-h"], 0),
], ids=["analyze", "analyze-density", "classify", "scan-h"])
def test_only_analyze_builds_the_operator(argv, operator, geometry_calls,
                                          tmp_path):
    # each command loads a fresh algebra; classify and scan-h read the
    # spectral data only, and the density sidecar reads the flow operator.
    # The input is off H-type, so analyze takes the dense path
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        algebra_to_dict(damek_ricci_scaled_j(2, 1, 1 + 1e-6))))
    args = [a.format(tmp=tmp_path) for a in argv[1:]]
    assert main([argv[0], str(path), "--output", str(tmp_path / "out"),
                 *args]) == 0
    density = int("--density-csv" in argv)
    assert geometry_calls == {"levi_civita": operator or density,
                              "curvature_tensor": 0,
                              "curvature_operator": operator,
                              "flow_operator": density}


def test_volume_density_shares_geometry(geometry_calls, rng):
    # off H-type (J_1 times 1 + 1e-6), so every direction integrates the
    # flow; the density is DR (2, 1)'s to about the perturbation
    g = damek_ricci_scaled_j(2, 1, 1 + 1e-6)
    t = np.array([0.5, 1.0])
    dirs = rng.standard_normal((8, g.dim))
    dirs[0] = _basis(g.dim, 0)   # H, along which u stays constant
    rows = [volume_density(g, v / np.linalg.norm(v), t) for v in dirs]
    assert geometry_calls == {"levi_civita": 1, "curvature_tensor": 0,
                              "curvature_operator": 0, "flow_operator": 1}
    np.testing.assert_allclose(
        rows, np.broadcast_to((2.0 * np.sinh(t / 2.0)) ** 4
                              * np.sinh(t) ** 2, (8, 2)), rtol=1e-6)


def test_certified_density_sidecar_builds_no_geometry(geometry_calls,
                                                      tmp_path):
    # an H-type input takes the closed forms in the report and the density
    code, _ = _analyze_file(tmp_path,
                            build_damek_ricci(clifford_generators(2, 1)),
                            "--density-csv", str(tmp_path / "d.csv"))
    assert code == 0
    assert geometry_calls == {"levi_civita": 0, "curvature_tensor": 0,
                              "curvature_operator": 0, "flow_operator": 0}


def test_geometry_is_read_only(dr_algebras):
    g = dr_algebras[(1, 1)]
    with pytest.raises(ValueError):
        g.curvature_operator[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.connection[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        g.flow_operator[0, 0] = 1.0
