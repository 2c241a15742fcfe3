import math

import numpy as np
import pytest

from oracles import finite_horizon_shape, spectra_match
from solvharm.config import DEFAULT_TOLS
from solvharm.errors import DegenerateSpectrumError, DomainError
from solvharm.numerics import eigenvalues
from solvharm.riccati import (RiccatiResult, horosphere_mean_curvature_formula,
                              solve_algebraic_riccati_max)


def _random_solvable_type(rng, n, low=0.3, high=0.75):
    """Quasi-triangular matrix with |Re sigma| in [low, high], rotated."""
    t = np.zeros((n, n))
    i = 0
    while i < n:
        re = rng.uniform(low, high) * rng.choice([-1.0, 1.0])
        if i + 1 < n and rng.random() < 0.4:
            im = rng.uniform(0.2, 1.0)
            t[i: i + 2, i: i + 2] = [[re, im], [-im, re]]
            i += 2
        else:
            t[i, i] = re
            i += 1
    iu = np.triu_indices(n, k=1)
    t[iu] += 0.3 * rng.standard_normal(len(iu[0]))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ t @ q.T


def test_scalar_closed_form():
    res = solve_algebraic_riccati_max(np.array([[-1.0]]))
    assert np.isclose(res.x[0, 0], 2.0)
    assert np.isclose(res.l0[0, 0], -1.0)
    assert np.isclose(res.trace_l0, -1.0)


def test_positive_symmetric_gives_zero():
    a = np.diag([0.5, 0.5, 1.0])
    res = solve_algebraic_riccati_max(a)
    np.testing.assert_allclose(res.x, 0.0, atol=1e-12)
    np.testing.assert_allclose(res.l0, -a, atol=1e-12)


def test_jordan_block_trace():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    res = solve_algebraic_riccati_max(a)
    assert abs(res.trace_l0 + 2.0) <= 1e-10
    u40 = finite_horizon_shape(a, 40.0)
    assert np.abs(u40 + res.l0).max() <= 1e-6


def test_formula_cases(dr_data):
    assert horosphere_mean_curvature_formula(np.array([[0.0, 1.0],
                                                       [0.0, 0.0]])) == 0.0
    assert np.isclose(
        horosphere_mean_curvature_formula([[1.0, 5.0], [0.0, -1.0]]), -2.0
    )
    d = dr_data[(1, 1)]
    assert np.isclose(horosphere_mean_curvature_formula(d.ad_h()), -2.0)


def test_trace_identity_wide_spectrum(rng):
    # spectra anywhere in [0.05, 2.5] from the axis: the algebraic trace
    # identity is exact regardless of the stable gap
    for k in range(40):
        n = int(rng.integers(2, 9))
        a = _random_solvable_type(rng, n, low=0.05, high=2.5)
        res = solve_algebraic_riccati_max(a)
        formula = horosphere_mean_curvature_formula(a)
        assert abs(res.trace_l0 - formula) <= 1e-8
        assert res.residual(a) <= 1e-8 * max(1.0, np.linalg.norm(a) ** 2)


def test_similarity_identity(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = _random_solvable_type(rng, n)
        res = solve_algebraic_riccati_max(a)
        big = np.block([[-a, -np.eye(n)], [np.zeros((n, n)), a.T]])
        merged = np.concatenate([
            eigenvalues(-a - res.x), eigenvalues(a.T + res.x)
        ])
        assert spectra_match(eigenvalues(big), merged, tol=1e-8)


def test_maximality_scalar_enumeration():
    for a in (-1.5, -0.3, 0.4, 2.0):
        res = solve_algebraic_riccati_max(np.array([[a]]))
        solutions = [0.0, -2.0 * a]
        assert all(res.x[0, 0] >= s - 1e-12 for s in solutions)
        assert any(np.isclose(res.x[0, 0], s) for s in solutions)


def test_maximality_two_by_two_diagonal():
    # for diag(a, b) with a + b != 0 all symmetric solutions are diagonal
    a, b = -1.0, 2.0
    res = solve_algebraic_riccati_max(np.diag([a, b]))
    for xa in (0.0, -2.0 * a):
        for xb in (0.0, -2.0 * b):
            other = np.diag([xa, xb])
            resid = other @ other + other @ np.diag([a, b]) \
                + np.diag([a, b]) @ other
            assert np.abs(resid).max() <= 1e-12
            assert np.linalg.eigvalsh(res.x - other).min() >= -1e-12


def test_axis_spectra():
    # skew: maximal solution vanishes
    res = solve_algebraic_riccati_max(np.array([[0.0, -1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(res.x, 0.0, atol=1e-12)
    # nilpotent: zero is the only symmetric solution
    res = solve_algebraic_riccati_max(np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(res.x, 0.0, atol=1e-12)
    # mixed stable + kernel with coupling, against the closed form
    c = 0.7
    res = solve_algebraic_riccati_max(np.array([[-1.0, c], [0.0, 0.0]]))
    expected = 2.0 / (1.0 + c * c) * np.array([[1.0, -c], [-c, c * c]])
    np.testing.assert_allclose(res.x, expected, atol=1e-10)


def test_degenerate_band_flagged():
    with pytest.raises(DegenerateSpectrumError) as err:
        solve_algebraic_riccati_max(np.array([[1e-8]]))
    assert "band" in err.value.diagnostics


def test_finite_horizon_scalar_coth():
    u = finite_horizon_shape(np.array([[1.0]]), 1.0)
    assert abs(u[0, 0] - 1.0 / math.tanh(1.0)) <= 1e-10
    for r in (0.5, 2.0, 5.0):
        u = finite_horizon_shape(np.array([[1.0]]), r)
        assert abs(u[0, 0] - 1.0 / math.tanh(r)) <= 1e-10


def test_finite_horizon_monotone(rng):
    a = _random_solvable_type(rng, 4)
    radii = (2.0, 4.0, 8.0, 16.0)
    shapes = [finite_horizon_shape(a, r) for r in radii]
    for u_r, u_big in zip(shapes, shapes[1:]):
        assert np.linalg.eigvalsh(u_big - u_r).max() <= 1e-9


def test_finite_horizon_skew_flat_limit():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    for r in (10.0, 40.0):
        u = finite_horizon_shape(a, r)
        assert np.abs(u).max() <= 2.0 / r   # flat factor: U_r ~ id/r -> 0
    assert abs(np.trace(finite_horizon_shape(a, 40.0))) <= 0.1
    assert horosphere_mean_curvature_formula(a) == 0.0


def test_finite_horizon_domain_errors():
    with pytest.raises(DomainError):
        finite_horizon_shape(np.eye(2), -1.0)
    with pytest.raises(DomainError):
        finite_horizon_shape(np.eye(2), 1000.0)


def test_result_dataclass_roundtrip():
    a = np.array([[1.0, 0.2], [0.0, 0.5]])
    res = solve_algebraic_riccati_max(a)
    assert isinstance(res, RiccatiResult)
    assert res.spectrum_ad_a.shape == (2,)
    assert res.residual(a) <= DEFAULT_TOLS.riccati_residual
