import math

import numpy as np
import pytest
import scipy.linalg

from oracles import finite_horizon_shape, riccati_max_doubled, spectra_match
from solvharm import riccati
from solvharm.config import DEFAULT_TOLS
from solvharm.errors import (DegenerateSpectrumError, DomainError,
                             NumericalError)
from solvharm.lie_metric import symmetric_skew_split
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


_AXIS_BLOCKS = {
    "skew": np.array([[0.0, -0.8], [0.8, 0.0]]),
    "nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "zero": np.zeros((1, 1)),
}


def _with_axis_block(rng, n, kinds):
    """Block upper-triangular matrix: a random solvable-type block on the
    leading slots, then the axis blocks ``kinds``, coupled above the
    diagonal.  Rotated unless a block is nilpotent: a rotation moves a
    Jordan block's eigenvalues by sqrt(eps), into the ambiguity band."""
    blocks = [_AXIS_BLOCKS[k] for k in kinds]
    m = n - sum(b.shape[0] for b in blocks)
    t = np.zeros((n, n))
    t[:m, :m] = _random_solvable_type(rng, m)
    i = m
    for b in blocks:
        t[i: i + b.shape[0], i: i + b.shape[0]] = b
        i += b.shape[0]
    t[:m, m:] = 0.3 * rng.standard_normal((m, n - m))
    if "nilpotent" in kinds:
        return t
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ t @ q.T


def _oracle_cases(rng):
    for n in range(2, 13):
        for _ in range(4):
            yield _random_solvable_type(rng, n)
        if n >= 3:
            yield _with_axis_block(rng, n, ["skew"])
            yield _with_axis_block(rng, n, ["nilpotent"])
            yield _with_axis_block(rng, n, ["zero"])
        if n >= 5:
            yield _with_axis_block(rng, n, ["skew", "nilpotent"])
            yield _with_axis_block(rng, n, ["zero", "skew"])
    # one dense case at n = 64: stable, antistable and axis eigenvalues
    yield _with_axis_block(rng, 64, ["skew", "zero"])
    yield _AXIS_BLOCKS["skew"]
    yield _AXIS_BLOCKS["nilpotent"]
    yield np.array([[-1.0, 0.7], [0.0, 0.0]])


def test_matches_doubled_schur_oracle(rng):
    count = 0
    for a in _oracle_cases(rng):
        x = solve_algebraic_riccati_max(a).x
        ref = riccati_max_doubled(a)
        assert (np.linalg.norm(x - ref)
                <= 1e-10 * max(1.0, np.linalg.norm(ref))), a
        # X = M^T M: symmetric with no rounding
        assert np.array_equal(x, x.T), a
        count += 1
    assert count > 80


def test_one_spectral_factorization(rng, monkeypatch):
    calls = []

    def recording(name, func):
        def wrapper(m, *args, **kwargs):
            calls.append((name, np.shape(m)))
            return func(m, *args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("second Schur form")

    monkeypatch.setattr(riccati, "eigenvalues",
                        recording("eigenvalues", riccati.eigenvalues))
    monkeypatch.setattr(riccati, "ordered_real_schur",
                        recording("schur", riccati.ordered_real_schur))
    monkeypatch.setattr(scipy.linalg, "schur", forbidden)
    a = _with_axis_block(rng, 12, ["skew"])
    res = solve_algebraic_riccati_max(a)
    # the skew block's eigenvalues lie on the axis, within roundoff
    n_stable = int((res.spectrum_ad_a.real < -DEFAULT_TOLS.axis_band).sum())
    assert 0 < n_stable < 10
    # ad_A is factored once; the eigensolver sees the closed-loop block
    assert calls == [("schur", (12, 12)),
                     ("eigenvalues", (n_stable, n_stable))]
    assert (np.abs(res.spectrum_ad_a - eigenvalues(a)).max()
            <= 1e-12 * np.linalg.norm(a))


def test_failed_split_reports_band(monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalError("Schur decomposition failed")

    monkeypatch.setattr(riccati, "ordered_real_schur", failing)
    with pytest.raises(DegenerateSpectrumError) as err:
        solve_algebraic_riccati_max(np.array([[1e-8]]))
    assert "band" in err.value.diagnostics
    with pytest.raises(NumericalError, match="Schur") as err:
        solve_algebraic_riccati_max(np.array([[-1.0]]))
    assert not isinstance(err.value, DegenerateSpectrumError)


def test_no_stable_eigenvalue_gives_exact_zero(rng, dr_data, monkeypatch):
    def no_factorization(*args, **kwargs):
        raise AssertionError("Y factored with no stable eigenvalue")

    monkeypatch.setattr(scipy.linalg, "cholesky", no_factorization)
    # |Re sigma| <= 0.75 before the shift: every eigenvalue antistable
    cases = [_random_solvable_type(rng, n) + 2.0 * np.eye(n)
             for n in (1, 4, 9)]
    cases += [_AXIS_BLOCKS["skew"], _AXIS_BLOCKS["nilpotent"],
              dr_data[(1, 1)].ad_h(), dr_data[(3, 1)].ad_h()]
    for a in cases:
        res = solve_algebraic_riccati_max(a)
        assert np.all(res.x == 0.0)
        assert np.array_equal(res.l0, -symmetric_skew_split(a)[0])


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
