import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import spectra_match
from solvharm.errors import (DimensionError, NumericalError,
                             SingularMatrixError)
from solvharm.numerics import (eigenvalues, matrix_exponential,
                               ordered_real_schur, solve_linear,
                               sorted_spectrum)


def test_eigenvalues_identity():
    np.testing.assert_allclose(eigenvalues(np.eye(3)), np.ones(3))


def test_eigenvalues_rotation_generator():
    spec = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(sorted_spectrum(spec), [-1j, 1j], atol=1e-12)


def test_eigenvalues_triangular():
    spec = eigenvalues(np.array([[1.0, 5.0], [0.0, -1.0]]))
    np.testing.assert_allclose(spec, [-1.0, 1.0], atol=1e-12)


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(DimensionError):
        eigenvalues(np.zeros((2, 3)))


def test_expm_zero():
    np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    e = matrix_exponential(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(e, np.diag([np.e, np.e**2]), rtol=1e-12)


def test_expm_rotation_by_pi():
    m = np.array([[0.0, -np.pi], [np.pi, 0.0]])
    np.testing.assert_allclose(matrix_exponential(m), -np.eye(2), atol=1e-12)


def test_expm_overflow_rejected():
    from solvharm.errors import NumericalError
    with pytest.raises(NumericalError):
        matrix_exponential(np.array([[1e6]]))


def test_solve_identity():
    b = np.array([3.0, -1.0])
    np.testing.assert_allclose(solve_linear(np.eye(2), b), b)


def test_solve_diagonal():
    x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0])


def test_solve_residual_oracle(rng):
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    x = solve_linear(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_singular_rejected():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))


def test_ordered_schur_selects_stable_subspace():
    a = np.diag([-2.0, 1.0, -0.5])
    t, z, sdim, spec = ordered_real_schur(a, lambda re, im: re < 0)
    assert sdim == 2
    assert set(np.round(np.diag(t)[:2], 12)) == {-2.0, -0.5}
    np.testing.assert_allclose(z @ t @ z.T, a, atol=1e-12)
    np.testing.assert_array_equal(spec, [-2.0, -0.5, 1.0])
    # a complex pair on each side of the axis, rotated: the spectrum
    # comes from the same factorization and matches the eigensolver's
    b = np.zeros((5, 5))
    b[:2, :2] = [[0.4, 1.3], [-1.3, 0.4]]
    b[2:4, 2:4] = [[-0.7, 0.5], [-2.0, -0.7]]
    b[4, 4] = -1.1
    b[np.triu_indices(5, k=1)] += 0.3
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
    b = q @ b @ q.T
    t, z, sdim, spec = ordered_real_schur(b, lambda re, im: re < 0)
    assert sdim == 3
    np.testing.assert_allclose(z @ t @ z.T, b, atol=1e-12)
    assert (np.abs(spec - eigenvalues(b)).max()
            <= 1e-12 * np.linalg.norm(b))
    assert np.count_nonzero(spec.imag) == 4
    assert np.all(spec[:3].real < 0) and np.all(spec[3:].real > 0)


def test_ordered_schur_empty_and_failure(monkeypatch):
    t, z, sdim, spec = ordered_real_schur(np.zeros((0, 0)),
                                          lambda re, im: re < 0)
    assert t.shape == z.shape == (0, 0) and sdim == 0 and spec.size == 0
    # every nonzero dgees info is a NumericalError
    from scipy.linalg import lapack
    gees = lapack.dgees
    for info in (1, 4, 5, -3):
        def failing(*args, _info=info, **kwargs):
            return (*gees(*args, **kwargs)[:-1], _info)

        monkeypatch.setattr(lapack, "dgees", failing)
        with pytest.raises(NumericalError, match="Schur decomposition failed"):
            ordered_real_schur(np.diag([-1.0, 2.0, 3.0]),
                               lambda re, im: re < 0)


_small_matrices = arrays(
    np.float64, (4, 4),
    elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(m=_small_matrices)
def test_transpose_spectrum_invariant(m):
    spec = eigenvalues(m)
    # defective spectra have unbounded eigenvalue condition numbers and
    # are outside the well-conditioned contract of the eigensolver
    gaps = np.abs(spec[:, None] - spec[None, :]) + np.eye(len(spec))
    assume(gaps.min() > 1e-3)
    assert spectra_match(spec, eigenvalues(m.T), tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(m=_small_matrices)
def test_trace_equals_eigenvalue_sum(m):
    spec = eigenvalues(m)
    assert abs(spec.sum().real - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))
    assert abs(spec.sum().imag) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(m=_small_matrices)
def test_expm_inverse_identity(m):
    prod = matrix_exponential(m) @ matrix_exponential(-m)
    assert np.abs(prod - np.eye(4)).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(m=_small_matrices)
def test_expm_determinant_law(m):
    det = np.linalg.det(matrix_exponential(m))
    expected = np.exp(np.trace(m))
    assert abs(det - expected) <= 1e-8 * abs(expected)
