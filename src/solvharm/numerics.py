"""Dense linear-algebra kernels used by every other module.

Thin, contract-enforcing wrappers around LAPACK via numpy/scipy: we need
eigenvalues, matrix exponentials, guarded linear solves and an ordered
real Schur form.  All functions are pure and accept/return plain
``numpy`` arrays.  ``as_square`` and ``eigenvalues`` need numpy alone;
the other kernels import ``scipy.linalg`` when first called, so building
and checking an algebra loads no scipy.
"""

import warnings

import numpy as np

from .config import PIVOT_REL
from .errors import DimensionError, NumericalError, SingularMatrixError

__all__ = [
    "as_square",
    "eigenvalues",
    "matrix_exponential",
    "solve_linear",
    "ordered_real_schur",
    "sorted_spectrum",
]


def as_square(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a finite square 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def sorted_spectrum(values) -> np.ndarray:
    """Canonical ordering of a spectrum: by real part, then imaginary."""
    v = np.asarray(values, dtype=complex)
    return v[np.lexsort((v.imag, v.real))]


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a square matrix, with multiplicity.

    Returns a complex array in canonical order; complex eigenvalues of a
    real matrix come in conjugate pairs.
    """
    a = as_square(m)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    return sorted_spectrum(vals)


def matrix_exponential(m) -> np.ndarray:
    """exp(m) by scaling-and-squaring (scipy's Pade implementation)."""
    import scipy.linalg
    a = as_square(m)
    with warnings.catch_warnings():
        # overflow is turned into an explicit error below
        warnings.simplefilter("ignore", RuntimeWarning)
        e = scipy.linalg.expm(a)
    if not np.all(np.isfinite(e)):
        raise NumericalError("matrix exponential overflowed")
    return e


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b with an explicit pivot guard.

    Raises :class:`SingularMatrixError` when any LU pivot falls below
    ``PIVOT_REL * ||a||``.  The guard measures the spread of the pivots,
    not singularity: a well-posed diag(1, 1e-14) trips it.  Only the
    finite-horizon test oracle calls it, to flag a conjugate point.
    """
    import scipy.linalg
    a = as_square(a, "coefficient matrix")
    b_arr = np.asarray(b, dtype=float)
    if b_arr.shape[0] != a.shape[0]:
        raise DimensionError(
            f"right-hand side has {b_arr.shape[0]} rows, expected {a.shape[0]}"
        )
    norm_a = np.linalg.norm(a)
    with warnings.catch_warnings():
        # singularity is handled by the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if norm_a == 0.0 or pivots.min() <= PIVOT_REL * norm_a:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_REL:.0e} * ||a|| = "
            f"{PIVOT_REL * norm_a:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b_arr, check_finite=False)


def ordered_real_schur(m, select):
    """Real Schur form with the eigenvalues chosen by ``select`` leading.

    ``select(re, im)`` is applied to each eigenvalue; the corresponding
    invariant subspace is moved to the front.  Returns ``(T, Z, sdim)``
    with ``m = Z T Z^T`` and ``sdim`` the dimension of the selected
    subspace (the span of the first ``sdim`` columns of ``Z``).
    """
    import scipy.linalg
    a = as_square(m)
    try:
        t, z, sdim = scipy.linalg.schur(a, output="real", sort=select)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"Schur decomposition failed: {exc}") from exc
    return t, z, int(sdim)
