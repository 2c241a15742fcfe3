"""Maximal solutions of the algebraic matrix Riccati equation.

The homogeneous equation X^2 + X ad_A + ad_A^T X = 0 governs the second
fundamental form of stable horospheres along geodesics perpendicular to
the derived algebra: the shape operator is L0 = -D_A - X with X the
maximal symmetric solution, and trace L0 = -sum |Re sigma| over the
spectrum of ad_A.  The solver takes one ordered real Schur form of ad_A
(one LAPACK ``dgees`` call, which gives T, Q and the spectrum), one
Lyapunov solve by LAPACK ``trsyl`` on its quasi-triangular strictly
stable block T22 and one Cholesky factorization of the Lyapunov
solution, which is positive definite.  ``trsyl`` flags two failures:
perturbed coefficients (``info = 1``, eigenvalue sums of T22 within
roundoff of 0) raise :class:`DegenerateSpectrumError`, and a solution
scaled down to avoid overflow (``scale < 1``) raises
:class:`NumericalError`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOLS, Tolerances
from .errors import DegenerateSpectrumError, NumericalError
from .lie_metric import symmetric_skew_split
from .numerics import as_square, eigenvalues, ordered_real_schur

__all__ = [
    "RiccatiResult",
    "solve_algebraic_riccati_max",
    "horosphere_mean_curvature_formula",
]


@dataclass(frozen=True)
class RiccatiResult:
    x: np.ndarray            # maximal symmetric solution
    l0: np.ndarray           # stable shape operator -D_A - X
    spectrum_ad_a: np.ndarray
    trace_l0: float

    def residual(self, ad_a) -> float:
        a = np.asarray(ad_a, dtype=float)
        return float(np.linalg.norm(self.x @ self.x + self.x @ a + a.T @ self.x))


def horosphere_mean_curvature_formula(ad_a) -> float:
    """Closed-form horosphere mean curvature: -sum |Re sigma| over spec(ad_A)."""
    spec = eigenvalues(as_square(ad_a))
    return float(-np.abs(spec.real).sum())


def _check_band(spec, tols: Tolerances):
    """Raise :class:`DegenerateSpectrumError` for eigenvalues inside the
    ambiguity band ``(axis_band, separation_band)`` of |Re sigma|."""
    re = np.abs(spec.real)
    ambiguous = (re > tols.axis_band) & (re < tols.separation_band)
    if np.any(ambiguous):
        raise DegenerateSpectrumError(
            "eigenvalues inside the imaginary-axis ambiguity band",
            diagnostics={"eigenvalues": spec[ambiguous],
                         "band": (tols.axis_band, tols.separation_band)},
        )


def solve_algebraic_riccati_max(ad_a,
                                tols: Tolerances = DEFAULT_TOLS) -> RiccatiResult:
    """Maximal symmetric solution of X^2 + X ad_A + ad_A^T X = 0.

    One ordered real Schur form ad_A = Q T Q^T puts the eigenvalues on
    or right of the imaginary axis first (Q1, T11) and the strictly
    stable ones last (Q2, T22); the same ``dgees`` call gives the
    spectrum, so ad_A is factored once.  The equation has no constant
    term, so on the stable part X^{-1} solves a Lyapunov equation: with
    T22 Y + Y T22^T = -I, solved by ``trsyl`` on the quasi-triangular
    T22, the maximal solution is X = Q2 Y^{-1} Q2^T,
    which vanishes on the axis and antistable subspace.  Y is positive
    definite (Lyapunov's theorem), so with Y = L L^T and M = L^{-1} Q2^T,
    X = M^T M is symmetric positive semidefinite by construction; a Y
    that is not numerically positive definite, or that ``trsyl`` found
    only by perturbing T22, raises :class:`DegenerateSpectrumError`,
    and a Y that overflows raises :class:`NumericalError`.  With no
    stable eigenvalue X is exactly 0 and no factorization is made.  The
    residual and closed-loop checks fail on NaN (X^2 overflows).  The
    closed-loop check reads spec(-ad_A - X) on the stable block only;
    the axis block keeps the spectrum the split chose, which a coupled
    nilpotent Jordan block moves by about sqrt(eps).
    Eigenvalues inside the ambiguity band ``(axis_band, separation_band)``
    raise :class:`DegenerateSpectrumError` with diagnostics.
    """
    a = as_square(ad_a)
    n = a.shape[0]
    cut = -0.5 * (tols.axis_band + tols.separation_band)
    try:
        t, q, sdim, spec = ordered_real_schur(a, lambda x, y: x >= cut)
    except NumericalError:
        # a split that fails near the cut is reported as the band it hit
        _check_band(eigenvalues(a), tols)
        raise
    _check_band(spec, tols)
    n_stable = int((spec.real < cut).sum())
    k = n - n_stable
    if sdim != k:
        raise DegenerateSpectrumError(
            f"axis and antistable subspace has dimension {sdim}, "
            f"expected {k}",
            diagnostics={"eigenvalues": spec},
        )
    x = np.zeros((n, n))
    if n_stable:
        q2 = q[:, k:]
        t22 = t[k:, k:]
        y, scale, info = scipy.linalg.lapack.dtrsyl(
            t22, t22, -np.eye(n_stable), tranb="T")
        if info:
            raise DegenerateSpectrumError(
                "Lyapunov equation of the stable block is singular to "
                "working precision: eigenvalue sums of the stable block are "
                "within roundoff of 0, relative to its norm or to the "
                "underflow threshold",
                diagnostics={"eigenvalues": spec[:n_stable]},
            )
        if scale < 1.0:   # trsyl scaled Y down to keep it finite
            raise NumericalError(
                f"Lyapunov solution of the stable block overflows "
                f"(trsyl scale {scale:.3e})"
            )
        try:
            # one triangle of Y would carry the solver's roundoff
            # asymmetry into X, amplified by cond(Y)
            l = scipy.linalg.cholesky(0.5 * (y + y.T), lower=True)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSpectrumError(
                "Lyapunov solution of the stable block is not positive "
                "definite", diagnostics={"reason": str(exc)},
            ) from exc
        m = scipy.linalg.solve_triangular(l, q2.T, lower=True)
        x = m.T @ m
    resid = float(np.linalg.norm(x @ x + x @ a + a.T @ x))
    if not resid <= tols.riccati_residual * max(1.0, np.linalg.norm(a) ** 2):
        raise NumericalError(
            f"Riccati residual {resid:.3e} exceeds tolerance"
        )
    if n_stable:
        # in the basis Q, -ad_A - X is block upper triangular with blocks
        # -T11 and -T22 - Y^{-1}: only the second is closed by X
        closed = eigenvalues(q2.T @ (-a - x) @ q2)
        if not closed.real.max() <= tols.riccati_residual:
            raise NumericalError(
                "stable closed-loop spectrum has a positive real part "
                f"({closed.real.max():.3e})"
            )
    d_sym, _ = symmetric_skew_split(a)
    l0 = -d_sym - x
    return RiccatiResult(
        x=x, l0=l0, spectrum_ad_a=spec, trace_l0=float(np.trace(l0))
    )
