"""Maximal solutions of the algebraic matrix Riccati equation.

The homogeneous equation X^2 + X ad_A + ad_A^T X = 0 governs the second
fundamental form of stable horospheres along geodesics perpendicular to
the derived algebra: the shape operator is L0 = -D_A - X with X the
maximal symmetric solution, and trace L0 = -sum |Re sigma| over the
spectrum of ad_A.  A finite-horizon boundary-value solver provides an
independent oracle converging monotonically to -L0.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (ConjugatePointError, DegenerateSpectrumError,
                     DomainError, NumericalError, SingularMatrixError)
from .lie_metric import symmetric_skew_split
from .numerics import (as_square, eigenvalues, matrix_exponential,
                       ordered_real_schur, solve_linear)

__all__ = [
    "RiccatiResult",
    "solve_algebraic_riccati_max",
    "horosphere_mean_curvature_formula",
    "finite_horizon_shape",
]

_HORIZON_CAP = 80.0   # farthest horizon of finite_horizon_shape


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


def _graph_solution(u1: np.ndarray, u2: np.ndarray,
                    tols: Tolerances) -> np.ndarray:
    try:
        x = solve_linear(u1.T, u2.T, tols).T
    except SingularMatrixError as exc:
        raise DegenerateSpectrumError(
            "invariant subspace is not a graph over the base space",
            diagnostics={"reason": str(exc)},
        ) from exc
    asym = np.linalg.norm(x - x.T)
    if asym > tols.riccati_symmetry * max(1.0, np.linalg.norm(x)):
        raise DegenerateSpectrumError(
            f"graph solution not symmetric (residual {asym:.3e})",
            diagnostics={"asymmetry": asym},
        )
    return 0.5 * (x + x.T)


def solve_algebraic_riccati_max(ad_a,
                                tols: Tolerances = DEFAULT_TOLS) -> RiccatiResult:
    """Maximal symmetric solution of X^2 + X ad_A + ad_A^T X = 0.

    Via the real Schur form of the 2n x 2n block matrix
    ``[[-ad_A, -I], [0, ad_A^T]]``: the graph of the maximal solution is
    the invariant subspace combining the strictly stable spectral
    subspace with, for eigenvalues on the imaginary axis, the
    corresponding invariant subspace of -ad_A itself (on which the
    maximal solution vanishes).  Eigenvalues inside the ambiguity band
    ``(axis_band, separation_band)`` raise
    :class:`DegenerateSpectrumError` with diagnostics.
    """
    a = as_square(ad_a)
    n = a.shape[0]
    spec = eigenvalues(a)
    re = np.abs(spec.real)
    ambiguous = (re > tols.axis_band) & (re < tols.separation_band)
    if np.any(ambiguous):
        raise DegenerateSpectrumError(
            "eigenvalues inside the imaginary-axis ambiguity band",
            diagnostics={"eigenvalues": spec[ambiguous],
                         "band": (tols.axis_band, tols.separation_band)},
        )
    axis = re <= tols.axis_band
    n_axis = int(axis.sum())
    cut = -0.5 * (tols.axis_band + tols.separation_band)

    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = -a
    big[:n, n:] = -np.eye(n)
    big[n:, n:] = a.T

    # strictly stable part of the doubled system
    _, z, sdim = ordered_real_schur(big, lambda x, y: x < cut)
    if sdim != n - n_axis:
        raise DegenerateSpectrumError(
            f"strictly stable subspace has dimension {sdim}, "
            f"expected {n - n_axis}",
            diagnostics={"eigenvalues": spec},
        )
    u = np.zeros((2 * n, n))
    u[:, : n - n_axis] = z[:, : n - n_axis]
    if n_axis:
        # axis part: invariant subspace of ad_A itself, embedded as
        # graph directions on which X acts by zero
        _, q, sdim_axis = ordered_real_schur(a, lambda x, y: abs(x) < -cut)
        if sdim_axis != n_axis:
            raise DegenerateSpectrumError(
                f"axis subspace has dimension {sdim_axis}, expected {n_axis}",
                diagnostics={"eigenvalues": spec},
            )
        u[:n, n - n_axis:] = q[:, :n_axis]

    x = _graph_solution(u[:n], u[n:], tols)
    resid = float(np.linalg.norm(x @ x + x @ a + a.T @ x))
    if resid > tols.riccati_residual * max(1.0, np.linalg.norm(a) ** 2):
        raise NumericalError(
            f"Riccati residual {resid:.3e} exceeds tolerance"
        )
    closed = eigenvalues(-a - x)
    if closed.real.max() > tols.riccati_residual:
        raise NumericalError(
            "stable closed-loop spectrum has a positive real part "
            f"({closed.real.max():.3e})"
        )
    d_sym, _ = symmetric_skew_split(a)
    l0 = -d_sym - x
    return RiccatiResult(
        x=x, l0=l0, spectrum_ad_a=spec, trace_l0=float(np.trace(l0))
    )


def finite_horizon_shape(ad_a, r: float,
                         tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Second fundamental form U_r = -E_r'(0) of a sphere at distance r.

    Solves the constant-coefficient Jacobi system along the geodesic of
    A in the left-invariant frame, (d/dt + S_A)^2 E + R_A E = 0 with
    R_A = -D_A^2 - [D_A, S_A] and boundary conditions E(0) = id,
    E(r) = 0, via one matrix exponential of the companion system and a
    terminal linear solve.  U_r converges monotonically (decreasing) to
    D_A + X as r grows.
    """
    a = as_square(ad_a)
    if not r > 0:
        raise DomainError("horizon r must be positive")
    if r > _HORIZON_CAP:
        raise DomainError(
            f"horizon {r} exceeds the cap {_HORIZON_CAP}; "
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
        p = -solve_linear(phi12, phi11, tols)
    except SingularMatrixError as exc:
        raise ConjugatePointError(
            f"boundary solve singular at r = {r}: {exc}"
        ) from exc
    return -(p + s_skew)
