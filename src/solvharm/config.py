"""Centralized numerical tolerances.

Every module takes its thresholds from a single :class:`Tolerances`
record so that a run can be tightened or relaxed in one place.  The
defaults are the contract values used throughout the test suite.  Each
field is read by the check it names, and each one is also a ``--tol-*``
flag of every subcommand but ``build``, which reads none; the special
functions themselves come from ``scipy.special`` and have no knobs.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # dense linear algebra
    pivot_rel: float = 1e-13

    # Lie-algebra structure checks
    jacobi_identity: float = 1e-12
    self_adjoint: float = 1e-8
    eigen_merge: float = 1e-9
    growth_real_part: float = 1e-8

    # algebraic Riccati solver
    riccati_residual: float = 1e-8
    riccati_symmetry: float = 1e-9
    axis_band: float = 1e-9
    separation_band: float = 1e-7
    horizon_cap: float = 80.0

    # ODE integration / boundary-value problems
    ode_rtol: float = 1e-11
    ode_atol: float = 1e-13
    bvp_converged: float = 1e-8
    det_floor: float = 1e-13

    # hypergeometric functions
    # relative accuracy assumed of scipy.special.hyp2f1 by the pair-block
    # conditioning guard of jacobi_flow (cond M(0) * series_tol)
    series_tol: float = 1e-13
    classifier_zero: float = 1e-10
    h_deriv_step: float = 1e-6

    # geometry verdicts
    einstein_residual: float = 1e-8
    symmetry_ratio: float = 1e-8
    flat_norm: float = 1e-10
    h_constancy: float = 1e-6
    mean_constancy: float = 1e-5

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()
