"""Centralized numerical tolerances.

Every module takes its thresholds from a single :class:`Tolerances`
record so that a run can be tightened or relaxed in one place.  The
defaults are the contract values used throughout the test suite.  Each
field is read by the check it names, and is a ``--tol-*`` flag of
exactly the subcommands that run that check: ``analyze`` runs them all,
``build`` none.  The special functions come from ``scipy.special`` and
have no knobs, and the test oracles keep their fixed parameters as
module constants.

The verdict thresholds are relative to the scale of the algebra.  With
s^2 the sum of squares of the structure constants, which no orthogonal
change of basis moves, |R| is compared with ``flat_norm * s^2``, the
Ricci residual with ``einstein_residual * s^2`` and |nabla R| / |R|
with ``symmetry_ratio * s``, so a verdict does not change when the
metric is rescaled.  For the same reason the Jacobi residual checked
when an algebra is built is compared with ``jacobi_identity * s^2``, the
antisymmetry defect and the pruned entries of an input bracket tensor
with ``ANTISYMMETRY_REL`` and the prune tolerance relative to its
largest entry, the ad_H eigenvalues of the standard decomposition with
``eigen_merge`` relative to the largest one, and the ``riccati`` trace
identity with ``TRACE_IDENTITY_REL`` relative to the closed-form trace.
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

    # geometry verdicts
    einstein_residual: float = 1e-8
    symmetry_ratio: float = 1e-8
    flat_norm: float = 1e-10
    h_constancy: float = 1e-6
    mean_constancy: float = 1e-5

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()

# relative bound on |trace L0 - formula| / max(1, |formula|) in the
# ``riccati`` command; trace L0 scales with the matrix entries
TRACE_IDENTITY_REL = 1e-6

# relative bound on max|T + T^t| / max|T| for a bracket tensor T given to
# ``MetricLieAlgebra.from_tensor``; the roundoff of a change of basis
# scales with the entries
ANTISYMMETRY_REL = 1e-12
