"""Centralized numerical tolerances.

Every module takes its thresholds from a single :class:`Tolerances`
record so that a run can be tightened or relaxed in one place.  The
defaults are the contract values used throughout the test suite.  Each
field is read by the check it names, and is a ``--tol-*`` flag of
exactly the subcommands that run that check: ``analyze`` runs all but
the Riccati solver's, ``build`` none.  The special functions come from
``scipy.special`` and have no knobs: the pair-block guard of
``jacobi_flow`` takes their stated accuracy ``HYP2F1_REL`` as given.
The test oracles keep their fixed parameters as module constants.

The verdict thresholds are relative to the scale of the algebra.  With
s the Frobenius norm of the bracket tensor (``MetricLieAlgebra.scale``,
fixed once when the algebra is built), which no orthogonal change of
basis moves, the trace form x -> tr ad_x with ``RANK_REL * s`` and,
only where it passes (a flat algebra is unimodular), |R| with
``flat_norm * s * s``, the Ricci residual with
``einstein_residual * s * s``, |nabla R| / |R| with
``symmetry_ratio * s``, and for the growth type the real parts of ad_X
with ``growth_real_part * s`` and the Killing form on [s, s] with
``growth_real_part * s * s``, so a verdict does not change when the
metric is rescaled.  For the same reason the Jacobi residual checked
when an algebra is built is taken relative to s^2, on the brackets
times the power of two fixed with s, and compared with
``jacobi_identity``; the normality test of the standard decomposition
takes its norms in that unit too.  The antisymmetry defect and the
pruned entries of an input bracket tensor are compared with
``ANTISYMMETRY_REL`` and ``PRUNE_REL`` relative to its largest entry,
the rank of bracket-derived matrices (derived algebra, the center of
[s, s], lower central series) and the leak of a subalgebra's brackets
with ``RANK_REL * s``, the ad_H eigenvalues of the
standard decomposition with ``eigen_merge`` relative to the largest
one, lam (and so, in ``lie_metric.h_type_certificate``, the brackets
against the Damek-Ricci ones of their maps J_a, with the J_a relations
taken with ``CLIFFORD_RELATION_TOL`` relative to lam^2), and
the ``riccati`` trace identity with ``TRACE_IDENTITY_REL`` relative to
the Frobenius norm of the matrix.
``einstein_residual``, ``symmetry_ratio``, ``classifier_zero``,
``h_constancy`` and ``mean_constancy`` bound witnesses, not the label.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Lie-algebra structure checks
    jacobi_identity: float = 1e-12
    self_adjoint: float = 1e-8
    eigen_merge: float = 1e-9
    growth_real_part: float = 1e-8

    # algebraic Riccati solver
    riccati_residual: float = 1e-8
    axis_band: float = 1e-9
    separation_band: float = 1e-7

    # ODE integration / boundary-value problems
    ode_rtol: float = 1e-11
    ode_atol: float = 1e-13
    bvp_converged: float = 1e-8
    det_floor: float = 1e-13

    # hypergeometric functions
    classifier_zero: float = 1e-10

    # geometry verdicts
    einstein_residual: float = 1e-8
    symmetry_ratio: float = 1e-8
    flat_norm: float = 1e-10
    h_constancy: float = 1e-6
    mean_constancy: float = 1e-5


DEFAULT_TOLS = Tolerances()

# relative bound on |trace L0 - formula| / |A|_F in the ``riccati``
# command; trace L0 scales with the matrix entries
TRACE_IDENTITY_REL = 1e-6

# relative accuracy of scipy.special.hyp2f1, assumed by the pair-block
# conditioning guard of ``jacobi_flow`` (cond M(0) * HYP2F1_REL against
# ``bvp_converged``)
HYP2F1_REL = 1e-13

# ``numerics.solve_linear`` raises ``SingularMatrixError`` for an LU
# pivot at or below PIVOT_REL * ||a||
PIVOT_REL = 1e-13

# every span, complement and kernel (``lie_metric._span_split``) counts
# singular values above RANK_REL * s as rank, with s the bracket scale,
# or 1 for orthonormal columns (see the module docstring)
RANK_REL = 1e-10

# relative bound on max|T + T^t| / max|T| for a bracket tensor T given to
# ``MetricLieAlgebra.from_tensor``; the roundoff of a change of basis
# scales with the entries.  Entries at most PRUNE_REL * max|T| are dropped
ANTISYMMETRY_REL = 1e-12
PRUNE_REL = 1e-14

# bound on | |v| - 1 | for the direction of ``jacobi_flow.volume_density``,
# absolute: a direction is unitless
UNIT_VECTOR_TOL = 1e-10

UNIT_LAM_SNAP = 1e-15   # a top ad_H eigenvalue this close to 1 is taken as 1
H_SCALE_FLOOR = 1e-30   # floor of max|h| in the h-scan drift: h = 0 drifts 0

# ``analyze`` refuses a bracket scale 0 < s outside [1 / SCALE_WINDOW,
# SCALE_WINDOW]: inside, s^6, the scale of |nabla R|^2, stays within
# [1e-270, 1e270], which leaves float64 room for dimension factors
SCALE_WINDOW = 1e45

# bytes of one working block of the curvature stages: the chunk of rows i
# of ``curvature.curvature_operator`` and the column and row blocks of
# ``curvature.nabla_R_norm`` are sized to it, at least one row each.  A
# chunk of all rows fits up to dim 19; at dim 32 a block is about n^4 / 8
# doubles
CURVATURE_BLOCK_BYTES = 2 ** 20

# fixed thresholds of single checks, in the units the comment gives
# largest entry of J_a J_b + J_b J_a + 2 delta_ab lam^2 id over lam^2
# (``lie_metric.clifford_relation_defect``), with lam = 1 for a built
# module, which must also be skew within it, and lam the mean ad_H
# eigenvalue on z in the H-type certificate ``h_type_certificate``
CLIFFORD_RELATION_TOL = 1e-12
NONPOSITIVE_INT_TOL = 1e-12   # a Gauss F c this near 0, -1, ... is a pole
INTEGER_TOL = 1e-10   # a c this near an integer has no fundamental pair
RANGE_SLACK = 1e-12   # roundoff allowed past rho <= 1/2 and mu <= 1
MIN_HORIZON = 1e-12   # the shortest volume-density integration, in time
# ``ode._dop853`` starts from a step of max(1e-6, h0 / 1000) when both
# the scaled |y'| and the scaled change of y' are at most this (scipy's and
# Hairer's initial-step rule)
INITIAL_STEP_FLOOR = 1e-15
INTERIOR_T = 1e-9   # grid times past this are checked for conjugate points
