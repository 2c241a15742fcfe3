"""solvharm: metric solvable Lie algebras and harmonic-space rigidity.

Construct Heisenberg-type and Damek-Ricci algebras from Clifford
modules, compute their left-invariant geometry (connection, curvature,
Einstein constants, Jacobi operators), solve the horosphere Riccati
equations, integrate stable Jacobi tensors, and evaluate the
hypergeometric rigidity function whose constancy characterizes
asymptotically harmonic Einstein solvmanifolds.
"""

from .config import DEFAULT_TOLS, Tolerances
from .errors import (ConjugatePointError, DegenerateSpectrumError,
                     DimensionError, DomainError, NotStandardError,
                     NumericalError, SingularMatrixError, SolvharmError,
                     StructureError)
from .lie_metric import (GrowthType, JMap, MetricLieAlgebra,
                         StandardSolvableData, ad_matrix, algebra_from_dict,
                         algebra_to_dict, bracket, center_of, derived_algebra,
                         extract_jmap, growth_type, jmap_from_split,
                         nilpotency_class, pair_decomposition,
                         standard_decomposition, subalgebra,
                         symmetric_skew_split)
from .clifford_dr import (CliffordModule, build_damek_ricci, build_flat,
                          build_heisenberg_type, build_real_hyperbolic,
                          clifford_generators, irreducible_module_dim)
from .curvature import (central_jacobi_blocks, curvature_norm,
                        curvature_tensor, einstein_check, jacobi_operator_H,
                        jacobi_operator_central, levi_civita, nabla_R,
                        nabla_R_norm, ricci, sectional_curvature)
from .riccati import (RiccatiResult, finite_horizon_shape,
                      horosphere_mean_curvature_formula,
                      solve_algebraic_riccati_max)
from .jacobi_flow import (CentralGeodesicFrame, JacobiTensorSample,
                          central_velocity, covariant_derivative_along,
                          finite_horizon_tensor, integrate_jacobi,
                          mean_curvature_numeric, stable_jacobi_tensor,
                          to_parallel_frame, volume_density)
from .hypergeom import (CenterFactor, FactorClassification, FactorSpec,
                        HypergeomParams, KernelFactor, MonodromyCoeffs,
                        PairFactor, RigidityReport, classify_factor,
                        factors_from_data, fundamental_pair, gamma, gauss_f,
                        h_factors, h_function, mean_curvature_analytic,
                        monodromy_coeffs, pair_exponents, reciprocal_gamma,
                        rigidity_conclusion, stable_block_and_derivative,
                        z_of_t)

__version__ = "0.1.0"
