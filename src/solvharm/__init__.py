"""solvharm: metric solvable Lie algebras and harmonic-space rigidity.

Construct Heisenberg-type and Damek-Ricci algebras from Clifford
modules, compute their left-invariant geometry (connection, curvature,
Einstein constants, |nabla R|), solve the horosphere Riccati
equations, evaluate stable Jacobi tensors from closed forms (not by
integration), and the hypergeometric rigidity function whose constancy
characterizes asymptotically harmonic Einstein solvmanifolds.

The package root re-exports the numpy-only modules (``lie_metric``,
``clifford_dr``, ``curvature``), so ``import solvharm`` and building and
checking an algebra load no scipy.  The scipy-backed modules are imported
by name: ``solvharm.riccati`` loads ``scipy.linalg``, and
``solvharm.hypergeom`` and ``solvharm.jacobi_flow`` load
``scipy.special``.  No module loads scipy's ODE solvers: the volume
density is integrated by ``ode._dop853``, Dormand-Prince 8(5,3) in
numpy with scipy's ``DOP853`` arithmetic.
"""

from .config import DEFAULT_TOLS, Tolerances
from .errors import (ConjugatePointError, DegenerateSpectrumError,
                     DimensionError, DomainError, NotStandardError,
                     NumericalError, SingularMatrixError, SolvharmError,
                     StructureError)
from .lie_metric import (GrowthType, MetricLieAlgebra, StandardSolvableData,
                         ad_matrix, algebra_from_dict, algebra_to_dict,
                         clifford_relation_defect, derived_algebra,
                         growth_type, nilpotency_class, pair_decomposition,
                         standard_decomposition, subalgebra,
                         symmetric_skew_split)
from .clifford_dr import (build_damek_ricci, build_flat, build_heisenberg_type,
                          build_real_hyperbolic, clifford_generators)
from .curvature import (central_jacobi_blocks, curvature_norm,
                        curvature_tensor, einstein_check, levi_civita,
                        nabla_R_norm)

__version__ = "0.1.0"
