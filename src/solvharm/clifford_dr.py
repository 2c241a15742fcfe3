"""Clifford-module generators and the solvable algebras built from them.

A module is its generator array: skew J_1..J_l of shape (l, m, m) with
J_a J_b + J_b J_a = -2 delta_ab id, Kronecker products of 2x2 blocks on
direct sums of an irreducible module (mod-8 periodicity).  They define
Heisenberg-type algebras and their rank-one solvable extensions
(Damek-Ricci spaces); the real hyperbolic and flat builds are here too.
"""

import numpy as np

from .config import CLIFFORD_RELATION_TOL
from .errors import DomainError, StructureError
from .lie_metric import (MetricLieAlgebra, clifford_relation_defect,
                         damek_ricci_brackets)

__all__ = [
    "clifford_generators",
    "build_heisenberg_type",
    "build_damek_ricci",
    "build_real_hyperbolic",
    "build_flat",
]

_OMEGA = np.array([[0.0, -1.0], [1.0, 0.0]])
_SIGMA = np.array([[0.0, 1.0], [1.0, 0.0]])
_TAU = np.array([[1.0, 0.0], [0.0, -1.0]])

# left and right multiplication by i, j, k on the quaternions (1, i, j, k)
_LEFT = np.array([np.kron(np.eye(2), _OMEGA), np.kron(_OMEGA, _TAU),
                  np.kron(_OMEGA, _SIGMA)])
_RIGHT = np.array([np.kron(_TAU, _OMEGA), np.kron(_OMEGA, np.eye(2)),
                   np.kron(_SIGMA, _OMEGA)])


def _irreducible_generators(l: int) -> np.ndarray:
    if l == 1:
        return _OMEGA[np.newaxis]
    if l <= 3:
        return _LEFT[:l]
    # the seven anticommuting complex structures on R^8 = H + H
    seven = np.concatenate([np.kron(_TAU, _LEFT),
                            np.kron(_OMEGA, np.eye(4))[np.newaxis],
                            np.kron(_SIGMA, _RIGHT)])
    if l <= 7:
        return seven[:l]
    eight = np.concatenate([np.kron(_TAU, seven),
                            np.kron(_OMEGA, np.eye(8))[np.newaxis]])
    if l == 8:
        return eight
    # mod-8 periodicity: volume element of the 8-family is symmetric,
    # squares to +id and anticommutes with it
    volume = np.linalg.multi_dot(list(eight))
    rest = _irreducible_generators(l - 8)
    return np.concatenate([np.kron(eight, np.eye(rest.shape[1])),
                           np.kron(volume, rest)])


def clifford_generators(l: int, copies: int = 1) -> np.ndarray:
    """The (l, m, m) array of J_1..J_l on ``copies`` direct sums of the
    irreducible module, checked to be skew and to meet the relations
    (:func:`clifford_relation_defect`) within ``CLIFFORD_RELATION_TOL``."""
    if l < 1:
        raise DomainError(f"l must be >= 1, got {l}")
    if copies < 1:
        raise DomainError("copies must be >= 1")
    # a fresh array; adding 0.0 turns the -0.0 of the products into 0.0
    gens = np.kron(np.eye(copies), _irreducible_generators(l)) + 0.0
    resid = max(np.abs(gens + gens.transpose(0, 2, 1)).max(),
                clifford_relation_defect(gens))
    if not resid <= CLIFFORD_RELATION_TOL:
        raise StructureError(f"Clifford relations violated for l={l} "
                             f"(residual {resid:.3e})")
    return gens


def build_heisenberg_type(j: np.ndarray) -> MetricLieAlgebra:
    """Two-step nilpotent algebra on v + z with <[V,W], Z_a> = <J_a V, W>.

    Basis order (V_1..V_m, Z_1..Z_k), ``j`` of shape (k, m, m).
    """
    return MetricLieAlgebra.from_tensor(
        damek_ricci_brackets(j, 1.0)[1:, 1:, 1:])


def build_damek_ricci(j: np.ndarray) -> MetricLieAlgebra:
    """Solvable extension with ad_H = id/2 on v and id on z.

    Basis order (H, V_1..V_m, Z_1..Z_k) with H at index 0.
    """
    return MetricLieAlgebra.from_tensor(damek_ricci_brackets(j, 1.0))


def build_real_hyperbolic(n: int) -> MetricLieAlgebra:
    """Algebra of real hyperbolic n-space, the Damek-Ricci one of m = 0."""
    if n < 2:
        raise DomainError("real hyperbolic space needs dimension >= 2")
    return build_damek_ricci(np.zeros((n - 1, 0, 0)))


def build_flat(dim: int) -> MetricLieAlgebra:
    """Abelian algebra (flat Euclidean factor)."""
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    return MetricLieAlgebra(dim, ())
