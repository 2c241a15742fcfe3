"""Clifford-module generators and the solvable algebras built from them.

The generators are real skew matrices J_1..J_l with J_a^2 = -id and
J_a J_b = -J_b J_a, acting on direct sums of an irreducible module whose
dimension follows the mod-8 periodicity table.  They define
Heisenberg-type two-step nilpotent algebras and their rank-one solvable
extensions (Damek-Ricci spaces), plus the constant-curvature and flat
reference builds.
"""

from dataclasses import dataclass

import numpy as np

from .config import CLIFFORD_RELATION_TOL, PRUNE_REL
from .errors import DomainError, StructureError
from .lie_metric import MetricLieAlgebra

__all__ = [
    "CliffordModule",
    "clifford_generators",
    "build_heisenberg_type",
    "build_damek_ricci",
    "build_real_hyperbolic",
    "build_flat",
]

_OMEGA = np.array([[0.0, -1.0], [1.0, 0.0]])
_SIGMA = np.array([[0.0, 1.0], [1.0, 0.0]])
_TAU = np.array([[1.0, 0.0], [0.0, -1.0]])

# quaternion multiplication table on basis (1, i, j, k):
# i*j = k, j*k = i, k*i = j
_QTABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _quaternion_mult_matrix(unit: int, side: str) -> np.ndarray:
    """Matrix of left or right multiplication by a basis quaternion."""
    m = np.zeros((4, 4))
    for col in range(4):
        key = (unit, col) if side == "left" else (col, unit)
        sign, row = _QTABLE[key]
        m[row, col] = sign
    return m


def _eight_dim_family() -> np.ndarray:
    """The seven anticommuting complex structures on R^8."""
    l_i = _quaternion_mult_matrix(1, "left")
    l_j = _quaternion_mult_matrix(2, "left")
    l_k = _quaternion_mult_matrix(3, "left")
    r_i = _quaternion_mult_matrix(1, "right")
    r_j = _quaternion_mult_matrix(2, "right")
    r_k = _quaternion_mult_matrix(3, "right")
    gens = [np.kron(_TAU, l_i), np.kron(_TAU, l_j), np.kron(_TAU, l_k),
            np.kron(_OMEGA, np.eye(4)),
            np.kron(_SIGMA, r_i), np.kron(_SIGMA, r_j), np.kron(_SIGMA, r_k)]
    return np.array(gens)


def _irreducible_generators(l: int) -> np.ndarray:
    if l == 1:
        return _OMEGA[np.newaxis]
    if l == 2:
        return np.array([_quaternion_mult_matrix(1, "left"),
                         _quaternion_mult_matrix(2, "left")])
    if l == 3:
        return np.array([_quaternion_mult_matrix(1, "left"),
                         _quaternion_mult_matrix(2, "left"),
                         _quaternion_mult_matrix(3, "left")])
    if l <= 7:
        return _eight_dim_family()[:l]
    if l == 8:
        seven = _eight_dim_family()
        eight = [np.kron(_TAU, g) for g in seven]
        eight.append(np.kron(_OMEGA, np.eye(8)))
        return np.array(eight)
    # mod-8 periodicity: volume element of the 8-family is symmetric,
    # squares to +id and anticommutes with it
    eight = _irreducible_generators(8)
    volume = np.linalg.multi_dot(list(eight))
    rest = _irreducible_generators(l - 8)
    d = rest.shape[1]
    gens = [np.kron(g, np.eye(d)) for g in eight]
    gens.extend(np.kron(volume, f) for f in rest)
    return np.array(gens)


@dataclass(frozen=True)
class CliffordModule:
    """l anticommuting skew complex structures on an m-dimensional module."""

    l: int
    m: int
    generators: np.ndarray   # shape (l, m, m)

    def relation_residual(self) -> float:
        """max deviation from J_a^2 = -id, J_a J_b + J_b J_a = 0, skewness."""
        worst = 0.0
        eye = np.eye(self.m)
        for a in range(self.l):
            ja = self.generators[a]
            worst = max(worst, np.abs(ja + ja.T).max())
            worst = max(worst, np.abs(ja @ ja + eye).max())
            for b in range(a + 1, self.l):
                jb = self.generators[b]
                worst = max(worst, np.abs(ja @ jb + jb @ ja).max())
        return float(worst)


def clifford_generators(l: int, copies: int = 1) -> CliffordModule:
    """Generators on ``copies`` direct sums of the irreducible module."""
    if l < 1:
        raise DomainError(f"l must be >= 1, got {l}")
    if copies < 1:
        raise DomainError("copies must be >= 1")
    gens = _irreducible_generators(l)
    if copies > 1:
        gens = np.array([np.kron(np.eye(copies), g) for g in gens])
    module = CliffordModule(l=l, m=gens.shape[1], generators=gens)
    resid = module.relation_residual()
    if resid > CLIFFORD_RELATION_TOL:
        raise StructureError(
            f"Clifford relations violated for l={l} (residual {resid:.3e})"
        )
    return module


def _heisenberg_triples(cm: CliffordModule, offset: int) -> list:
    """Brackets <[V_p, V_q], Z_a> = <J_a V_p, V_q> as sparse triples, with
    V_1..V_m, Z_1..Z_l at the indices ``offset`` .. ``offset + m + l - 1``."""
    m, l = cm.m, cm.l
    triples = []
    for p in range(m):
        for q in range(p + 1, m):
            for a in range(l):
                c = cm.generators[a][q, p]   # <J_a e_p, e_q>
                if abs(c) > PRUNE_REL:   # |c| <= 1: J_a is orthogonal
                    triples.append((offset + p, offset + q, offset + m + a, c))
    return triples


def build_heisenberg_type(cm: CliffordModule) -> MetricLieAlgebra:
    """Two-step nilpotent algebra on v + z with <[V,W], Z_a> = <J_a V, W>.

    Basis order (V_1..V_m, Z_1..Z_l).
    """
    return MetricLieAlgebra(cm.m + cm.l, tuple(_heisenberg_triples(cm, 0)))


def build_damek_ricci(cm: CliffordModule) -> MetricLieAlgebra:
    """Solvable extension with ad_H = id/2 on v and id on z.

    Basis order (H, V_1..V_m, Z_1..Z_l) with H at index 0.
    """
    m, l = cm.m, cm.l
    triples = [(0, 1 + p, 1 + p, 0.5) for p in range(m)]
    triples += [(0, 1 + m + a, 1 + m + a, 1.0) for a in range(l)]
    triples += _heisenberg_triples(cm, 1)
    return MetricLieAlgebra(1 + m + l, tuple(triples))


def build_real_hyperbolic(n: int) -> MetricLieAlgebra:
    """Algebra of real hyperbolic n-space: ad_H = id on an abelian z."""
    if n < 2:
        raise DomainError("real hyperbolic space needs dimension >= 2")
    triples = tuple((0, i, i, 1.0) for i in range(1, n))
    return MetricLieAlgebra(n, triples)


def build_flat(dim: int) -> MetricLieAlgebra:
    """Abelian algebra (flat Euclidean factor)."""
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    return MetricLieAlgebra(dim, ())
