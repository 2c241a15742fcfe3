"""Left-invariant Riemannian geometry at the identity.

Connection coefficients come from the Koszul formula applied to
structure constants; curvature, Ricci, sectional curvatures, Jacobi
operators and the covariant derivative of R are then pure tensor
algebra.  Homogeneity makes values at the identity global.
"""

import math

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import DomainError
from .lie_metric import (MetricLieAlgebra, StandardSolvableData, ad_matrix,
                         scale_squared, symmetric_skew_split)

__all__ = [
    "levi_civita",
    "curvature_tensor",
    "ricci",
    "einstein_check",
    "sectional_curvature",
    "jacobi_operator_H",
    "central_frame_split",
    "central_jacobi_blocks",
    "nabla_R_norm",
    "curvature_norm",
    "scale_squared",
]


def levi_civita(g: MetricLieAlgebra) -> np.ndarray:
    """Connection coefficients Gamma[i, j, :] = nabla_{e_i} e_j (Koszul)."""
    t = g.tensor
    return 0.5 * (t - np.einsum("jki->ijk", t) - np.einsum("ikj->ijk", t))


def curvature_tensor(g: MetricLieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """R[i, j, k, :] = R(e_i, e_j) e_k for the given connection.

    R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
    - nabla_[e_i, e_j] e_k, with both terms BLAS products: the second
    covariant derivatives ``gamma[j, k, :] @ gamma[i]`` as n stacked
    products, the bracket term as one.  They share one buffer, so R and
    that buffer are the only n^4 arrays held at once.
    """
    n = g.dim
    buf = np.matmul(gamma.reshape(n * n, n), gamma)   # [i, (j, k), l]
    second = buf.reshape(n, n, n, n)
    r = second - second.transpose(1, 0, 2, 3)
    np.matmul(g.tensor.reshape(n * n, n), gamma.reshape(n, n * n),
              out=buf.reshape(n * n, n * n))          # [(i, j), (k, l)]
    r -= second
    return r


def ricci(r: np.ndarray) -> np.ndarray:
    """Ricci tensor Ric[j, k] = sum_i <R(e_i, e_j) e_k, e_i>."""
    return np.einsum("ijki->jk", r)


def curvature_norm(r: np.ndarray) -> float:
    return float(np.sqrt((r**2).sum()))


def einstein_check(g: MetricLieAlgebra, tols: Tolerances = DEFAULT_TOLS):
    """Whether Ric = c id; returns (is_einstein, c, residual).

    Ric is read off ``g.curvature``.  The Frobenius residual
    |Ric - c id| is compared with ``tols.einstein_residual`` times
    :func:`scale_squared`.
    """
    ric = ricci(g.curvature)
    c = float(np.trace(ric)) / g.dim
    residual = float(np.linalg.norm(ric - c * np.eye(g.dim)))
    return residual <= tols.einstein_residual * scale_squared(g), c, residual


def sectional_curvature(r: np.ndarray, x, y) -> float:
    """K(x, y) = <R(x,y)y, x> / (|x|^2 |y|^2 - <x,y>^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = (x @ x) * (y @ y) - (x @ y) ** 2
    if gram <= 1e-12 * max(1.0, (x @ x) * (y @ y)):
        raise DomainError("sectional curvature needs a nondegenerate plane")
    num = np.einsum("i,j,k,ijkl,l->", x, y, y, r, x)
    return float(num / gram)


def jacobi_operator_H(g, a_vec) -> np.ndarray:
    """Jacobi operator R(. , A)A = -D_A^2 - [D_A, S_A] for A perp [s, s].

    ``g`` may be a :class:`MetricLieAlgebra` or a
    :class:`StandardSolvableData` (its adapted algebra is used).
    """
    alg = g.algebra if isinstance(g, StandardSolvableData) else g
    a_vec = np.asarray(a_vec, dtype=float)
    if abs(np.linalg.norm(a_vec) - 1.0) > 1e-10:
        raise DomainError("A must be a unit vector")
    # A perp [s,s]  <=>  no bracket has a component along A
    leak = np.abs(np.einsum("ijk,k->ij", alg.tensor, a_vec)).max()
    if leak > 1e-10:
        raise DomainError("A is not orthogonal to the derived algebra")
    d, s = symmetric_skew_split(ad_matrix(a_vec, alg))
    return -d @ d - (d @ s - s @ d)


def central_frame_split(d: StandardSolvableData):
    """Frame data of the geodesic tangent to the canonical top eigenvector Z.

    The adapted basis of ``d`` already is this frame (see
    :class:`StandardSolvableData`), so the split is read off it.  Returns
    ``(mus, z_perp_cols, rho_stars, kernel_cols, pairs, pair_cols)``:
    ``mus``, ``rho_stars`` and ``pairs`` are :meth:`frame_factor_data`,
    and the column blocks are identity columns of the adapted basis: the
    z-block except Z (ad_H eigenvalues ``mus``), the kernel of j(Z) in v
    (``rho_stars``), and the pair planes (V_i, ~V_i) in v (``pairs``).
    """
    mus, rho_stars, pairs = d.frame_factor_data()
    eye = np.eye(d.algebra.dim)
    z_idx, v_idx = list(d.z_indices), list(d.v_indices)
    k = len(rho_stars)
    return (mus, eye[:, z_idx[:-1]], rho_stars, eye[:, v_idx[:k]],
            pairs, eye[:, v_idx[k:]])


def central_jacobi_blocks(mus, rho_stars, pairs, t: float) -> np.ndarray:
    """Jacobi operator R(t) on the frame (xi, Z*_j, V*_k, V_i, ~V_i).

    The first slot is the parallel unit normal inside the totally
    geodesic H-Z plane (constant curvature -1); the remaining blocks are
    the closed forms of the operator along the central geodesic, 1x1 for
    the center and kernel slots and 2x2 for each pair, written into one
    zero matrix.
    """
    s, c = np.sinh(t), np.cosh(t)
    singles = np.concatenate([np.atleast_1d(mus),
                              np.atleast_1d(rho_stars)]).astype(float)
    rho, theta = np.asarray(pairs, dtype=float).reshape(-1, 2).T
    size = 1 + len(singles) + 2 * len(rho)
    op = np.zeros((size, size))
    op[0, 0] = -1.0
    d = np.arange(1, 1 + len(singles))
    op[d, d] = -(singles + s * s * singles * singles) / (c * c)
    p = np.arange(1 + len(singles), size, 2)
    op[p, p] = (theta * theta / 4.0 - rho - s * s * rho * rho) / (c * c)
    op[p + 1, p + 1] = (theta * theta / 4.0 - (1.0 - rho)
                        - s * s * (1.0 - rho) ** 2) / (c * c)
    op[p, p + 1] = op[p + 1, p] = s * theta * (rho - 0.5) / (c * c)
    return op


def nabla_R_norm(g: MetricLieAlgebra) -> float:
    """Frobenius norm of nabla R; zero iff the space is locally symmetric.

    Reads ``g.connection`` and ``g.curvature``.  The square norm is
    accumulated one derivative index l at a time, so memory stays O(n^4):

        (nabla_l R)(e_i, e_j) e_k = nabla_l (R(e_i, e_j) e_k)
            - R(nabla_l e_i, e_j) e_k - R(e_i, nabla_l e_j) e_k
            - R(e_i, e_j) nabla_l e_k,

    each term a BLAS product of R with the matrix Gamma_l = gamma[l].
    R is antisymmetric in (i, j), so the third term is minus the (i, j)
    transpose of the second.
    """
    gamma, r = g.connection, g.curvature
    n = g.dim
    by_first = r.reshape(n, n ** 3)           # [m, (j, k, p)]
    by_third = r.reshape(n * n, n, n)         # [(i, j), m, p]
    acc = np.empty(r.shape)                   # nabla_l R
    buf = np.empty(r.shape)    # one term at a time; C order, so the
                               # reshaped out= targets are views of it
    total = 0.0
    for gam in gamma:
        np.matmul(r, gam, out=acc)
        np.matmul(gam, by_first, out=buf.reshape(n, n ** 3))
        acc -= buf
        acc += buf.transpose(1, 0, 2, 3)
        np.matmul(gam, by_third, out=buf.reshape(n * n, n, n))
        acc -= buf
        total += float(np.vdot(acc, acc))
    return math.sqrt(total)
