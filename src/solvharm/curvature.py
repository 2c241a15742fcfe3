"""Left-invariant Riemannian geometry at the identity.

Connection coefficients come from the Koszul formula applied to
structure constants; curvature, Ricci, sectional curvatures, Jacobi
operators and the covariant derivative of R are then pure tensor
algebra.  Homogeneity makes values at the identity global.
"""

import math

import numpy as np

from .config import (DEFAULT_TOLS, GRAM_FLOOR_REL, RANK_REL, UNIT_VECTOR_TOL,
                     Tolerances)
from .errors import DomainError
from .lie_metric import (MetricLieAlgebra, StandardSolvableData, ad_matrix,
                         symmetric_skew_split)

__all__ = [
    "levi_civita",
    "curvature_tensor",
    "flow_operator",
    "ricci",
    "einstein_check",
    "sectional_curvature",
    "jacobi_operator_H",
    "central_frame_split",
    "central_jacobi_blocks",
    "nabla_R_norm",
    "curvature_norm",
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
    that buffer are the only n^4 arrays held at once: the peak is
    16 n^4 bytes (2 n^4 doubles) beside the n^3 connection, and R keeps
    8 n^4 of them.
    """
    n = g.dim
    buf = np.matmul(gamma.reshape(n * n, n), gamma)   # [i, (j, k), l]
    second = buf.reshape(n, n, n, n)
    r = second - second.transpose(1, 0, 2, 3)
    np.matmul(g.tensor.reshape(n * n, n), gamma.reshape(n, n * n),
              out=buf.reshape(n * n, n * n))          # [(i, j), (k, l)]
    r -= second
    return r


def flow_operator(g: MetricLieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """The stacked bracket operator -[T | 2 Gamma - T], shape (n, 2 n^2).

    For a velocity u, ``(u @ op).reshape(2, n, n)`` holds -ad_u and -c_u,
    c_u = 2 nabla_u - ad_u, with row j the image of e_j: the coefficients
    of the linearized geodesic flow of :func:`jacobi_flow.volume_density`
    from one matvec.  The sign is stored so the flow needs no negation.
    """
    n = g.dim
    t = g.tensor.reshape(n, n * n)
    op = np.empty((n, 2 * n * n))
    np.negative(t, out=op[:, :n * n])
    np.multiply(gamma.reshape(n, n * n), -2.0, out=op[:, n * n:])
    op[:, n * n:] += t
    return op


def ricci(r: np.ndarray) -> np.ndarray:
    """Ricci tensor Ric[j, k] = sum_i <R(e_i, e_j) e_k, e_i>."""
    return np.einsum("ijki->jk", r)


def curvature_norm(r: np.ndarray) -> float:
    return float(np.sqrt((r**2).sum()))


def einstein_check(g: MetricLieAlgebra, tols: Tolerances = DEFAULT_TOLS):
    """Whether Ric = c id; returns (is_einstein, c, residual).

    Ric is read off ``g.curvature``.  The Frobenius residual
    |Ric - c id| is compared with ``tols.einstein_residual`` times
    ``g.scale * g.scale``.
    """
    ric = ricci(g.curvature)
    c = float(np.trace(ric)) / g.dim
    residual = float(np.linalg.norm(ric - c * np.eye(g.dim)))
    return (residual <= tols.einstein_residual * g.scale * g.scale, c,
            residual)


def sectional_curvature(r: np.ndarray, x, y) -> float:
    """K(x, y) = <R(x,y)y, x> / (|x|^2 |y|^2 - <x,y>^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = (x @ x) * (y @ y) - (x @ y) ** 2
    # scale free; zero vectors fail
    if gram <= GRAM_FLOOR_REL * (x @ x) * (y @ y):
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
    if abs(np.linalg.norm(a_vec) - 1.0) > UNIT_VECTOR_TOL:
        raise DomainError("A must be a unit vector")
    # A perp [s,s]  <=>  no bracket has a component along A, measured
    # against the bracket scale s as the rank decisions are
    leak = np.abs(np.einsum("ijk,k->ij", alg.tensor, a_vec)).max()
    if leak > RANK_REL * alg.scale:
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
    eye = np.eye(d.h_vector.size)
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

    Reads ``g.connection`` and ``g.curvature``.  Write D_a for the skew
    matrix Gamma_l = gamma[l] acting on slot a of R[i, j, k, q]; then
    nabla_l R = -(D_1 + D_2 + D_3 + D_4) R.  R is antisymmetric in (i, j),
    so D_2 R is minus the (i, j) transpose of D_1 R, and pair symmetry
    makes D_3 R + D_4 R the pair swap of S_l = D_1 R + D_2 R:

        nabla_l R = -(S_l + S_l^T),   ^T swapping (i, j) with (k, q).

    S_l is antisymmetric in both pairs, so it is kept on the index pairs
    i < j and k < q only, an N x N matrix with N = n (n - 1) / 2, and
    |nabla_l R|^2 = 4 |S_l + S_l^T|^2 there.  Each l costs one BLAS
    product of Gamma_l with R on the columns k < q; the per-l buffers
    are allocated once, so memory stays O(n^4).  With N = n (n - 1) / 2,
    they are R on k < q and its product (n^2 N doubles each) and S_l with
    its sum buffer (N^2 doubles each): 8 n^3 (n - 1) + 4 n^2 (n - 1)^2
    bytes, about 12 n^4, on top of the 8 n^4 of R, so the peak is about
    20 n^4 bytes (2.5 n^4 doubles).
    """
    gamma, r = g.connection, g.curvature
    n = g.dim
    iu, ju = np.triu_indices(n, 1)
    upper, lower = iu * n + ju, ju * n + iu   # flat (i, j) and (j, i), i < j
    # R on the columns k < q, [m, (j, kq)]
    rh = np.take(r.reshape(n * n, n * n), upper, axis=1).reshape(n, -1)
    prod = np.empty(rh.shape)                 # D_1 R, [i, (j, kq)]
    by_row = prod.reshape(n * n, len(upper))  # [(i, j), kq]; a view
    s = np.empty((len(upper), len(upper)))    # S_l on i < j, k < q
    w = np.empty(s.shape)
    total = 0.0
    for gam in gamma:
        np.matmul(gam, rh, out=prod)
        # mode="clip" writes into out= directly; "raise" buffers a copy
        np.take(by_row, upper, axis=0, out=s, mode="clip")
        np.take(by_row, lower, axis=0, out=w, mode="clip")
        s -= w
        np.add(s, s.T, out=w)
        total += float(np.vdot(w, w))
    return math.sqrt(4.0 * total)
