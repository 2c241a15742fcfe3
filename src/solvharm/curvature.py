"""Left-invariant Riemannian geometry at the identity.

Connection coefficients come from the Koszul formula applied to
structure constants; curvature, sectional curvatures, Jacobi operators
and the covariant derivative of R are then pure tensor algebra.
Homogeneity makes values at the identity global.  Ric comes from the
brackets alone (:func:`ricci_from_brackets`) on every input, so the
curvature operator carries R only.  On an input that
:func:`h_type_certificate` certifies Damek-Ricci, |R| and |nabla R| have
closed forms (:func:`damek_ricci_norms`), so ``analyze`` forms neither
the curvature operator nor nabla R there.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .config import (CLIFFORD_RELATION_TOL, CURVATURE_BLOCK_BYTES,
                     DEFAULT_TOLS, GRAM_FLOOR_REL, RANK_REL, UNIT_VECTOR_TOL,
                     Tolerances)
from .errors import DomainError
from .lie_metric import (MetricLieAlgebra, StandardSolvableData, ad_matrix,
                         killing_form, symmetric_skew_split)

__all__ = [
    "levi_civita",
    "curvature_tensor",
    "curvature_operator",
    "flow_operator",
    "ricci_from_brackets",
    "einstein_check",
    "HTypeCertificate",
    "h_type_certificate",
    "damek_ricci_norms",
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

    The dense n^4 form, kept for the demos and as the test oracle of
    :func:`curvature_operator`, which is what ``analyze`` reads.
    R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
    - nabla_[e_i, e_j] e_k, with both terms BLAS products: the second
    covariant derivatives ``gamma[j, k, :] @ gamma[i]`` as n stacked
    products, the bracket term as one.  They share one buffer, so R and
    that buffer are the only n^4 arrays held at once: the peak is
    2 n^4 doubles beside the n^3 connection, and R keeps n^4 of them.
    """
    n = g.dim
    buf = np.matmul(gamma.reshape(n * n, n), gamma)   # [i, (j, k), l]
    second = buf.reshape(n, n, n, n)
    r = second - second.transpose(1, 0, 2, 3)
    np.matmul(g.tensor.reshape(n * n, n), gamma.reshape(n, n * n),
              out=buf.reshape(n * n, n * n))          # [(i, j), (k, l)]
    r -= second
    return r


def _block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each that fit ``CURVATURE_BLOCK_BYTES``, at
    least one."""
    return max(1, CURVATURE_BLOCK_BYTES // row_bytes)


def curvature_operator(g: MetricLieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """R as a symmetric operator on the 2-vectors, in one pass that never
    holds R.

    ``op[p(i, j), p(k, q)] = <R(e_i, e_j) e_k, e_q>`` over the index
    pairs i < j and k < q, numbered p(i, j) = j (j - 1) / 2 + i (by j,
    then i; ``np.tril_indices(n, -1)`` lists them as (j, i)): N x N with
    N = n (n - 1) / 2.  R is antisymmetric within each pair, so
    |R| = 2 |op|_F.

    One chunk of rows i at a time, X[i, j] = Gamma_j Gamma_i for every j
    is one BLAS product ``gamma.reshape(n * n, n) @ gamma[i0:i1]``.  Each
    Gamma_i is skew, so X[i, j]^T = Gamma_i Gamma_j, and
    R(e_i, e_j) = X - X^T - Gamma_[e_i, e_j], the bracket term a second
    product into X's buffer.  Row i of the chunk gives the pairs (j, i),
    j < i, as <R(e_j, e_i) e_k, e_q> = <R(e_i, e_j) e_q, e_k>.  A chunk
    is as many rows (n^3 doubles each, at least one) as fit
    ``config.CURVATURE_BLOCK_BYTES``, so the peak is the N^2 doubles of
    the operator, about n^4 / 4, and two chunk buffers.
    """
    n = g.dim
    jl, il = np.tril_indices(n, -1)           # the pairs i < j, as (j, i)
    swapped = jl * n + il                     # flat (q, k) of (k, q)
    op = np.empty((len(il), len(il)))
    chunk = min(n, _block_rows(8 * n ** 3))
    x, r = np.empty((2, chunk, n, n, n))
    for i0 in range(0, n, chunk):
        i1 = min(n, i0 + chunk)
        xc, rc = x[:i1 - i0], r[:i1 - i0]
        np.matmul(gamma.reshape(n * n, n), gamma[i0:i1],
                  out=xc.reshape(-1, n * n, n))
        np.subtract(xc, xc.transpose(0, 1, 3, 2), out=rc)
        np.matmul(g.tensor[i0:i1].reshape(-1, n), gamma.reshape(n, n * n),
                  out=xc.reshape(-1, n * n))
        rc -= xc
        for i in range(max(i0, 1), i1):
            # mode="clip" writes into out= directly; "raise" buffers a copy
            np.take(rc[i - i0, :i].reshape(i, n * n), swapped, axis=1,
                    out=op[i * (i - 1) // 2:i * (i + 1) // 2], mode="clip")
    return op


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


def curvature_norm(g: MetricLieAlgebra) -> float:
    """|R|, twice the Frobenius norm of ``g.curvature_operator``."""
    return 2.0 * float(np.linalg.norm(g.curvature_operator))


def ricci_from_brackets(g: MetricLieAlgebra) -> np.ndarray:
    """Ric from the brackets alone (Besse, *Einstein Manifolds*, 7.38):

        Ric(X, Y) = -1/2 sum_i <[X, e_i], [Y, e_i]> - 1/2 B(X, Y)
                    + 1/4 sum_ij <[e_i, e_j], X> <[e_i, e_j], Y>
                    - 1/2 (<[Z, X], Y> + <[Z, Y], X>),

    with B the Killing form and <Z, W> = trace ad_W.  The three sums are
    n x n^2 BLAS products of the bracket tensor, O(n^4) in time and n^3
    doubles of memory; no connection or curvature is formed.
    """
    n = g.dim
    t = g.tensor
    by_first = t.reshape(n, n * n)            # [x, (i, k)] = <[e_x, e_i], e_k>
    by_last = t.reshape(n * n, n)             # [(i, j), x] = <[e_i, e_j], e_x>
    ric = -0.5 * (by_first @ by_first.T + killing_form(g))
    ric += 0.25 * (by_last.T @ by_last)
    mean = np.trace(t, axis1=1, axis2=2)      # <Z, e_w> = trace ad_(e_w)
    z_term = np.tensordot(mean, t, axes=1)    # [x, y] = <[Z, e_x], e_y>
    ric -= 0.5 * (z_term + z_term.T)
    return ric


def einstein_check(g: MetricLieAlgebra, tols: Tolerances = DEFAULT_TOLS):
    """Whether Ric = c id; returns (is_einstein, c, residual).

    Ric is :func:`ricci_from_brackets`, on every input, and c its mean
    eigenvalue.  The Frobenius residual |Ric - c id| is compared with
    ``tols.einstein_residual`` times ``g.scale * g.scale``.  Ric - c id
    is traceless, so |Ric - c' id| = hypot(residual, sqrt(n) (c - c'))
    for any other c'.
    """
    ric = ricci_from_brackets(g)
    c = float(np.trace(ric)) / g.dim
    residual = float(np.linalg.norm(ric - c * np.eye(g.dim)))
    return (residual <= tols.einstein_residual * g.scale * g.scale, c,
            residual)


class HTypeCertificate(NamedTuple):
    """An input that :func:`h_type_certificate` certified Damek-Ricci.

    ad_H = lam (1/2 on v, 1 on z), m = dim v, k = dim z, and ``pq`` is
    the sum over a < b < c of p_abc q_abc, where p_abc and q_abc count
    the eigenvalues +lam^3 and -lam^3 of J_a J_b J_c.
    """

    lam: float
    m: int
    k: int
    pq: int


def h_type_certificate(g: MetricLieAlgebra, data: StandardSolvableData,
                       tols: Tolerances = DEFAULT_TOLS):
    """The :class:`HTypeCertificate` of ``g``, or None if ``g`` is not a
    Damek-Ricci algebra in the frame of its standard decomposition.

    The input's brackets are read in ``data.basis`` (H, v, z), with lam
    the mean ad_H eigenvalue on z.  Certified means both of:

    * they are the Damek-Ricci brackets of their own maps
      J_a = j(Z_a) on v: [H, V] = lam V / 2, [H, Z] = lam Z and
      [V, W] = sum_a <J_a V, W> Z_a, every other entry zero, within
      ``tols.eigen_merge * lam`` (the bound that merges ad_H
      eigenvalues);
    * the J_a satisfy the H-type relations
      J_a J_b + J_b J_a = -2 delta_ab lam^2 id over the orthonormal
      z-basis, within ``CLIFFORD_RELATION_TOL * lam^2``.

    m = 0 is real hyperbolic space.  On a certified input each
    J_a J_b J_c (a < b < c) is symmetric and squares to lam^6 id, so its
    trace is (p - q) lam^3 with p + q = m: the trace, rounded, gives
    p_abc q_abc exactly.  The checks run on the brackets times 2^-e, the
    power of two fixed with ``g.scale``, which is exact, so lam^2 and
    lam^3 neither over- nor underflow at any scale the algebra loads
    at.  The frame change is O(n^4) and the relations O(k^2 m^3);
    ``data.algebra`` is not built.
    """
    m, k = len(data.v_indices), len(data.z_indices)
    v, z = slice(1, 1 + m), slice(1 + m, None)   # H is index 0
    n, basis = g.dim, data.basis
    # t[a, b, c] = <[B_a, B_b], B_c> for the columns B of the basis
    t = (basis.T @ (g.tensor @ basis).reshape(n, n * n)).reshape(n, n, n)
    t = np.ldexp(np.matmul(basis.T, t), -g._exponent)
    lam = float(np.trace(t[0, z, z])) / k
    model = np.zeros_like(t)
    model[0, v, v] = 0.5 * lam * np.eye(m)
    model[0, z, z] = lam * np.eye(k)
    model[:, 0] = -model[0]
    model[v, v, z] = t[v, v, z]
    if not np.abs(t - model).max() <= tols.eigen_merge * lam:
        return None
    j = t[v, v, z].transpose(2, 1, 0)        # J_a[q, p] = <[V_p, V_q], Z_a>
    prods = np.matmul(j[:, np.newaxis], j[np.newaxis])   # [a, b] = J_a J_b
    relation = prods + prods.transpose(1, 0, 2, 3)
    relation[np.arange(k), np.arange(k)] += 2.0 * lam * lam * np.eye(m)
    if not np.abs(relation).max(initial=0.0) <= (CLIFFORD_RELATION_TOL
                                                 * lam * lam):
        return None
    # tr J_a J_b J_c / lam^3 = p_abc - q_abc over a < b < c
    traces = np.tensordot(prods, j.transpose(0, 2, 1), axes=([2, 3], [1, 2]))
    triples = tuple(np.array(list(itertools.combinations(range(k), 3)),
                             dtype=np.intp).reshape(-1, 3).T)
    split = np.rint(traces[triples] / (lam * lam * lam)).astype(np.int64)
    pq = int(((m * m - split * split) // 4).sum())
    return HTypeCertificate(math.ldexp(lam, g._exponent), m, k, pq)


def damek_ricci_norms(cert: HTypeCertificate):
    """(|R|, |nabla R|) of a certified input, in closed form from the
    curvature of Damek-Ricci spaces (Berndt, Tricerri and Vanhecke,
    LNM 1598, ch. 4):

        |R|^2       = lam^4 [(3k + 1) m^2 / 8 + (3k^2 + 20k + 1) m / 8
                             + 2k (k + 1)],
        |nabla R|^2 = lam^6 [(3/2) k (k - 1) (3 - k) m (m + 2)
                             + 36 sum_(a<b<c) p_abc q_abc].

    Both brackets are exact integers (the first over 8), so the second
    is exactly 0 on the spaces of the J^2 condition (Cowling, Dooley,
    Koranyi and Ricci, Adv. Math. 87, 1991), the symmetric ones: k <= 1,
    k = 3 with |p - q| = m, and k = 7 with m = 8.
    """
    lam, m, k, pq = cert
    r_sq = (3 * k + 1) * m * m + (3 * k * k + 20 * k + 1) * m \
        + 16 * k * (k + 1)
    nr_sq = 3 * k * (k - 1) // 2 * (3 - k) * m * (m + 2) + 36 * pq
    return lam * lam * math.sqrt(r_sq / 8), lam * lam * lam * math.sqrt(nr_sq)


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

    Reads ``g.connection`` and ``g.curvature_operator``.  Write D_a for
    the skew matrix Gamma_l = gamma[l] acting on slot a of R[i, j, k, q];
    then nabla_l R = -(D_1 + D_2 + D_3 + D_4) R.  R is antisymmetric in
    (i, j), so D_2 R is minus the (i, j) transpose of D_1 R, and pair
    symmetry makes D_3 R + D_4 R the pair swap of S_l = D_1 R + D_2 R:

        nabla_l R = -(S_l + S_l^T),   ^T swapping (i, j) with (k, q).

    S_l is antisymmetric in both pairs, so it is kept on the index pairs
    i < j and k < q only, an N x N matrix with N = n (n - 1) / 2, and
    |nabla_l R|^2 = 4 |S_l + S_l^T|^2 there.  The sum is formed
    explicitly: the expansion 2 |S_l|^2 + 2 tr(S_l S_l) cancels
    catastrophically on symmetric spaces, where it is zero.

    R on the columns k < q is gathered once from the operator, signed,
    as rh[m, (j, Q)] = R[m, j, Q] (n^2 N doubles), and S_l (N^2 doubles)
    is formed from D_1 R = ``Gamma_l @ rh``: its rows (i, j) minus its
    rows (j, i).  The product is taken one block of columns j at a time,
    sized to ``config.CURVATURE_BLOCK_BYTES``.  With the pairs numbered
    by j, then i, column j's rows c > j start the pairs (j, c) and its
    rows i < j complete the contiguous range of pairs (i, j), each from
    a strided view.  Up to dim 22 the product is one block, and S_l two
    row gathers.  S_l + S_l^T is summed one block of rows at a time, so
    the peak is the operator, rh and S_l, about n^4 doubles, and one
    block.
    """
    gamma, op = g.connection, g.curvature_operator
    n = g.dim
    jl, il = np.tril_indices(n, -1)           # the pairs i < j, as (j, i)
    npairs = len(il)
    if not npairs:   # dim 1: no 2-vectors, R = 0
        return 0.0
    pair = np.zeros((n, n), dtype=np.intp)
    pair[il, jl] = pair[jl, il] = np.arange(npairs)
    # R[m, j, Q] is op[p(m, j), Q] for m < j and -op[p(j, m), Q] for m > j
    rh = np.take(op, pair.ravel(), axis=0)
    rh.reshape(n, n, npairs)[...] *= np.sign(
        np.subtract.outer(np.arange(n), np.arange(n))).T[:, :, np.newaxis]
    rh = rh.reshape(n, n * npairs)
    width = min(n, _block_rows(8 * n * npairs))    # columns j per block
    prod = np.empty((n, width * npairs))
    s = np.empty((npairs, npairs))            # S_l on the pairs
    if width == n:
        upper, lower = il * n + jl, jl * n + il   # flat (i, j) and (j, i)
        w = np.empty((npairs, npairs))
    else:
        w = prod
        # the pairs (j, c), c > j
        starts = [np.arange(j + 1, n) * np.arange(j, n - 1) // 2 + j
                  for j in range(n)]
    height = w.size // npairs
    total = 0.0
    for gam in gamma:
        for j0 in range(0, n, width):
            j1 = min(n, j0 + width)
            part = prod[:, :(j1 - j0) * npairs]
            np.matmul(gam, rh[:, j0 * npairs:j1 * npairs], out=part)
            if width == n:
                by_row = part.reshape(n * n, npairs)
                # mode="clip" writes into out= directly; "raise" buffers
                np.take(by_row, upper, axis=0, out=s, mode="clip")
                np.take(by_row, lower, axis=0, out=w, mode="clip")
                s -= w
            else:
                by_column = part.reshape(n, j1 - j0, npairs)
                for j in range(j0, j1):
                    s[starts[j]] = by_column[j + 1:, j - j0]
                for j in range(j0, j1):
                    pairs = s[j * (j - 1) // 2:j * (j + 1) // 2]
                    np.subtract(by_column[:j, j - j0], pairs, out=pairs)
        for p0 in range(0, npairs, height):
            p1 = min(npairs, p0 + height)
            rows = w.ravel()[:(p1 - p0) * npairs].reshape(p1 - p0, npairs)
            np.add(s[p0:p1], s[:, p0:p1].T, out=rows)
            total += float(np.vdot(rows, rows))
    return math.sqrt(4.0 * total)
