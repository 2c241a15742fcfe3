"""Metric Lie algebras as structure constants in an orthonormal basis.

The inner product is *always* the identity in the stored basis; a
different left-invariant metric is represented by changing the structure
constants through an orthogonalizing change of basis.  On top of the
bracket algebra this module provides derived series, centers, the j-map
of a two-step nilpotent part and the orthogonal standard decomposition
``s = <H> + v + z`` with its spectral data, which drives all the
geodesic and rigidity machinery downstream.
"""

import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ANTISYMMETRY_REL, DEFAULT_TOLS, Tolerances
from .errors import DimensionError, NotStandardError, StructureError
from .numerics import as_square, eigenvalues

__all__ = [
    "MetricLieAlgebra",
    "StandardSolvableData",
    "JMap",
    "GrowthType",
    "bracket",
    "ad_matrix",
    "symmetric_skew_split",
    "derived_algebra",
    "center_of",
    "nilpotency_class",
    "subalgebra",
    "standard_decomposition",
    "extract_jmap",
    "jmap_from_split",
    "pair_decomposition",
    "growth_type",
    "scale_squared",
    "algebra_to_dict",
    "algebra_from_dict",
]

_RANK_TOL = 1e-10
_PRUNE_TOL = 1e-14


@dataclass(frozen=True)
class MetricLieAlgebra:
    """Real Lie algebra with ``[e_i, e_j] = sum_k c_ijk e_k`` and <,> = id.

    ``structure_constants`` is given as rows ``(i, j, k, c)`` (any
    sequence of 4-sequences, or an ``(m, 4)`` array) with integer indices
    ``0 <= i < j < dim`` and ``0 <= k < dim``, and is stored as a tuple of
    ``(int, int, int, float)`` quadruples in the given order; antisymmetry
    is implicit in the storage, and a repeated ``(i, j, k)`` adds up.
    The rows are parsed once as an array and accumulated into the
    bracket tensor by ``np.add.at`` / ``np.subtract.at``, which keep the
    row order.  A row of other than 4 entries, or an index that is not a
    finite integer, raises :class:`StructureError`; an index out of range
    raises :class:`DimensionError`.  Construction validates the Jacobi
    identity within ``jacobi_tol`` times the sum of squares of the
    structure constants, so that rescaling the metric does not change
    the verdict.  The algebras derived from this one (rescaled,
    subalgebras, the adapted basis of the standard decomposition)
    inherit ``jacobi_tol``.
    """

    dim: int
    structure_constants: tuple = ()
    _tensor: np.ndarray = field(repr=False, compare=False, default=None)
    jacobi_tol: float = field(repr=False, compare=False,
                              default=DEFAULT_TOLS.jacobi_identity)

    def __post_init__(self):
        if self.dim <= 0:
            raise DimensionError("algebra dimension must be positive")
        try:
            rows = np.asarray(self.structure_constants, dtype=float)
        except (TypeError, ValueError) as exc:
            raise StructureError(f"structure constants must be rows "
                                 f"(i, j, k, c) of numbers: {exc}") from exc
        if rows.shape == (0,):
            rows = rows.reshape(0, 4)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise StructureError(
                "structure constants must be rows (i, j, k, c)")
        ijk = rows[:, :3]
        i, j, k = ijk.T
        whole = (np.isfinite(ijk) & (ijk == np.round(ijk))).all(axis=1)
        in_range = (0 <= i) & (i < j) & (j < self.dim) & (0 <= k) \
            & (k < self.dim)
        for ok, error, what in (
                (whole, StructureError, "has a non-integer index"),
                (in_range, DimensionError,
                 f"is out of range for dim {self.dim}")):
            if not ok.all():
                row = list(self.structure_constants[int(np.argmin(ok))])
                raise error(f"structure constant {row} {what}")
        i, j, k = ijk.astype(np.intp).T
        c = rows[:, 3]
        tensor = np.zeros((self.dim, self.dim, self.dim))
        np.add.at(tensor, (i, j, k), c)
        np.subtract.at(tensor, (j, i, k), c)
        object.__setattr__(self, "structure_constants", tuple(zip(
            i.tolist(), j.tolist(), k.tolist(), c.tolist())))
        object.__setattr__(self, "_tensor", tensor)
        resid = self.jacobi_residual()
        bound = self.jacobi_tol * float((tensor ** 2).sum())
        if not resid <= bound:   # NaN brackets fail too
            raise StructureError(f"Jacobi identity violated: residual "
                                 f"{resid:.3e} > {bound:.3e}")

    @classmethod
    def from_tensor(cls, tensor, prune: float = _PRUNE_TOL,
                    jacobi_tol: float = DEFAULT_TOLS.jacobi_identity
                    ) -> "MetricLieAlgebra":
        """Build from a full bracket tensor ``T[i, j, :] = [e_i, e_j]``.

        Entries at most ``prune`` times max|T| are dropped, so the
        triples kept do not depend on the scale of the metric.
        """
        t = np.asarray(tensor, dtype=float)
        n = t.shape[0]
        if t.shape != (n, n, n):
            raise DimensionError(f"bracket tensor must be cubic, got {t.shape}")
        top = np.abs(t).max(initial=0.0)
        defect = np.abs(t + np.swapaxes(t, 0, 1)).max(initial=0.0)
        if defect > ANTISYMMETRY_REL * top:
            raise StructureError("bracket tensor is not antisymmetric")
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)[:, :, None]
        # (i, j, k) in row-major order
        idx = np.argwhere(upper & (np.abs(t) > prune * top))
        rows = np.column_stack([idx, t[tuple(idx.T)]])
        return cls(n, rows, jacobi_tol=jacobi_tol)

    @property
    def tensor(self) -> np.ndarray:
        return self._tensor

    # computed on first use and shared by every consumer of this instance;
    # one that reads only Gamma never forms the n^4 tensor R

    @cached_property
    def connection(self) -> np.ndarray:
        """Gamma of :func:`curvature.levi_civita`, read-only."""
        from . import curvature   # curvature imports this module
        gamma = curvature.levi_civita(self)
        gamma.flags.writeable = False
        return gamma

    @cached_property
    def curvature(self) -> np.ndarray:
        """R of :func:`curvature.curvature_tensor` for :attr:`connection`,
        read-only."""
        from . import curvature
        r = curvature.curvature_tensor(self, self.connection)
        r.flags.writeable = False
        return r

    @cached_property
    def flow_operator(self) -> np.ndarray:
        """The stacked bracket operator of :func:`curvature.flow_operator`
        for :attr:`connection`, read-only."""
        from . import curvature
        op = curvature.flow_operator(self, self.connection)
        op.flags.writeable = False
        return op

    def jacobi_residual(self) -> float:
        """max norm of Jac(e_i, e_j, e_k) over all basis triples.

        ``E[i, j, k, :] = [[e_i, e_j], e_k]`` is one BLAS product, and the
        cyclic sum is accumulated into one more n^4 array, so at most two
        are held at once.
        """
        t = self._tensor
        n = self.dim
        e = (t.reshape(n * n, n) @ t.reshape(n, n * n)).reshape(n, n, n, n)
        jac = e + e.transpose(2, 0, 1, 3)    # E[i,j,k] + E[j,k,i]
        jac += e.transpose(1, 2, 0, 3)       # + E[k,i,j]
        np.square(jac, out=jac)
        return math.sqrt(float(jac.sum(axis=-1).max()))

    def rescaled(self, factor: float) -> "MetricLieAlgebra":
        """Algebra of the metric scaled so all brackets pick up ``factor``."""
        return MetricLieAlgebra.from_tensor(self._tensor * factor,
                                            jacobi_tol=self.jacobi_tol)


def bracket(x, y, g: MetricLieAlgebra) -> np.ndarray:
    """Lie bracket [x, y] by structure-constant contraction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (g.dim,) or y.shape != (g.dim,):
        raise DimensionError(f"vectors must have shape ({g.dim},)")
    return np.einsum("i,j,ijk->k", x, y, g.tensor)


def ad_matrix(x, g: MetricLieAlgebra) -> np.ndarray:
    """Matrix of ad_x = [x, .] in the orthonormal basis."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.dim,):
        raise DimensionError(f"vector must have shape ({g.dim},)")
    return np.einsum("i,ijk->kj", x, g.tensor)


def symmetric_skew_split(m):
    """Split a square matrix into symmetric and skew parts (D, S)."""
    a = as_square(m)
    d = 0.5 * (a + a.T)
    return d, a - d


def scale_squared(g: MetricLieAlgebra) -> float:
    """s^2, the sum of squares of the structure constants.

    Curvature scales as s^2 when the metric is rescaled, and no
    orthogonal change of basis moves s^2, so verdicts compare curvature
    with tolerances times s^2, and bracket-derived quantities with
    tolerances times s.
    """
    return float((g.tensor ** 2).sum())


def _bracket_scale(g: MetricLieAlgebra) -> float:
    return math.sqrt(scale_squared(g))


def _orthonormal_span(columns: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given column set.

    Singular values above ``_RANK_TOL * scale`` count as rank; ``scale`` is
    the size of the entries' source (1 for orthonormal columns, the
    bracket scale for columns made of structure constants).
    """
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > _RANK_TOL * scale))
    return u[:, :rank]


def _null_space(mat: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``mat``, with rank
    decided as in :func:`_orthonormal_span`."""
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    # V is complete in the reduced SVD unless ``mat`` is wide; the full U
    # of a tall matrix (rows^2 doubles) is never read
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s > _RANK_TOL * scale))
    return vt[rank:].T


def derived_algebra(g: MetricLieAlgebra) -> np.ndarray:
    """Orthonormal basis (columns) of [g, g]."""
    cols = g.tensor.reshape(g.dim * g.dim, g.dim).T
    return _orthonormal_span(cols, _bracket_scale(g))


def center_of(g: MetricLieAlgebra) -> np.ndarray:
    """Orthonormal basis (columns) of {z : [z, x] = 0 for all x}."""
    # stack the maps x -> [x, e_j] over all j
    mat = g.tensor.transpose(1, 2, 0).reshape(g.dim * g.dim, g.dim)
    return _null_space(mat, _bracket_scale(g))


def subalgebra(g: MetricLieAlgebra, basis: np.ndarray,
               tol: float = 1e-10) -> MetricLieAlgebra:
    """Restriction of ``g`` to the span of orthonormal ``basis`` columns.

    Raises :class:`StructureError` when the span is not closed under the
    bracket within ``tol``.
    """
    b = np.asarray(basis, dtype=float)
    r = b.shape[1]
    tensor = np.zeros((r, r, r))
    for a in range(r):
        for c in range(a + 1, r):
            w = bracket(b[:, a], b[:, c], g)
            coeffs = b.T @ w
            leak = np.linalg.norm(w - b @ coeffs)
            if leak > tol * max(1.0, np.linalg.norm(w)):
                raise StructureError(
                    f"span is not a subalgebra: bracket leaks {leak:.3e}"
                )
            tensor[a, c] = coeffs
            tensor[c, a] = -coeffs
    return MetricLieAlgebra.from_tensor(tensor, jacobi_tol=g.jacobi_tol)


def nilpotency_class(g: MetricLieAlgebra):
    """Length of the lower central series, or ``None`` if not nilpotent."""
    current = np.eye(g.dim)
    scale = _bracket_scale(g)
    step = 0
    while current.shape[1] > 0:
        step += 1
        # images[k, (i, a)] = [e_i, current[:, a]]_k
        images = np.einsum("ijk,ja->kia", g.tensor, current)
        nxt = _orthonormal_span(images.reshape(g.dim, -1), scale)
        if nxt.shape[1] >= current.shape[1]:
            return None
        current = nxt
    return step


class GrowthType(enum.Enum):
    EXPONENTIAL = "exponential"
    SUBEXPONENTIAL = "subexponential"


def growth_type(g: MetricLieAlgebra, samples: int = 64, seed: int = 0,
                tols: Tolerances = DEFAULT_TOLS) -> GrowthType:
    """Volume-growth type via the spectra of sampled ad_X.

    Subexponential iff every tested ad_X (all basis vectors plus random
    unit combinations) has only purely imaginary eigenvalues: real parts
    at most ``tols.growth_real_part`` times the bracket scale, so
    rescaling the metric does not change the type.
    """
    floor = tols.growth_real_part * _bracket_scale(g)
    rng = np.random.default_rng(seed)
    candidates = list(np.eye(g.dim))
    for _ in range(samples):
        v = rng.standard_normal(g.dim)
        candidates.append(v / np.linalg.norm(v))
    for x in candidates:
        spec = eigenvalues(ad_matrix(x, g))
        if np.abs(spec.real).max() > floor:
            return GrowthType.EXPONENTIAL
    return GrowthType.SUBEXPONENTIAL


# ---------------------------------------------------------------------------
# standard decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardSolvableData:
    """Spectral data of the orthogonal split s = <H> + v + z.

    The wrapped ``algebra`` is renormalized (top ad_H eigenvalue 1) and
    rebuilt in an adapted orthonormal basis: index 0 is H, then the
    v-block (kernel vectors of j(Z) first, then 2-dimensional pair
    blocks (V_i, j(Z)V_i / theta_i)), then the z-block with ad_H
    eigenvalues ascending, so the last basis vector is the canonical top
    eigenvector Z.  This basis is the central frame of Z: along the
    geodesic tangent to Z the frame slots are its identity columns, with
    the eigenvalues ``mu`` (all but Z's), ``rho_star`` and ``pairs``
    (see :func:`curvature.central_frame_split`).
    """

    algebra: MetricLieAlgebra
    h_index: int
    v_indices: tuple
    z_indices: tuple
    mu: np.ndarray          # all ad_H eigenvalues on z, ascending
    rho_star: np.ndarray    # ad_H eigenvalues on ker j(Z) in v
    pairs: np.ndarray       # rows (rho_i, theta_i) for the 2x2 blocks

    @property
    def trace_ad_h(self) -> float:
        return float(self.mu.sum() + self.rho_star.sum() + len(self.pairs))

    @property
    def h_vector(self) -> np.ndarray:
        v = np.zeros(self.algebra.dim)
        v[self.h_index] = 1.0
        return v

    @property
    def z_top_vector(self) -> np.ndarray:
        """Canonical unit eigenvector Z for the top eigenvalue 1."""
        v = np.zeros(self.algebra.dim)
        v[self.z_indices[-1]] = 1.0
        return v

    def ad_h(self) -> np.ndarray:
        return ad_matrix(self.h_vector, self.algebra)

    def frame_factor_data(self):
        """Spectral factors seen along the canonical central geodesic.

        Returns ``(mu_frame, rho_star, pairs)`` where ``mu_frame`` drops
        the top eigenvalue (the Z direction itself, last in ascending
        ``mu``).
        """
        return self.mu[:-1].copy(), self.rho_star.copy(), self.pairs.copy()


@dataclass(frozen=True)
class JMap:
    """Skew maps j(Z_a) on v defined by <j(Z)V, W> = <[V, W], Z>."""

    generators: np.ndarray   # shape (l, m, m), one skew matrix per z-basis vector

    def __call__(self, coeffs) -> np.ndarray:
        """j(Z) for Z = sum_a coeffs[a] Z_a."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.generators.shape[0],):
            raise DimensionError(
                f"expected {self.generators.shape[0]} center coefficients"
            )
        return np.einsum("a,apq->pq", c, self.generators)


def pair_decomposition(ad_v: np.ndarray, j_v: np.ndarray,
                       merge_tol: float = DEFAULT_TOLS.eigen_merge):
    """Simultaneous block structure of self-adjoint ad_H and skew j(Z) on v.

    Returns ``(kernel_basis, kernel_rhos, pair_basis, pairs)`` in the
    coordinates of ``ad_v``: ``kernel_basis`` columns span ker j(Z) with
    eigenvalues ``kernel_rhos``; ``pair_basis`` columns come in adjacent
    couples (V_i, jV_i/theta_i) with rows ``(rho_i, theta_i)`` in
    ``pairs``, oriented so theta_i > 0 and rho_i <= 1/2.  Eigenvalues
    closer than ``merge_tol`` are merged into a single eigenspace.
    """
    m = ad_v.shape[0]
    if m == 0:
        return (np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)),
                np.zeros((0, 2)))
    sym = 0.5 * (ad_v + ad_v.T)
    evals, evecs = np.linalg.eigh(sym)

    # merge nearly equal eigenvalues into common eigenspaces
    groups = []
    start = 0
    for idx in range(1, m + 1):
        if idx == m or evals[idx] - evals[start] > merge_tol:
            groups.append((float(np.mean(evals[start:idx])), evecs[:, start:idx]))
            start = idx

    scale = max(1.0, float(np.linalg.norm(j_v, 2))) if j_v.size else 1.0
    kernel_cols, kernel_rhos = [], []
    pair_cols, pair_data = [], []

    def split_kernel(basis):
        """Split an ad_H eigenspace into ker j(Z) and its complement."""
        gram = basis.T @ (j_v.T @ j_v) @ basis
        theta_sq, w = np.linalg.eigh(0.5 * (gram + gram.T))
        theta_sq = np.clip(theta_sq, 0.0, None)
        is_null = np.sqrt(theta_sq) <= 1e-10 * scale
        return basis @ w[:, is_null], basis @ w[:, ~is_null], theta_sq[~is_null]

    consumed = [False] * len(groups)
    for gi, (rho, basis) in enumerate(groups):
        if consumed[gi]:
            continue
        null_part, act_part, theta_sq = split_kernel(basis)
        for col in null_part.T:
            kernel_cols.append(col)
            kernel_rhos.append(rho)
        if act_part.shape[1] == 0:
            consumed[gi] = True
            continue
        if abs(rho - 0.5) <= merge_tol:
            # j(Z) preserves this eigenspace; extract rotation planes greedily
            consumed[gi] = True
            work = act_part
            while work.shape[1] > 0:
                gram = work.T @ (j_v.T @ j_v) @ work
                th2, w = np.linalg.eigh(0.5 * (gram + gram.T))
                v1 = work @ w[:, -1]
                theta = float(np.sqrt(max(th2[-1], 0.0)))
                v2 = (j_v @ v1) / theta
                pair_cols.extend([v1, v2])
                pair_data.append((0.5, theta))
                proj = work - np.outer(v1, v1 @ work) - np.outer(v2, v2 @ work)
                work = _orthonormal_span(proj)
        elif rho < 0.5:
            # partner eigenspace at 1 - rho
            partner = None
            for gj, (rho2, basis2) in enumerate(groups):
                if not consumed[gj] and gj != gi and abs(rho + rho2 - 1.0) <= 2 * merge_tol:
                    partner = gj
                    break
            if partner is None:
                raise NotStandardError(
                    f"no partner eigenspace at {1 - rho:.6f} for rho = {rho:.6f}"
                )
            th2, w = np.linalg.eigh(act_part.T @ (j_v.T @ j_v) @ act_part)
            for col_idx in range(act_part.shape[1]):
                v1 = act_part @ w[:, col_idx]
                theta = float(np.sqrt(max(th2[col_idx], 0.0)))
                v2 = (j_v @ v1) / theta
                pair_cols.extend([v1, v2])
                pair_data.append((rho, theta))
            p_null, p_act, _ = split_kernel(groups[partner][1])
            if p_act.shape[1] != act_part.shape[1]:
                raise NotStandardError(
                    "j(Z) does not pair the eigenspaces at "
                    f"{rho:.6f} and {1 - rho:.6f}"
                )
            consumed[gi] = True
            consumed[partner] = True
            for col in p_null.T:
                kernel_cols.append(col)
                kernel_rhos.append(groups[partner][0])
        else:
            # rho > 1/2 and j acts nontrivially: partner was missing
            raise NotStandardError(
                f"unpaired eigenvalue {rho:.6f} > 1/2 outside ker j(Z)"
            )

    kernel_basis = (np.array(kernel_cols).T if kernel_cols
                    else np.zeros((m, 0)))
    pair_basis = np.array(pair_cols).T if pair_cols else np.zeros((m, 0))
    order = np.argsort(kernel_rhos, kind="stable") if kernel_rhos else []
    kernel_basis = kernel_basis[:, order] if len(kernel_rhos) else kernel_basis
    kernel_rhos = np.array(kernel_rhos)[order] if len(kernel_rhos) else np.zeros(0)

    if pair_data:
        pairs = np.array(pair_data)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
        cols = pair_basis.reshape(m, -1, 2)[:, order, :].reshape(m, -1)
        pair_basis = cols
    else:
        pairs = np.zeros((0, 2))
    return kernel_basis, kernel_rhos, pair_basis, pairs


def standard_decomposition(g: MetricLieAlgebra,
                           tols: Tolerances = DEFAULT_TOLS) -> StandardSolvableData:
    """Orthogonal split s = <H> + v + z with normalized spectral data.

    Requires [s, s] of codimension one, ad_H self-adjoint on v and z
    (within ``tols.self_adjoint``) with positive eigenvalues.  The
    center z of n = [s, s], the blocks of ad_H and j(Z) are contractions
    of ``g.tensor``; dividing them by the top ad_H eigenvalue ``lam``
    normalizes it to exactly 1, as for the metric rescaled by 1/lam.
    The only algebra built is the returned one: that rescaled algebra
    in an adapted basis.  Rerunning on it reproduces the same spectral
    data.
    """
    n_basis = derived_algebra(g)
    if n_basis.shape[1] != g.dim - 1:
        raise StructureError(
            f"derived algebra has codimension {g.dim - n_basis.shape[1]}, expected 1"
        )
    if n_basis.shape[1] == 0:
        raise StructureError("derived algebra is trivial")
    h = _null_space(n_basis.T)
    if h.shape[1] != 1:
        raise StructureError("orthogonal complement of [s, s] is not a line")
    h = h[:, 0]
    m_n = n_basis.T @ ad_matrix(h, g) @ n_basis  # ad_H restricted to n

    # center of n determines the v / z split; [n, n] lies in n, so the
    # brackets [x, b_c] are read in n coordinates: t_n[a, c] = [b_a, b_c]
    r = n_basis.shape[1]
    t_n = np.einsum("ia,jc,ijk,kd->acd", n_basis, n_basis, g.tensor,
                    n_basis, optimize=True)
    z_in_n = _null_space(t_n.transpose(1, 2, 0).reshape(r * r, r),
                         _bracket_scale(g))
    if z_in_n.shape[1] == 0:
        raise StructureError("nilradical candidate has trivial center")
    v_in_n = _null_space(z_in_n.T)

    for (a, b, name) in ((v_in_n, z_in_n, "v -> z"), (z_in_n, v_in_n, "z -> v")):
        leak = np.linalg.norm(b.T @ m_n @ a)
        if leak > tols.self_adjoint * max(1.0, np.linalg.norm(m_n)):
            raise NotStandardError(
                f"ad_H mixes the blocks ({name} leak {leak:.3e})"
            )

    ad_z = z_in_n.T @ m_n @ z_in_n
    ad_v = v_in_n.T @ m_n @ v_in_n
    for blk, name in ((ad_z, "z"), (ad_v, "v")):
        asym = np.linalg.norm(blk - blk.T)
        if asym > tols.self_adjoint * max(1.0, np.linalg.norm(blk)):
            raise NotStandardError(
                f"ad_H not self-adjoint on {name} (residual {asym:.3e})"
            )

    mu_raw = np.linalg.eigvalsh(0.5 * (ad_z + ad_z.T))
    rho_raw = (np.linalg.eigvalsh(0.5 * (ad_v + ad_v.T))
               if ad_v.size else np.zeros(0))
    all_eigs = np.concatenate([mu_raw, rho_raw])
    if np.all(all_eigs < 0):
        h, ad_z, ad_v, mu_raw, all_eigs = -h, -ad_z, -ad_v, -mu_raw, -all_eigs
    # both checks are relative to lam, so rescaling the metric moves neither
    lam = float(np.abs(all_eigs).max())
    if np.min(all_eigs) <= tols.eigen_merge * lam:
        raise NotStandardError(
            f"ad_H has a nonpositive eigenvalue ({np.min(all_eigs):.3e})"
        )
    if mu_raw.max() < lam - tols.eigen_merge * lam:
        raise NotStandardError("top ad_H eigenvalue does not lie in the center")

    # every bracket scales by 1/lam, so the top eigenvalue becomes 1
    scale = 1.0 / lam if abs(lam - 1.0) > 1e-15 else 1.0
    ad_z, ad_v = scale * ad_z, scale * ad_v

    mu, z_vecs = np.linalg.eigh(0.5 * (ad_z + ad_z.T))
    z_cols = n_basis @ z_in_n @ z_vecs      # ambient coords, mu ascending
    z_top = z_cols[:, -1]

    # j(Z)[p, q] = <[V_q, V_p], Z> for the canonical top eigenvector Z
    v_cols_raw = n_basis @ v_in_n
    m_v = v_cols_raw.shape[1]
    j_top = scale * np.einsum("iq,jp,ijk,k->pq", v_cols_raw, v_cols_raw,
                              g.tensor, z_top, optimize=True)
    kernel_b, rho_star, pair_b, pairs = pair_decomposition(
        0.5 * (ad_v + ad_v.T), j_top, tols.eigen_merge
    )

    v_cols = (np.hstack([v_cols_raw @ kernel_b, v_cols_raw @ pair_b])
              if m_v else np.zeros((g.dim, 0)))
    basis = np.column_stack([h] + ([v_cols] if m_v else []) + [z_cols])
    # re-orthonormalize to wash out roundoff before the change of basis
    q_basis, _ = np.linalg.qr(basis)
    q_basis *= np.sign(np.sum(q_basis * basis, axis=0))

    tensor = np.einsum("ia,jb,ijk,kc->abc", q_basis, q_basis,
                       g.tensor, q_basis, optimize=True)
    adapted = MetricLieAlgebra.from_tensor(scale * tensor,
                                           jacobi_tol=g.jacobi_tol)

    n_pairs = len(pairs)
    v_idx = tuple(range(1, 1 + m_v))
    z_idx = tuple(range(1 + m_v, g.dim))
    return StandardSolvableData(
        algebra=adapted,
        h_index=0,
        v_indices=v_idx,
        z_indices=z_idx,
        mu=np.asarray(mu, dtype=float),
        rho_star=np.asarray(rho_star, dtype=float),
        pairs=np.asarray(pairs, dtype=float).reshape(n_pairs, 2),
    )


def jmap_from_split(g: MetricLieAlgebra, v_indices, z_indices,
                    tol: float = 1e-12) -> JMap:
    """j-map of an explicit basis split n = v + z with z central in n.

    Raises :class:`StructureError` when z is not central in n or some
    j(Z_a) fails to be skew.
    """
    v_idx, z_idx = list(v_indices), list(z_indices)
    # [Z_a, e_b] for every a in z, b in v + z
    z_brackets = g.tensor[np.ix_(z_idx, v_idx + z_idx)]
    for a, row in zip(z_idx, np.linalg.norm(z_brackets, axis=2)):
        if (row > 1e-10).any():
            raise StructureError(f"z-basis vector {a} is not central in n")
    # gens[a, p, q] = <[V_q, V_p], Z_a>
    gens = np.ascontiguousarray(
        g.tensor[np.ix_(v_idx, v_idx, z_idx)].transpose(2, 1, 0))
    for ai, a in enumerate(z_idx):
        asym = np.linalg.norm(gens[ai] + gens[ai].T)
        if asym > tol * max(1.0, np.linalg.norm(gens[ai])):
            raise StructureError(f"j(Z_{a}) is not skew (residual {asym:.3e})")
    return JMap(generators=gens)


def extract_jmap(d: StandardSolvableData, tol: float = 1e-12) -> JMap:
    """The j-map of the (adapted) algebra in ``d``."""
    return jmap_from_split(d.algebra, d.v_indices, d.z_indices, tol)


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------

def algebra_to_dict(g: MetricLieAlgebra) -> dict:
    """The shared JSON format: 0-based sparse triples with i < j."""
    return {
        "dim": g.dim,
        "structure_constants": [
            [i, j, k, c] for (i, j, k, c) in g.structure_constants
        ],
    }


def algebra_from_dict(data: dict,
                      tols: Tolerances = DEFAULT_TOLS) -> MetricLieAlgebra:
    """Inverse of :func:`algebra_to_dict`; the Jacobi identity is checked
    within ``tols.jacobi_identity``.  ``dim`` must be an integer (a JSON
    float, bool or string raises :class:`StructureError`)."""
    if not isinstance(data, dict) or "dim" not in data:
        raise StructureError("algebra JSON must contain 'dim'")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise StructureError(f"algebra 'dim' must be an integer, got {dim!r}")
    return MetricLieAlgebra(int(dim),
                            data.get("structure_constants", []),
                            jacobi_tol=tols.jacobi_identity)
