"""Metric Lie algebras as structure constants in an orthonormal basis.

The inner product is *always* the identity in the stored basis; a
different left-invariant metric is represented by changing the structure
constants through an orthogonalizing change of basis.  On top of the
bracket algebra this module provides derived series, centers and the
orthogonal standard decomposition ``s = <H> + v + z`` with its spectral
data, which drives all the geodesic and rigidity machinery downstream.
"""

import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .config import (ANTISYMMETRY_REL, DEFAULT_TOLS, PRUNE_REL, RANK_REL,
                     UNIT_LAM_SNAP, Tolerances)
from .errors import (DimensionError, NotStandardError, NumericalError,
                     StructureError)
from .numerics import as_square, eigenvalues

__all__ = [
    "MetricLieAlgebra",
    "StandardSolvableData",
    "GrowthType",
    "bracket",
    "ad_matrix",
    "symmetric_skew_split",
    "derived_algebra",
    "center_of",
    "nilpotency_class",
    "killing_form",
    "subalgebra",
    "standard_decomposition",
    "Decomposition",
    "pair_decomposition",
    "growth_type",
    "algebra_to_dict",
    "algebra_from_dict",
]


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
    identity within ``jacobi_tol`` relative to s^2, so that rescaling the
    metric does not change the verdict.  The bracket scale s is
    ``scale``, the Frobenius norm of the bracket tensor, which no
    orthogonal change of basis moves.  It is fixed once here, with 2^e
    just above the largest entry: s = 2^e |2^-e T|, and the checks that
    run before any geometry (the Jacobi residual, the normality of ad_H)
    work on the brackets times 2^-e.  Powers of two multiply exactly, so
    no sum in them overflows or underflows.  An s past float64 raises
    :class:`NumericalError`.  At the other end the rank thresholds
    ``RANK_REL * s`` turn subnormal below s = 2e-298 and lose a digit
    per decade, and round to 0 below s = 2.5e-314.  Scale-freeness is
    tested from 1e-300 to 1e300.  Every threshold compares
    bracket-derived quantities with a tolerance times s, and curvature
    with one times s * s.  The algebras derived from this one (rescaled,
    subalgebras, the adapted basis of the standard decomposition)
    inherit ``jacobi_tol``.
    """

    dim: int
    structure_constants: tuple = ()
    _tensor: np.ndarray = field(init=False, repr=False, compare=False)
    jacobi_tol: float = field(repr=False, compare=False,
                              default=DEFAULT_TOLS.jacobi_identity)
    scale: float = field(init=False, repr=False, compare=False)
    _exponent: int = field(init=False, repr=False, compare=False)
    _decompositions: dict = field(init=False, repr=False, compare=False,
                                  default_factory=dict)

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
        # the tensor is antisymmetric, so its largest entry is max|T|;
        # 2.0 ** 1024 is past float64, so e stops at 1023
        e = min(math.frexp(tensor.max(initial=0.0))[1], 1023)
        unit = np.ldexp(tensor, -e)
        unit *= unit
        # a float product past float64 is inf, without a warning
        scale = math.sqrt(float(unit.sum())) * 2.0 ** e
        if math.isinf(scale):
            raise NumericalError(
                f"bracket scale s = |T| is past float64 (largest bracket "
                f"entry {tensor.max():.3e})")
        object.__setattr__(self, "_exponent", e)
        object.__setattr__(self, "scale", scale)
        resid = self.jacobi_residual()
        if not resid <= self.jacobi_tol:   # NaN brackets fail too
            raise StructureError(f"Jacobi identity violated: residual "
                                 f"{resid:.3e} s^2 > {self.jacobi_tol:.3e} "
                                 f"s^2")

    @classmethod
    def from_tensor(cls, tensor,
                    jacobi_tol: float = DEFAULT_TOLS.jacobi_identity
                    ) -> "MetricLieAlgebra":
        """Build from a full bracket tensor ``T[i, j, :] = [e_i, e_j]``.

        Entries at most ``PRUNE_REL`` times max|T| are dropped, so the
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
        idx = np.argwhere(upper & (np.abs(t) > PRUNE_REL * top))
        rows = np.column_stack([idx, t[tuple(idx.T)]])
        return cls(n, rows, jacobi_tol=jacobi_tol)

    @property
    def tensor(self) -> np.ndarray:
        return self._tensor

    # computed on first use and shared by every consumer of this instance;
    # one that reads only Gamma never forms the curvature operator

    @cached_property
    def connection(self) -> np.ndarray:
        """Gamma of :func:`curvature.levi_civita`, read-only."""
        from . import curvature   # curvature imports this module
        gamma = curvature.levi_civita(self)
        gamma.flags.writeable = False
        return gamma

    @cached_property
    def curvature_operator(self) -> np.ndarray:
        """R on the 2-vectors, :func:`curvature.curvature_operator` for
        :attr:`connection`, read-only: N^2 doubles, N = n (n - 1) / 2,
        where the dense R of :func:`curvature.curvature_tensor` is n^4."""
        from . import curvature
        op = curvature.curvature_operator(self, self.connection)
        op.flags.writeable = False
        return op

    @cached_property
    def flow_operator(self) -> np.ndarray:
        """The stacked bracket operator of :func:`curvature.flow_operator`
        for :attr:`connection`, read-only."""
        from . import curvature
        op = curvature.flow_operator(self, self.connection)
        op.flags.writeable = False
        return op

    def decomposition(self, tols: Tolerances = DEFAULT_TOLS
                      ) -> "Decomposition":
        """:func:`standard_decomposition` under ``tols`` and the
        :func:`curvature.h_type_certificate` of its result, as a
        :class:`Decomposition`, computed once per instance for each pair
        (``tols.self_adjoint``, ``tols.eigen_merge``), the only fields
        they read.  ``analyze`` and every
        :func:`jacobi_flow.volume_density` call on this instance share
        it."""
        key = (tols.self_adjoint, tols.eigen_merge)
        if key not in self._decompositions:
            from . import curvature
            try:
                data, reason = standard_decomposition(self, tols), None
            except StructureError as exc:
                data, reason = None, str(exc)
            cert = (curvature.h_type_certificate(self, data, tols)
                    if data is not None else None)
            self._decompositions[key] = Decomposition(data, reason, cert)
        return self._decompositions[key]

    @cached_property
    def derived_algebra(self) -> np.ndarray:
        """The module function :func:`derived_algebra`, run once,
        read-only."""
        basis = derived_algebra(self)
        basis.flags.writeable = False
        return basis

    @cached_property
    def derived_complement(self) -> np.ndarray:
        """Orthonormal basis (columns) of [s, s]^perp, run once,
        read-only."""
        basis = _null_space(self.derived_algebra.T)
        basis.flags.writeable = False
        return basis

    @cached_property
    def nilpotency_class(self):
        """The module function :func:`nilpotency_class`, run once."""
        return nilpotency_class(self)

    def jacobi_residual(self) -> float:
        """max norm of Jac(e_i, e_j, e_k) over all basis triples, over s^2.

        One i at a time, the cyclic terms [[e_i, e_j], e_k], [[e_j, e_k], e_i]
        and [[e_k, e_i], e_j] are n x n^2 BLAS products summed into one
        (j, k, :) array.  They are taken on a copy of the tensor times
        2^-e, the power of two fixed at load, and divided by its squared
        norm (2^-e s)^2: the ratio is scale-free, and no product over- or
        underflows while s is a normal float.  The peak is about 4 n^3
        doubles.
        """
        t = np.ldexp(self._tensor, -self._exponent)
        unit = math.ldexp(self.scale, -self._exponent)
        n = self.dim
        flat, worst = t.reshape(n, n * n), 0.0
        for i in range(n):
            jac = (t[i] @ flat).reshape(n, n, n)
            jac += (t.reshape(n * n, n) @ t[:, i, :]).reshape(n, n, n)
            jac += (t[:, i, :] @ flat).reshape(n, n, n).transpose(1, 0, 2)
            worst = max(worst, np.einsum("jkl,jkl->jk", jac, jac).max())
        return math.sqrt(float(worst)) / (unit * unit) if unit else 0.0

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


def _orthonormal_span(columns: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given column set.

    Singular values above ``RANK_REL * scale`` count as rank; ``scale`` is
    the size of the entries' source (1 for orthonormal columns, the
    bracket scale for columns made of structure constants).
    """
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > RANK_REL * scale))
    return u[:, :rank]


def _null_space(mat: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``mat``, with rank
    decided as in :func:`_orthonormal_span`."""
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    # V is complete in the reduced SVD unless ``mat`` is wide; the full U
    # of a tall matrix (rows^2 doubles) is never read
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s > RANK_REL * scale))
    return vt[rank:].T


def derived_algebra(g: MetricLieAlgebra) -> np.ndarray:
    """Orthonormal basis (columns) of [g, g]."""
    cols = g.tensor.reshape(g.dim * g.dim, g.dim).T
    return _orthonormal_span(cols, g.scale)


def center_of(g: MetricLieAlgebra) -> np.ndarray:
    """Orthonormal basis (columns) of {z : [z, x] = 0 for all x}."""
    # stack the maps x -> [x, e_j] over all j
    mat = g.tensor.transpose(1, 2, 0).reshape(g.dim * g.dim, g.dim)
    return _null_space(mat, g.scale)


def subalgebra(g: MetricLieAlgebra, basis: np.ndarray) -> MetricLieAlgebra:
    """Restriction of ``g`` to the span of orthonormal ``basis`` columns.

    Raises :class:`StructureError` when a bracket leaks out of the span
    by more than ``RANK_REL`` times the bracket scale.
    """
    b = np.asarray(basis, dtype=float)
    r = b.shape[1]
    tensor = np.zeros((r, r, r))
    for a in range(r):
        for c in range(a + 1, r):
            w = bracket(b[:, a], b[:, c], g)
            coeffs = b.T @ w
            leak = np.linalg.norm(w - b @ coeffs)
            if leak > RANK_REL * g.scale:
                raise StructureError(
                    f"span is not a subalgebra: bracket leaks {leak:.3e}"
                )
            tensor[a, c] = coeffs
            tensor[c, a] = -coeffs
    return MetricLieAlgebra.from_tensor(tensor, jacobi_tol=g.jacobi_tol)


def nilpotency_class(g: MetricLieAlgebra):
    """Length of the lower central series, or ``None`` if not nilpotent.

    The series starts at ``g.derived_algebra``, its first term after g.
    """
    current = g.derived_algebra
    if current.shape[1] >= g.dim:
        return None
    step = 1
    while current.shape[1] > 0:
        step += 1
        # images[k, (i, a)] = [e_i, current[:, a]]_k
        images = np.einsum("ijk,ja->kia", g.tensor, current)
        nxt = _orthonormal_span(images.reshape(g.dim, -1), g.scale)
        if nxt.shape[1] >= current.shape[1]:
            return None
        current = nxt
    return step


def killing_form(g: MetricLieAlgebra) -> np.ndarray:
    """B[i, j] = trace(ad_(e_i) ad_(e_j)) = sum_(l, k) [e_i, e_l]_k
    [e_j, e_k]_l, one n x n^2 BLAS product."""
    n = g.dim
    return (g.tensor.reshape(n, n * n)
            @ g.tensor.transpose(0, 2, 1).reshape(n, n * n).T)


class GrowthType(enum.Enum):
    EXPONENTIAL = "exponential"
    SUBEXPONENTIAL = "subexponential"


def growth_type(g: MetricLieAlgebra,
                tols: Tolerances = DEFAULT_TOLS) -> GrowthType:
    """Volume-growth type: exponential iff some ad_X has an eigenvalue off
    the imaginary axis (Guivarc'h 1973, Jenkins 1973).

    By Lie's theorem the radical acts by characters that vanish on
    [s, s], and a compact Levi factor adds only imaginary parts, so
    Re spec(ad_X) is linear in X modulo [s, s]: a basis of the orthogonal
    complement of [s, s] decides, with real parts compared with
    ``tols.growth_real_part`` times the bracket scale s.  If none shows
    one, a noncompact Levi factor remains possible; it lies in [s, s] and
    is seen by the Killing form B = tr(ad_X ad_Y), since B(X, X) is the
    sum of the squared eigenvalues of ad_X and is positive only if one
    of them has a real part.  This check sees the Levi factor only when
    the top eigenvalue of B on [s, s] is above ``growth_real_part * s^2``.
    Both thresholds scale with the metric, so rescaling does not change
    the type.  A nilpotent algebra is subexponential: by Engel's theorem
    each ad_X is nilpotent, and the real parts of its computed
    eigenvalues are the roundoff of its Jordan blocks, of order
    eps^(1/k) for a block of size k.
    """
    s = g.scale
    floor = tols.growth_real_part * s
    derived = g.derived_algebra
    exponential = any(np.abs(eigenvalues(ad_matrix(x, g)).real).max() > floor
                      for x in g.derived_complement.T)
    if not exponential and derived.shape[1]:
        top = np.linalg.eigvalsh(derived.T @ killing_form(g) @ derived)[-1]
        exponential = top > tols.growth_real_part * s * s
    return (GrowthType.EXPONENTIAL
            if exponential and g.nilpotency_class is None
            else GrowthType.SUBEXPONENTIAL)


# ---------------------------------------------------------------------------
# standard decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StandardSolvableData:
    """Spectral data of the orthogonal split s = <H> + v + z.

    ``algebra`` is the input renormalized (top ad_H eigenvalue 1) and
    rebuilt in an adapted orthonormal basis: index 0 is H, then the
    v-block (kernel vectors of j(Z) first, then 2-dimensional pair
    blocks (V_i, j(Z)V_i / theta_i)), then the z-block with ad_H
    eigenvalues ascending, so the last basis vector is the canonical top
    eigenvector Z.  This basis is the central frame of Z: along the
    geodesic tangent to Z the frame slots are its identity columns, with
    the eigenvalues ``mu`` (all but Z's), ``rho_star`` and ``pairs``
    (see :func:`curvature.central_frame_split`).  No algebra is built
    until ``algebra`` is first read.  The data keep the input's brackets,
    not the input, so its cached connection and curvature operator can be
    freed, and compare equal only to themselves (the arrays are not
    compared).
    """

    v_indices: tuple
    z_indices: tuple
    mu: np.ndarray          # all ad_H eigenvalues on z, ascending
    rho_star: np.ndarray    # ad_H eigenvalues on ker j(Z) in v
    pairs: np.ndarray       # rows (rho_i, theta_i) for the 2x2 blocks
    _tensor: np.ndarray = field(repr=False, compare=False)
    _basis: np.ndarray = field(repr=False, compare=False)
    _scale: float = field(repr=False, compare=False)
    jacobi_tol: float = field(repr=False, compare=False)

    @cached_property
    def basis(self) -> np.ndarray:
        """The adapted basis as orthonormal columns in the input's
        coordinates (H, then v, then z), read-only: the computed columns
        re-orthonormalized, to wash out roundoff, with their signs kept."""
        q_basis, _ = np.linalg.qr(self._basis)
        q_basis *= np.sign(np.sum(q_basis * self._basis, axis=0))
        q_basis.flags.writeable = False
        return q_basis

    @cached_property
    def algebra(self) -> MetricLieAlgebra:
        b = self.basis
        tensor = np.einsum("ia,jb,ijk,kc->abc", b, b, self._tensor, b,
                           optimize=True)
        return MetricLieAlgebra.from_tensor(self._scale * tensor,
                                            jacobi_tol=self.jacobi_tol)

    @property
    def trace_ad_h(self) -> float:
        return float(self.mu.sum() + self.rho_star.sum() + len(self.pairs))

    @property
    def h_vector(self) -> np.ndarray:
        v = np.zeros(len(self._basis))
        v[0] = 1.0
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


class Decomposition(NamedTuple):
    """What :meth:`MetricLieAlgebra.decomposition` keeps: the standard
    decomposition, or None and the reason there is none, and the H-type
    certificate of :func:`curvature.h_type_certificate`, or None."""

    data: Optional[StandardSolvableData]
    reason: Optional[str]
    certificate: "Optional[curvature.HTypeCertificate]"


def pair_decomposition(rho: np.ndarray, vecs: np.ndarray, j_v: np.ndarray,
                       merge_tol: float = DEFAULT_TOLS.eigen_merge):
    """Simultaneous block structure of self-adjoint ad_H and skew j(Z) on v.

    ``rho`` (ascending) and the columns of ``vecs`` are the eigenpairs of
    ad_H on v; eigenvalues closer than ``merge_tol`` are merged into one
    eigenspace E_rho.  ad_H is a derivation with ad_H Z = Z, so j(Z) maps
    E_rho into E_{1-rho}, and K = j(Z)^T j(Z) preserves every E_rho.  One
    ``eigh`` of K on each E_rho splits it into ker j(Z) and the active
    vectors V_i with K V_i = theta_i^2 V_i.  Below 1/2 each V_i gives the
    pair (V_i, j(Z)V_i / theta_i).  E_{1/2} is j(Z)-invariant: its planes
    are picked one at a time, each from the active vector farthest from
    the planes already picked, and stored with rho exactly 1/2.  Above
    1/2 the active vectors are the partners already taken at 1 - rho, so
    only the kernel is kept.

    Returns ``(kernel_basis, kernel_rhos, pair_basis, pairs)`` in the
    coordinates of ``vecs``: ``kernel_basis`` columns span ker j(Z) with
    eigenvalues ``kernel_rhos`` ascending; ``pair_basis`` columns come in
    adjacent couples (V_i, j(Z)V_i / theta_i) with rows
    ``(rho_i, theta_i)`` in ``pairs``, sorted by (rho, theta), with
    theta_i > 0 and rho_i <= 1/2.  Raises :class:`NotStandardError` when
    E_rho and E_{1-rho} hold different numbers of active vectors.
    """
    m = len(rho)
    k = j_v.T @ j_v
    null_tol = RANK_REL * (max(1.0, float(np.linalg.norm(j_v, 2)))
                           if j_v.size else 1.0)
    kernel, kernel_rhos = [np.zeros((m, 0))], []
    planes, pairs = [np.zeros((m, 0, 2))], []
    active = []   # (rho, number of active vectors) per eigenspace
    start = 0
    for stop in range(1, m + 1):
        if stop < m and rho[stop] - rho[start] <= merge_tol:
            continue
        r, basis = float(np.mean(rho[start:stop])), vecs[:, start:stop]
        start = stop
        gram = basis.T @ k @ basis
        theta_sq, w = np.linalg.eigh(0.5 * (gram + gram.T))
        theta = np.sqrt(np.clip(theta_sq, 0.0, None))
        null = theta <= null_tol
        kernel.append(basis @ w[:, null])
        kernel_rhos += [r] * int(null.sum())
        act, theta = basis @ w[:, ~null], theta[~null]
        if theta.size:
            active.append((r, theta.size))
        if r < 0.5 - merge_tol:
            planes.append(np.stack([act, j_v @ act / theta], axis=2))
            pairs += [(r, t) for t in theta]
        elif r <= 0.5 + merge_tol:
            # the complement of the planes picked so far is K- and
            # j(Z)-invariant, so each residual stays a theta_i^2 eigenvector
            # of K; the largest has squared norm >= 1 / (number of planes)
            rest = act.copy()
            for _ in range(theta.size // 2):
                i = int(np.argmax(np.einsum("pi,pi->i", rest, rest)))
                v1 = rest[:, i] / np.linalg.norm(rest[:, i])
                jv1 = j_v @ v1
                t = float(np.linalg.norm(jv1))
                v2 = jv1 / t
                rest -= np.outer(v1, v1 @ rest) + np.outer(v2, v2 @ rest)
                planes.append(np.stack([v1, v2], axis=1)[:, None])
                pairs.append((0.5, t))
    # j(Z) maps the active vectors of E_rho onto those of E_{1-rho}, so
    # the active dimensions mirror about 1/2, and E_{1/2} holds whole planes
    if any(c != c2 or abs(r + r2 - 1.0) > 2 * merge_tol
           or (abs(r - 0.5) <= merge_tol and c % 2)
           for (r, c), (r2, c2) in zip(active, active[::-1])):
        raise NotStandardError(
            "j(Z) does not pair the ad_H eigenspaces E_rho and E_(1-rho); "
            "active vectors per rho: "
            + ", ".join(f"{r:.6f}: {c}" for r, c in active))
    pairs = np.array(pairs).reshape(-1, 2)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    planes = np.concatenate(planes, axis=1)[:, order]
    return (np.hstack(kernel), np.array(kernel_rhos),
            planes.reshape(m, 2 * len(order)), pairs[order])


def standard_decomposition(g: MetricLieAlgebra,
                           tols: Tolerances = DEFAULT_TOLS) -> StandardSolvableData:
    """Orthogonal split s = <H> + v + z with normalized spectral data.

    Requires [s, s] of codimension one and m = ad_H|n normal on n = [s, s]
    with positive eigenvalues: |m - m^T| <= ``tols.self_adjoint`` |m|, or
    else |m m^T - m^T m| <= ``self_adjoint`` |m|^2 (Frobenius norms).  m
    keeps the center z of n and v = z^perp, and its skew part is a
    derivation, so the data and ``.algebra`` are read through its
    symmetric part, an isometric algebra (Alekseevskii's modification).
    z, the blocks of ad_H and j(Z) are contractions of ``g.tensor``;
    dividing them by the top ad_H eigenvalue ``lam`` normalizes it to
    exactly 1, as for the metric rescaled by 1/lam.
    No algebra is built here: the rescaled algebra in an adapted basis
    is built, and Jacobi-checked, when ``.algebra`` of the result is
    first read.  Rerunning on it reproduces the same spectral data.
    """
    n_basis = g.derived_algebra
    if n_basis.shape[1] != g.dim - 1:
        raise StructureError(
            f"derived algebra has codimension {g.dim - n_basis.shape[1]}, expected 1"
        )
    if n_basis.shape[1] == 0:
        raise StructureError("derived algebra is trivial")
    h = g.derived_complement[:, 0]
    m_n = n_basis.T @ ad_matrix(h, g) @ n_basis  # ad_H restricted to n

    # center of n determines the v / z split; [n, n] lies in n, so the
    # brackets [x, b_c] are read in n coordinates: t_n[a, c] = [b_a, b_c]
    r = n_basis.shape[1]
    t_n = np.einsum("ia,jc,ijk,kd->acd", n_basis, n_basis, g.tensor,
                    n_basis, optimize=True)
    z_in_n = _null_space(t_n.transpose(1, 2, 0).reshape(r * r, r), g.scale)
    if z_in_n.shape[1] == 0:
        raise StructureError("nilradical candidate has trivial center")
    v_in_n = _null_space(z_in_n.T)

    # ad_H is a derivation, so it keeps z; normal, it keeps v = z^perp too.
    # The norms are taken on m times 2^-e, which is exact, so m m^T
    # neither overflows nor underflows
    unit = np.ldexp(m_n, -g._exponent)
    tensor, norm = g.tensor, np.linalg.norm(unit)
    if np.linalg.norm(unit - unit.T) > tols.self_adjoint * norm:
        comm = float(np.linalg.norm(unit @ unit.T - unit.T @ unit))
        if comm > tols.self_adjoint * norm * norm:
            raise NotStandardError(f"ad_H not normal on [s, s] (residual "
                                   f"{comm / (norm * norm):.3e} |m|^2)")
        # its skew part K is a derivation: bracket H by the symmetric part
        skew = n_basis @ (0.5 * (m_n - m_n.T)) @ n_basis.T
        tensor = (tensor - np.einsum("i,kj->ijk", h, skew)
                  + np.einsum("j,ki->ijk", h, skew))

    ad_z = z_in_n.T @ m_n @ z_in_n
    ad_v = v_in_n.T @ m_n @ v_in_n
    # one eigh per block; eigenvalues of -ad_H are the negated ones, reversed
    mu_raw, z_vecs = np.linalg.eigh(0.5 * (ad_z + ad_z.T))
    rho_raw, v_vecs = np.linalg.eigh(0.5 * (ad_v + ad_v.T))
    if np.all(np.concatenate([mu_raw, rho_raw]) < 0):
        h = -h
        mu_raw, z_vecs = -mu_raw[::-1], z_vecs[:, ::-1]
        rho_raw, v_vecs = -rho_raw[::-1], v_vecs[:, ::-1]
    all_eigs = np.concatenate([mu_raw, rho_raw])
    # both checks are relative to lam, so rescaling the metric moves neither
    lam = float(np.abs(all_eigs).max())
    if np.min(all_eigs) <= tols.eigen_merge * lam:
        raise NotStandardError(
            f"ad_H has a nonpositive eigenvalue ({np.min(all_eigs):.3e})"
        )
    if mu_raw.max() < lam - tols.eigen_merge * lam:
        raise NotStandardError("top ad_H eigenvalue does not lie in the center")

    # every bracket scales by 1/lam, so the top eigenvalue becomes 1
    scale = 1.0 / lam if abs(lam - 1.0) > UNIT_LAM_SNAP else 1.0
    mu = scale * mu_raw
    z_cols = n_basis @ z_in_n @ z_vecs      # ambient coords, mu ascending
    z_top = z_cols[:, -1]

    # j(Z)[p, q] = <[V_q, V_p], Z> for the canonical top eigenvector Z
    v_cols_raw = n_basis @ v_in_n
    m_v = v_cols_raw.shape[1]
    j_top = scale * np.einsum("iq,jp,ijk,k->pq", v_cols_raw, v_cols_raw,
                              g.tensor, z_top, optimize=True)
    kernel_b, rho_star, pair_b, pairs = pair_decomposition(
        scale * rho_raw, v_vecs, j_top, tols.eigen_merge
    )

    v_cols = np.hstack([v_cols_raw @ kernel_b, v_cols_raw @ pair_b])
    return StandardSolvableData(
        v_indices=tuple(range(1, 1 + m_v)),
        z_indices=tuple(range(1 + m_v, g.dim)),
        mu=mu,
        rho_star=rho_star,
        pairs=pairs,
        _tensor=tensor,
        _basis=np.column_stack([h, v_cols, z_cols]),
        _scale=scale,
        jacobi_tol=g.jacobi_tol,
    )


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
