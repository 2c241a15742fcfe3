import dataclasses
import gc
import inspect
import math
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy.stats import ortho_group

from oracles import (j_generators, jacobi_residual_einsum,
                     orthonormal_span_svd, structure_tensor_loop)
from solvharm import lie_metric
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.config import DEFAULT_TOLS, RANK_REL, Tolerances
from solvharm.errors import (DimensionError, NotStandardError, StructureError)
from solvharm.lie_metric import (GrowthType, MetricLieAlgebra, _span_split,
                                 ad_matrix, algebra_from_dict, algebra_to_dict,
                                 derived_algebra, growth_type,
                                 nilpotency_class, standard_decomposition,
                                 subalgebra, symmetric_skew_split)

HEISENBERG = MetricLieAlgebra(3, ((0, 1, 2, 1.0),))   # [V1, V2] = Z


def _basis(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _bracket(x, y, g):
    """[x, y] = ad_x y."""
    return ad_matrix(x, g) @ y


def test_bracket_antisymmetry_on_basis():
    g = HEISENBERG
    np.testing.assert_allclose(_bracket(_basis(3, 0), _basis(3, 0), g), 0.0)


def test_bracket_heisenberg_relation():
    np.testing.assert_allclose(
        _bracket(_basis(3, 0), _basis(3, 1), HEISENBERG), [0.0, 0.0, 1.0]
    )


def test_bracket_damek_ricci_top_eigenvalue():
    g = build_damek_ricci(clifford_generators(1))
    h, z = _basis(4, 0), _basis(4, 3)
    np.testing.assert_allclose(_bracket(h, z, g), z)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionError):
        ad_matrix(np.zeros(2), HEISENBERG)


def test_ad_matrix_abelian_zero():
    g = build_flat(4)
    np.testing.assert_allclose(ad_matrix(_basis(4, 1), g), np.zeros((4, 4)))


def test_ad_matrix_damek_ricci_h():
    g = build_damek_ricci(clifford_generators(1))
    expected = np.diag([0.0, 0.5, 0.5, 1.0])
    np.testing.assert_allclose(ad_matrix(_basis(4, 0), g), expected)


def test_ad_matrix_heisenberg_v1():
    m = ad_matrix(_basis(3, 0), HEISENBERG)
    expected = np.zeros((3, 3))
    expected[2, 1] = 1.0   # V2 -> Z
    np.testing.assert_allclose(m, expected)


def test_symmetric_skew_split_cases():
    sym = np.array([[2.0, 1.0], [1.0, 0.0]])
    d, s = symmetric_skew_split(sym)
    np.testing.assert_allclose(d, sym)
    np.testing.assert_allclose(s, 0.0)

    skew = np.array([[0.0, 3.0], [-3.0, 0.0]])
    d, s = symmetric_skew_split(skew)
    np.testing.assert_allclose(d, 0.0)
    np.testing.assert_allclose(s, skew)

    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    d, s = symmetric_skew_split(m)
    np.testing.assert_allclose(d, [[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(s, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(d + s, m)


def test_derived_algebra_abelian_empty():
    assert derived_algebra(build_flat(3)).shape == (3, 0)


def test_derived_algebra_damek_ricci_is_n(dr_algebras):
    g = dr_algebras[(2, 1)]
    basis = derived_algebra(g)
    assert basis.shape[1] == g.dim - 1
    # H (index 0) is orthogonal to the span
    assert np.abs(basis[0]).max() < 1e-12


def test_derived_algebra_heisenberg():
    basis = derived_algebra(HEISENBERG)
    assert basis.shape[1] == 1
    np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-14)


def test_center_abelian_full():
    # the standard decomposition splits n = [s, s] into v and its center
    # z: an abelian n is all center
    d = standard_decomposition(build_real_hyperbolic(5))
    assert (d.v_indices, d.z_indices) == ((), (1, 2, 3, 4))


def test_center_heisenberg_type(dr_data):
    # n of DR (1, 1) is the Heisenberg algebra, with center span(Z)
    d = dr_data[(1, 1)]
    assert len(d.z_indices) == 1
    np.testing.assert_allclose(np.abs(d.basis[:, d.z_indices[0]]),
                               [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_nilpotency_class_cases(dr_algebras):
    assert nilpotency_class(build_flat(3)) == 1
    assert nilpotency_class(build_heisenberg_type(clifford_generators(2))) == 2
    assert nilpotency_class(dr_algebras[(1, 1)]) is None
    filiform = MetricLieAlgebra(5, ((0, 1, 2, 1.0), (0, 2, 3, 1.0),
                                    (0, 3, 4, 1.0)))
    assert nilpotency_class(filiform) == 4
    # Heisenberg + the class-3 filiform algebra: the larger class wins
    heis_sum_l4 = MetricLieAlgebra(7, ((0, 1, 2, 1.0), (3, 4, 5, 1.0),
                                       (3, 5, 6, 1.0)))
    assert nilpotency_class(heis_sum_l4) == 3


def test_the_series_and_the_decomposition_search_no_einsum_path(
        dr_algebras, haar_rotate, monkeypatch):
    # both contract in an order fixed in the code: the lower central series
    # by one matrix product, and the decomposition by tensordot chains
    solvable = [*dr_algebras.values(), haar_rotate(dr_algebras[(3, 1)], 7)]
    nilpotent = build_heisenberg_type(clifford_generators(2))
    calls, einsum = [], np.einsum

    def spy(*operands, **kwargs):
        calls.append(kwargs)
        return einsum(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    for g in (*solvable, nilpotent):
        nilpotency_class(g)
    assert not calls
    for g in solvable:
        standard_decomposition(g)
    assert calls and not any("optimize" in kwargs for kwargs in calls)


def test_derived_algebra_is_kept_read_only(dr_algebras):
    g = dr_algebras[(2, 1)]
    basis = g.derived_algebra
    assert basis is g.derived_algebra
    assert not basis.flags.writeable
    np.testing.assert_array_equal(basis, derived_algebra(g))
    perp = g.derived_complement
    assert perp is g.derived_complement
    assert not perp.flags.writeable
    np.testing.assert_array_equal(perp, _span_split(basis)[1])


# ---------------------------------------------------------------------------
# the rank helper: the span of a column set and its complement
# ---------------------------------------------------------------------------

def _checked_split(columns, scale=1.0):
    """``_span_split(columns, scale)``, checked: span and complement are
    orthonormal and together a square orthogonal matrix, and the columns
    are orthogonal to the complement up to the rank cut."""
    span, complement = _span_split(columns, scale)
    d = columns.shape[0]
    q = np.hstack([span, complement])
    assert q.shape == (d, d)
    np.testing.assert_allclose(q.T @ q, np.eye(d), rtol=0, atol=1e-13)
    top = np.linalg.norm(columns, 2) if columns.size else 0.0
    assert np.abs(columns.T @ complement).max(initial=0.0) \
        <= RANK_REL * scale + 1e-13 * top
    return span, complement


def _svd_rank(columns, scale=1.0):
    """The count of singular values above ``RANK_REL * scale``."""
    s = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(s > RANK_REL * scale))


def test_span_split_of_wide_tall_and_empty_sets(rng):
    for shape, rank in (((5, 25), 5), ((6, 36), 3), ((7, 3), 3),
                        ((7, 3), 2), ((4, 4), 1)):
        d, c = shape
        columns = rng.standard_normal((d, rank)) @ rng.standard_normal(
            (rank, c))
        span, _ = _checked_split(columns)
        assert span.shape[1] == rank == _svd_rank(columns)
    span, complement = _checked_split(np.zeros((4, 0)))
    assert span.shape == (4, 0)
    np.testing.assert_array_equal(complement, np.eye(4))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_span_split_cut_straddled_by_a_decade(scale):
    # singular values 1e-9 and 1e-11 times the scale, a decade on each
    # side of the cut RANK_REL * scale, in a wide set and its tall transpose
    u = ortho_group.rvs(4, random_state=1)
    v = ortho_group.rvs(10, random_state=2)[:, :4]
    columns = u @ np.diag(scale * np.array([1.0, 0.5, 1e-9, 1e-11])) @ v.T
    for cols in (columns, columns.T):
        span, _ = _checked_split(cols, scale)
        assert span.shape[1] == 3 == _svd_rank(cols, scale)


@pytest.mark.parametrize("key", [(1, 1), (2, 1), (3, 2), (7, 2), (8, 3)])
def test_span_split_rank_on_haar_damek_ricci(key, haar_rotate):
    # the n x n^2 brackets span [s, s], of codimension 1, and the (r, r^2)
    # brackets of n = [s, s] span v, of dimension m
    m = clifford_generators(*key).shape[1]
    g = haar_rotate(build_damek_ricci(clifford_generators(*key)), 3)
    n = g.dim
    brackets = g.tensor.reshape(n * n, n).T
    span, _ = _checked_split(brackets, g.scale)
    assert span.shape[1] == n - 1 == _svd_rank(brackets, g.scale)
    t_n = np.einsum("ia,jc,ijk,kd->acd", span, span, g.tensor, span,
                    optimize=True)
    center = t_n.transpose(1, 2, 0).reshape((n - 1) ** 2, n - 1).T
    v, _ = _checked_split(center, g.scale)
    assert v.shape[1] == m == _svd_rank(center, g.scale)


def test_the_arrays_an_algebra_keeps_are_read_only(generic_pair_algebra):
    # everything cached from them (connection, operators, decomposition,
    # certificate, scale) would silently disagree with an array written
    # in place
    g = generic_pair_algebra
    d = standard_decomposition(g)
    for array in (g.tensor, d.mu, d.rho_star, d.pairs, d.basis, d._tensor,
                  *d.frame_factor_data()):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_the_tensor_is_built_from_the_rows_only():
    # the bracket tensor is parsed from structure_constants, never passed in
    with pytest.raises(TypeError):
        MetricLieAlgebra(2, (), _tensor=np.ones((2, 2, 2)))
    with pytest.raises(TypeError):
        MetricLieAlgebra(2, (), scale=1.0)


def test_growth_type_cases(dr_algebras):
    assert growth_type(build_flat(4)) is GrowthType.SUBEXPONENTIAL
    h_type = build_heisenberg_type(clifford_generators(2))
    assert growth_type(h_type) is GrowthType.SUBEXPONENTIAL
    assert growth_type(dr_algebras[(1, 1)]) is GrowthType.EXPONENTIAL


def test_growth_type_draws_no_samples():
    # the verdict comes from theorems, so there is no seed to pass
    assert list(inspect.signature(growth_type).parameters) == ["g", "tols"]


def test_standard_decomposition_damek_ricci(dr_data):
    d = dr_data[(1, 1)]
    np.testing.assert_allclose(d.mu, [1.0], atol=1e-12)
    assert d.rho_star.size == 0
    np.testing.assert_allclose(d.pairs, [[0.5, 1.0]], atol=1e-12)


def test_standard_decomposition_real_hyperbolic():
    n = 5
    d = standard_decomposition(build_real_hyperbolic(n))
    np.testing.assert_allclose(d.mu, np.ones(n - 1), atol=1e-12)
    assert len(d.v_indices) == 0
    assert d.pairs.shape == (0, 2)


def test_standard_decomposition_rejects_nilpotent():
    with pytest.raises(StructureError):
        standard_decomposition(HEISENBERG)


def test_standard_decomposition_rejects_trivial_derived_algebra():
    # dim 1: [s, s] = 0 has codimension one but leaves no v + z to split
    with pytest.raises(StructureError, match="trivial"):
        standard_decomposition(MetricLieAlgebra(1, ()))


def test_standard_decomposition_rescales_metric():
    # scaling the metric scales every bracket; normalization undoes it
    # and recovers the canonical spectral data with top eigenvalue 1
    g = build_damek_ricci(clifford_generators(1)).rescaled(2.0)
    assert np.isclose(np.max(np.linalg.eigvalsh(
        0.5 * (ad_matrix(_basis(4, 0), g) + ad_matrix(_basis(4, 0), g).T))), 2.0)
    d = standard_decomposition(g)
    np.testing.assert_allclose(d.mu, [1.0], atol=1e-12)
    np.testing.assert_allclose(d.pairs, [[0.5, 1.0]], atol=1e-12)


def test_standard_decomposition_flips_h_sign():
    # ad_H and -ad_H: for one of the signs the unit normal of [s, s] has a
    # negative spectrum, and flipping it negates and reverses the eigenpairs
    for sign in (1.0, -1.0):
        g = MetricLieAlgebra(2, ((0, 1, 1, sign),))
        d = standard_decomposition(g)
        np.testing.assert_allclose(d.mu, [1.0], atol=1e-14)
        # kernel vectors at 0.4, a pair (0.3, 0.5) and mu = (0.8, 1)
        g = MetricLieAlgebra(7, (
            (0, 1, 1, 0.3 * sign), (0, 2, 2, 0.7 * sign),
            (0, 3, 3, 0.4 * sign), (0, 4, 4, 0.4 * sign),
            (0, 5, 5, 0.8 * sign), (0, 6, 6, sign),
            (1, 2, 6, 0.5), (3, 4, 5, 0.9)))
        d = standard_decomposition(g)
        np.testing.assert_allclose(d.mu, [0.8, 1.0], atol=1e-14)
        np.testing.assert_allclose(d.rho_star, [0.4, 0.4], atol=1e-14)
        np.testing.assert_allclose(d.pairs, [[0.3, 0.5]], atol=1e-14)


def test_standard_decomposition_rejects_non_self_adjoint():
    # ad_H has a nilpotent part on the abelian n: not standard
    g = MetricLieAlgebra(3, ((0, 1, 1, 1.0), (0, 1, 2, 1.0), (0, 2, 2, 1.0)))
    with pytest.raises(NotStandardError, match="not normal"):
        standard_decomposition(g)


def test_standard_data_compare_by_identity(dr_data, dr_algebras):
    # the spectral arrays are not compared field by field, which raised
    # for more than one z or v eigenvalue
    d = dr_data[(2, 1)]
    assert d == d
    assert (d == standard_decomposition(dr_algebras[(2, 1)])) is False
    assert len({d, d}) == 1


def test_standard_decomposition_builds_only_the_adapted_algebra(
        dr_algebras, haar_rotate, monkeypatch):
    # the center of n, ad_H and j(Z) come from the input tensor: no
    # subalgebra or rescaled copy, and no algebra at all
    # until ``algebra`` is read; then one, checked once
    g0 = dr_algebras[(2, 1)]
    inputs = (g0, haar_rotate(g0, 11), g0.rescaled(3.0))
    reference = standard_decomposition(g0)
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items()
               if key.split(".")[0] == "solvharm" and m is not None]
    original = lie_metric.subalgebra
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key,
                                    counting("subalgebra", original))
    for name in ("jacobi_residual", "rescaled"):
        monkeypatch.setattr(MetricLieAlgebra, name,
                            counting(name, getattr(MetricLieAlgebra, name)))
    from_tensor = MetricLieAlgebra.__dict__["from_tensor"].__func__
    monkeypatch.setattr(MetricLieAlgebra, "from_tensor",
                        classmethod(counting("from_tensor", from_tensor)))

    def assert_spectral_data(d):
        for field in ("mu", "rho_star", "pairs"):
            a, b = getattr(reference, field), getattr(d, field)
            assert a.shape == b.shape
            assert a.size == 0 or np.abs(a - b).max() <= 1e-12
        assert (d.v_indices, d.z_indices) == (reference.v_indices,
                                              reference.z_indices)

    for g in inputs:
        calls.clear()
        d = standard_decomposition(g)
        assert dict(calls) == {}
        assert_spectral_data(d)
        adapted = d.algebra
        assert dict(calls) == {"from_tensor": 1, "jacobi_residual": 1}
        assert d.algebra is adapted
        assert dict(calls) == {"from_tensor": 1, "jacobi_residual": 1}
        assert adapted.dim == g.dim and d.h_vector.shape == (g.dim,)
        calls.clear()
        assert_spectral_data(standard_decomposition(adapted))
        assert dict(calls) == {}


def test_standard_decomposition_does_not_keep_its_input(dr_algebras):
    # the data hold the input's brackets, not the input: its cached
    # connection and curvature operator go with it
    g = dr_algebras[(2, 1)].rescaled(2.0)
    g.curvature_operator
    ref = weakref.ref(g)
    d = standard_decomposition(g)
    del g
    gc.collect()
    assert ref() is None
    np.testing.assert_allclose(standard_decomposition(d.algebra).mu, d.mu,
                               atol=1e-12)


def test_adapted_brackets_build_the_algebra(dr_algebras, haar_rotate):
    # one frame, read by .algebra and the H-type certificate: the
    # brackets in the adapted basis times 2^-e, with e the input's, and a
    # fresh array on every call (no n^3 array stays on the data)
    g = haar_rotate(dr_algebras[(2, 1)], 3).rescaled(3.0)
    d = standard_decomposition(g)
    t, e = d.adapted_brackets()
    assert e == g._exponent
    # the stored basis is orthonormal to rounding and read-only
    assert not d.basis.flags.writeable
    np.testing.assert_allclose(d.basis.T @ d.basis, np.eye(g.dim), rtol=0,
                               atol=1e-15)
    again, _ = d.adapted_brackets()
    assert again is not t and np.array_equal(again, t)
    np.testing.assert_allclose(d.algebra.tensor, np.ldexp(t, e) / 3.0,
                               rtol=0, atol=1e-14)


def test_standard_decomposition_reads_exactly_its_cache_key():
    # DECOMPOSITION_TOLS keys the algebra's cache and names the --tol-*
    # flags of classify and scan-h, so it must be what the decomposition
    # reads: on a standard input, a non-normal one and a nilpotent one
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    reads = set()

    class Recording(Tolerances):
        def __getattribute__(self, name):
            if name in fields:
                reads.add(name)
            return super().__getattribute__(name)

    for g in (build_damek_ricci(clifford_generators(2, 1)), HEISENBERG,
              MetricLieAlgebra(3, ((0, 1, 1, 1.0), (0, 1, 2, 1.0),
                                   (0, 2, 2, 1.0)))):
        try:
            standard_decomposition(g, Recording())
        except StructureError:
            pass
    assert reads == set(lie_metric.DECOMPOSITION_TOLS)


def test_decomposition_is_cached_by_the_fields_it_reads(monkeypatch):
    g = build_damek_ricci(clifford_generators(2, 1))   # fresh instance
    calls = Counter()
    for name in ("standard_decomposition", "h_type_certificate"):
        def counting(*args, _original=getattr(lie_metric, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(lie_metric, name, counting)
    first = g.decomposition()
    other_fields = dataclasses.replace(DEFAULT_TOLS, jacobi_identity=1e-3,
                                       riccati_residual=1.0)
    assert g.decomposition(other_fields) is first
    assert calls == {"standard_decomposition": 1}
    # the certificate is computed on its first read, once
    assert first.certificate is first.data.certificate is not None
    assert first.certificate is g.decomposition().certificate
    assert calls == {"standard_decomposition": 1, "h_type_certificate": 1}
    merged = g.decomposition(dataclasses.replace(DEFAULT_TOLS,
                                                 eigen_merge=1e-6))
    assert merged is not first and merged.data.eigen_merge == 1e-6
    assert calls["standard_decomposition"] == 2
    # no data, no certificate
    assert HEISENBERG.decomposition().certificate is None


def test_standard_decomposition_idempotent(dr_data):
    for key in ((1, 1), (2, 1)):
        d = dr_data[key]
        again = standard_decomposition(d.algebra)
        np.testing.assert_allclose(again.mu, d.mu, atol=1e-12)
        np.testing.assert_allclose(again.rho_star, d.rho_star, atol=1e-12)
        np.testing.assert_allclose(again.pairs, d.pairs, atol=1e-12)
        assert again.v_indices == d.v_indices
        assert again.z_indices == d.z_indices


# [H, V_i] = V_i / 2, [H, Z] = Z, [V1, V2] = 0.8 Z, [V3, V4] = 1.3 Z: two
# values of theta in the one eigenspace E_{1/2}
TWO_THETA = MetricLieAlgebra(6, (
    (0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 0.5), (0, 4, 4, 0.5),
    (0, 5, 5, 1.0), (1, 2, 5, 0.8), (3, 4, 5, 1.3)))


@pytest.fixture(scope="module")
def half_plane_cases(haar_rotate):
    dr_8_3 = build_damek_ricci(clifford_generators(8, 3))
    # in some of the rotations of TWO_THETA the pivot picks the 1.3 plane
    # first, so the pairs are sorted afterwards
    return {"rotated-dr-8-3": ([haar_rotate(dr_8_3, 5)], [(0.5, 1.0)] * 24),
            "two-theta": ([TWO_THETA], [(0.5, 0.8), (0.5, 1.3)]),
            "rotated-two-theta": (
                [haar_rotate(TWO_THETA, seed) for seed in range(8)],
                [(0.5, 0.8), (0.5, 1.3)])}


@pytest.mark.parametrize("name", ["rotated-dr-8-3", "two-theta",
                                  "rotated-two-theta"])
def test_planes_of_one_half_eigenspace(name, half_plane_cases, monkeypatch):
    # E_{1/2} is j(Z)-invariant and its planes are picked one at a time:
    # none may be dropped, and the picked columns must be orthonormal
    # before the adapted basis is re-orthonormalized
    algebras, expected = half_plane_cases[name]
    splits = []
    original = lie_metric.pair_decomposition

    def recording(*args):
        splits.append(original(*args))
        return splits[-1]

    monkeypatch.setattr(lie_metric, "pair_decomposition", recording)
    for g in algebras:
        d = standard_decomposition(g)
        kernel_b, _, pair_b, _ = splits[-1]
        b = np.hstack([kernel_b, pair_b])
        assert b.shape == (len(d.v_indices),) * 2
        assert np.abs(b.T @ b - np.eye(b.shape[1])).max() <= 1e-12
        assert d.rho_star.size == 0
        assert d.pairs.shape == (len(expected), 2)
        assert np.abs(d.pairs - expected).max() <= 1e-12
        # in the adapted basis j(Z) is one rotation block per plane
        jz = j_generators(d.algebra, d.v_indices, d.z_indices[-1:])[0]
        blocks = np.zeros_like(jz)
        for i, (_, theta) in enumerate(d.pairs):
            blocks[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, -theta],
                                                        [theta, 0.0]]
        assert np.abs(jz - blocks).max() <= 1e-12


def _adapted_j(d):
    return j_generators(d.algebra, d.v_indices, d.z_indices)


def test_extract_jmap_heisenberg():
    d = standard_decomposition(build_damek_ricci(clifford_generators(1)))
    j = _adapted_j(d)
    assert j.shape == (1, 2, 2)
    np.testing.assert_allclose(np.abs(j[0]), [[0.0, 1.0], [1.0, 0.0]],
                               atol=1e-12)
    np.testing.assert_allclose(j[0] + j[0].T, 0.0, atol=1e-14)


def test_extract_jmap_round_trip(dr_data):
    # the native basis split of the build returns the input Clifford
    # generators exactly
    built = clifford_generators(2)
    k, m = built.shape[:2]
    nil = build_heisenberg_type(built)
    j = j_generators(nil, range(m), range(m, m + k))
    np.testing.assert_allclose(j, built, atol=1e-14)

    # after re-deriving the adapted basis the generators are conjugated
    # but keep the Clifford relations
    for gen in _adapted_j(dr_data[(2, 1)]):
        np.testing.assert_allclose(gen @ gen, -np.eye(4), atol=1e-10)
        np.testing.assert_allclose(gen + gen.T, 0.0, atol=1e-12)


def test_extract_jmap_abelian_n_zero():
    d = standard_decomposition(build_real_hyperbolic(4))
    assert _adapted_j(d).shape == (3, 0, 0)


def test_jacobi_identity_guard():
    # Jac(e0, e1, e2) = [[e0,e1],e2] + [[e2,e0],e1] = [e0,e2] = e1 here
    with pytest.raises(StructureError):
        MetricLieAlgebra(3, ((0, 1, 0, 1.0), (0, 2, 1, 1.0)))
    with pytest.raises(StructureError):
        MetricLieAlgebra(3, ((0, 1, 2, float("nan")),))


@pytest.mark.parametrize("rows,error", [
    (((0, 5, 1, 1.0),), DimensionError),
    (((1, 0, 2, 1.0),), DimensionError),
    (((0, 1, -1, 1.0),), DimensionError),
    (((1e300, 1, 2, 1.0),), DimensionError),
    (((0, 1.5, 1, 1.0),), StructureError),
    (((0, None, 1, 1.0),), StructureError),
    (((0, float("nan"), 1, 1.0),), StructureError),
    (((0, float("inf"), 1, 1.0),), StructureError),
    (((0, 1, 2),), StructureError),
    (((0, 1, 2, 1.0, 0.0),), StructureError),
    (((0, 1, 2, 1.0), (0, 1)), StructureError),
    (((), (), ()), StructureError),
    ((0, 1, 2, 1.0), StructureError),
    (((0, 1, 2, "x"),), StructureError),
    (((0, 1, 2, float("nan")),), StructureError),
    (((0, 1, 2, float("inf")),), StructureError),
    (((0, 1, 2, -float("inf")),), StructureError),
], ids=["j-out", "i-not-below-j", "k-negative", "huge", "non-integer",
        "none", "nan", "inf", "three", "five", "ragged", "empty-rows",
        "flat", "text", "nan-coefficient", "inf-coefficient",
        "minus-inf-coefficient"])
def test_malformed_rows_raise_typed_errors(rows, error):
    with pytest.raises(error):
        MetricLieAlgebra(3, rows)


def test_j_squared_commutes_with_ad_h(dr_data):
    d = dr_data[(3, 1)]
    j = _adapted_j(d)
    v_idx = list(d.v_indices)
    ad_v = d.ad_h()[np.ix_(v_idx, v_idx)]
    rng = np.random.default_rng(7)
    for _ in range(5):
        zc = rng.standard_normal(len(d.z_indices))
        zc /= np.linalg.norm(zc)
        jz = np.einsum("a,apq->pq", zc, j)
        comm = jz @ jz @ ad_v - ad_v @ jz @ jz
        assert np.abs(comm).max() <= 1e-10


def test_j_maps_eigenspaces(generic_pair_algebra):
    # j(Z) sends the rho-eigenspace of ad_H|v to the (1-rho)-eigenspace
    d = standard_decomposition(generic_pair_algebra)
    jz = _adapted_j(d)[0]
    v_idx = list(d.v_indices)
    ad_v = d.ad_h()[np.ix_(v_idx, v_idx)]
    rho = d.pairs[0, 0]
    evals, evecs = np.linalg.eigh(0.5 * (ad_v + ad_v.T))
    for lam, vec in zip(evals, evecs.T):
        image = jz @ vec
        if np.linalg.norm(image) < 1e-13:
            continue
        resid = ad_v @ image - (1.0 - lam) * image
        assert np.linalg.norm(resid) <= 1e-10
    assert abs(rho - 0.3) < 1e-12


def test_subalgebra_closure_error():
    g = build_damek_ricci(clifford_generators(1))
    # the v-plane alone is not closed under the bracket
    basis = np.zeros((4, 2))
    basis[1, 0] = 1.0
    basis[2, 1] = 1.0
    with pytest.raises(StructureError):
        subalgebra(g, basis)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-9, 1e-12])
def test_subalgebra_leak_is_relative_to_bracket_scale(c):
    # span(X, Y) in [X, Y] = Z leaks Z at every scale of the metric
    with pytest.raises(StructureError):
        subalgebra(HEISENBERG.rescaled(c), np.eye(3)[:, :2])


def test_json_round_trip(dr_algebras):
    g = dr_algebras[(2, 1)]
    data = algebra_to_dict(g)
    again = algebra_from_dict(data)
    np.testing.assert_allclose(again.tensor, g.tensor)
    assert data["dim"] == 7
    assert all(i < j for i, j, _, _ in data["structure_constants"])


def test_jacobi_tolerance_reaches_derived_algebras(dr_algebras):
    data = algebra_to_dict(dr_algebras[(1, 1)])
    data["structure_constants"][0][3] += 1e-9   # Jacobi residual 1e-9
    with pytest.raises(StructureError, match="Jacobi identity"):
        algebra_from_dict(data)
    loose = dataclasses.replace(DEFAULT_TOLS, jacobi_identity=1e-6)
    g = algebra_from_dict(data, loose)
    assert g.jacobi_tol == 1e-6
    # each of these rebuilds the algebra and checks it again
    assert g.rescaled(2.0).jacobi_tol == 1e-6
    assert subalgebra(g, np.eye(g.dim)).jacobi_tol == 1e-6
    assert standard_decomposition(g, loose).algebra.jacobi_tol == 1e-6


@pytest.fixture(scope="module")
def rotated_dr_7_2_tensor():
    """DR (7, 2) brackets in a Haar-random basis: antisymmetric only up to
    the roundoff of the rotation."""
    g = build_damek_ricci(clifford_generators(7, 2))
    q = ortho_group.rvs(g.dim, random_state=1)
    return np.einsum("ia,jb,ijk,kc->abc", q, q, g.tensor, q, optimize=True)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e4, 1e5])
def test_from_tensor_antisymmetry_is_scale_free(rotated_dr_7_2_tensor, c):
    t = rotated_dr_7_2_tensor
    assert np.abs(t + np.swapaxes(t, 0, 1)).max() > 0.0
    assert MetricLieAlgebra.from_tensor(t * c).dim == 24


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e4])
def test_from_tensor_rejects_relative_antisymmetry_defect(
        rotated_dr_7_2_tensor, c):
    t = rotated_dr_7_2_tensor.copy()
    t[0, 1, 2] += 1e-9 * np.abs(t).max()
    with pytest.raises(StructureError, match="not antisymmetric"):
        MetricLieAlgebra.from_tensor(t * c)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus-inf"])
def test_non_finite_brackets_are_refused(value, dr_algebras):
    # a NaN or infinite largest entry fails both the antisymmetry test and
    # the prune mask, which read as the abelian algebra with scale 0
    t = dr_algebras[(2, 1)].tensor.copy()
    t[1, 3, 5], t[3, 1, 5] = value, -value
    with pytest.raises(StructureError, match="non-finite entry"):
        MetricLieAlgebra.from_tensor(t)
    with pytest.raises(StructureError, match=r"structure constant "
                       r"\[1, 3, 5, -?(nan|inf)\] has a non-finite "
                       r"coefficient"):
        MetricLieAlgebra(7, [*algebra_to_dict(dr_algebras[(2, 1)])[
            "structure_constants"], (1, 3, 5, value)])


@pytest.mark.parametrize("row, error, what", [
    ([0.0, 1.0, 2.5, 1.0], StructureError, "has a non-integer index"),
    ([0.0, 1.0, 3.0, 1.0], DimensionError, "is out of range for dim 3"),
    ([0.0, 1.0, 2.0, math.inf], StructureError,
     "has a non-finite coefficient")], ids=["index", "range", "coefficient"])
def test_array_rows_are_refused_in_plain_numbers(row, error, what):
    # an (m, 4) array row prints as the list of numbers it holds, as a
    # JSON row does, not as np.float64(...) reprs
    with pytest.raises(error) as caught:
        MetricLieAlgebra(3, np.array([[0.0, 1.0, 2.0, 1.0], row]))
    assert str(caught.value) == f"structure constant {row} {what}"


# ---------------------------------------------------------------------------
# array forms of the bracket loops against the loops they replaced
# ---------------------------------------------------------------------------

def _loop_triples(t, prune=1e-14):
    n = t.shape[0]
    floor = prune * np.abs(t).max()
    return [(i, j, k, float(t[i, j, k])) for i in range(n)
            for j in range(i + 1, n) for k in range(n)
            if abs(t[i, j, k]) > floor]


def _loop_nilpotency_class(g):
    current = np.eye(g.dim)
    step = 0
    while current.shape[1] > 0:
        step += 1
        images = [_bracket(_basis(g.dim, i), current[:, a], g)
                  for i in range(g.dim) for a in range(current.shape[1])]
        nxt = orthonormal_span_svd(np.array(images).T, g.scale)
        if nxt.shape[1] >= current.shape[1]:
            return None
        current = nxt
    return step


def _loop_subalgebra_tensor(g, b):
    r = b.shape[1]
    t = np.zeros((r, r, r))
    for a in range(r):
        for c in range(a + 1, r):
            t[a, c] = b.T @ _bracket(b[:, a], b[:, c], g)
            t[c, a] = -t[a, c]
    return t


@pytest.mark.parametrize("key", [(1, 1), (2, 1), (3, 1), (7, 2)])
def test_bracket_array_forms_match_loops(key, haar_rotate):
    j = clifford_generators(*key)
    k, m = j.shape[:2]
    for g0 in (build_damek_ricci(j), build_heisenberg_type(j)):
        for g in (g0, haar_rotate(g0, 7)):
            rebuilt = MetricLieAlgebra.from_tensor(g.tensor)
            assert algebra_to_dict(rebuilt)["structure_constants"] == [
                list(row) for row in _loop_triples(g.tensor)]
            assert nilpotency_class(g) == _loop_nilpotency_class(g)
            # [g, g] is the nilradical of a Damek-Ricci algebra, an ideal
            # and not abelian, and the center of an H-type algebra, where
            # every bracket is 0 in any basis
            n = g.derived_algebra
            sub = subalgebra(g, n)
            assert np.abs(sub.tensor - _loop_subalgebra_tensor(g, n)).max() \
                <= 1e-14 * g.scale
            if g0.dim == m + k:
                assert sub.dim == k and not sub.tensor.any()


# ---------------------------------------------------------------------------
# the array parse and the BLAS Jacobi check against the loops they replaced
# ---------------------------------------------------------------------------

# a repeated (i, j, k) adds up in row order: (0.1 + 0.2) + 0.3 differs from
# 0.1 + (0.2 + 0.3) in the last bit
REPEATED_ROWS = ((0, 1, 2, 0.1), (0, 1, 2, 0.2), (0, 1, 2, 0.3),
                 (0, 2, 1, -0.0), (0, 1, 2, -0.6))


@pytest.fixture(scope="module")
def parse_cases(dr_algebras, perturbed_theta_algebra, generic_pair_algebra,
                haar_rotate):
    return [*dr_algebras.values(), perturbed_theta_algebra,
            generic_pair_algebra, haar_rotate(dr_algebras[(3, 1)], 7),
            haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 7),
            MetricLieAlgebra(3, REPEATED_ROWS)]


def test_array_parse_matches_triple_loop(parse_cases):
    for g in parse_cases:
        as_dict = algebra_to_dict(g)["structure_constants"]
        for rows in (as_dict, np.array(as_dict)):
            built = MetricLieAlgebra(g.dim, rows)
            tensor = structure_tensor_loop(g.dim, rows)
            assert built.tensor.tobytes() == tensor.tobytes()
            # the rows written are the loop tensor's nonzero entries
            written = algebra_to_dict(built)["structure_constants"]
            assert written == [list(row)
                               for row in _loop_triples(tensor, prune=0.0)]
            assert all(type(x) is int for row in written for x in row[:3])
            assert all(type(row[3]) is float for row in written)
    repeated = parse_cases[-1]
    assert repeated.tensor.tobytes() == structure_tensor_loop(
        3, REPEATED_ROWS).tobytes()
    # written merged: the sum in row order, and no zero row
    assert algebra_to_dict(repeated)["structure_constants"] == \
        [[0, 1, 2, 0.1 + 0.2 + 0.3 - 0.6]]


def test_an_algebra_keeps_only_its_tensor(haar_rotate):
    # the rows a file holds are parsed into the tensor and dropped: 6,624
    # rows of Python numbers would hold about seven times its bytes
    g0 = haar_rotate(build_damek_ricci(clifford_generators(7, 2)), 7)
    data = algebra_to_dict(g0)
    assert len(data["structure_constants"]) == 6624
    tracemalloc.start()
    try:
        g = algebra_from_dict(data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.5 * g.tensor.nbytes
    with pytest.raises(AttributeError):
        g.structure_constants


def test_jacobi_residual_memory_is_cubic():
    # one i at a time: about 3 n^3 doubles (3.4 n^3 at this n = 24, with
    # the small arrays), not two n^4 arrays
    g = build_damek_ricci(clifford_generators(7, 2))
    n = g.dim
    tracemalloc.start()
    try:
        g.jacobi_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n ** 3 * 8


def test_jacobi_residual_matches_einsum(parse_cases):
    rng = np.random.default_rng(5)
    rows = [(i, j, k, c) for (i, j, k), c in zip(
        [(i, j, k) for i in range(5) for j in range(i + 1, 5)
         for k in range(5)], rng.standard_normal(50))]
    # a bracket that violates the Jacobi identity, admitted by jacobi_tol
    broken = MetricLieAlgebra(5, rows, jacobi_tol=math.inf)
    assert broken.jacobi_residual() > 0.01
    # [e_a, e_b] = e_c and [e_c, e_d] = e_e, and no other bracket, break
    # the identity at the one triple {a, b, d}: the first and the last
    # triple i < j < k, where a loop bound off by one misses it
    edges = [MetricLieAlgebra(6, rows, jacobi_tol=math.inf) for rows in (
        ((0, 1, 3, 1.0), (2, 3, 4, -1.0)), ((3, 4, 0, 1.0), (0, 5, 1, 1.0)))]
    for g in edges:
        assert g.jacobi_residual() == 0.25   # |e_e| / s^2, with s^2 = 4
    rotated = []
    for seed, g in enumerate(edges):
        q = ortho_group.rvs(g.dim, random_state=seed)
        t = np.einsum("ia,jb,ijk,kc->abc", q, q, g.tensor, q, optimize=True)
        rotated.append(MetricLieAlgebra.from_tensor(t, jacobi_tol=math.inf))
    for g in [*parse_cases, broken, *edges, *rotated]:
        # the residual is relative to s^2
        want = jacobi_residual_einsum(g.tensor) / (g.scale * g.scale)
        assert abs(g.jacobi_residual() - want) <= 1e-14
    for g in [*edges, *rotated]:
        with pytest.raises(StructureError, match="Jacobi identity violated"):
            algebra_from_dict(algebra_to_dict(g))


def test_jacobi_residual_scales_exactly_by_powers_of_two(dr_algebras,
                                                         haar_rotate):
    # the terms are summed on the tensor times the power of two fixed at
    # load, and divided by s^2 in the same unit, so a copy rescaled by 2^k
    # has the same residual, bit for bit, also at 2^520, where the
    # unscaled products would overflow, and at 2^-520, where they would
    # underflow
    g = haar_rotate(dr_algebras[(3, 1)], 5)
    r = g.jacobi_residual()
    assert r > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-520, -200, 200, 520):
            h = g.rescaled(2.0 ** k)
            assert h.jacobi_residual() == r
            assert h.scale == g.scale * 2.0 ** k
