import sys
from collections import Counter

import numpy as np
import pytest
from scipy.stats import ortho_group

from solvharm import lie_metric
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.config import DEFAULT_TOLS
from solvharm.errors import (DimensionError, NotStandardError, StructureError)
from solvharm.lie_metric import (GrowthType, MetricLieAlgebra,
                                 _orthonormal_span, ad_matrix,
                                 algebra_from_dict, algebra_to_dict, bracket,
                                 center_of, derived_algebra, extract_jmap,
                                 growth_type, jmap_from_split,
                                 nilpotency_class, standard_decomposition,
                                 subalgebra, symmetric_skew_split)

HEISENBERG = MetricLieAlgebra(3, ((0, 1, 2, 1.0),))   # [V1, V2] = Z


def _basis(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_bracket_antisymmetry_on_basis():
    g = HEISENBERG
    np.testing.assert_allclose(bracket(_basis(3, 0), _basis(3, 0), g), 0.0)


def test_bracket_heisenberg_relation():
    np.testing.assert_allclose(
        bracket(_basis(3, 0), _basis(3, 1), HEISENBERG), [0.0, 0.0, 1.0]
    )


def test_bracket_damek_ricci_top_eigenvalue():
    g = build_damek_ricci(clifford_generators(1))
    h, z = _basis(4, 0), _basis(4, 3)
    np.testing.assert_allclose(bracket(h, z, g), z)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionError):
        bracket(np.zeros(2), np.zeros(3), HEISENBERG)


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
    assert center_of(build_flat(5)).shape == (5, 5)


def test_center_heisenberg_type():
    g = build_heisenberg_type(clifford_generators(1))
    c = center_of(g)
    assert c.shape[1] == 1
    np.testing.assert_allclose(np.abs(c[:, 0]), [0.0, 0.0, 1.0], atol=1e-14)


def test_center_damek_ricci_trivial(dr_algebras):
    g = dr_algebras[(1, 1)]
    # independent oracle: kernel of the stacked maps x -> [x, e_j]
    mat = g.tensor.transpose(1, 2, 0).reshape(g.dim * g.dim, g.dim)
    rank = np.linalg.matrix_rank(mat, tol=1e-10)
    assert rank == g.dim            # trivial kernel
    assert center_of(g).shape[1] == 0


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


def test_growth_type_cases(dr_algebras):
    assert growth_type(build_flat(4)) is GrowthType.SUBEXPONENTIAL
    h_type = build_heisenberg_type(clifford_generators(2))
    assert growth_type(h_type) is GrowthType.SUBEXPONENTIAL
    assert growth_type(dr_algebras[(1, 1)]) is GrowthType.EXPONENTIAL


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
    # [H, Z] = -Z: the unit normal must be flipped to get a positive spectrum
    g = MetricLieAlgebra(2, ((0, 1, 1, -1.0),))
    d = standard_decomposition(g)
    np.testing.assert_allclose(d.mu, [1.0], atol=1e-14)


def test_standard_decomposition_rejects_non_self_adjoint():
    # ad_H has a nilpotent part on the abelian n: not standard
    g = MetricLieAlgebra(3, ((0, 1, 1, 1.0), (0, 1, 2, 1.0), (0, 2, 2, 1.0)))
    with pytest.raises(NotStandardError):
        standard_decomposition(g)


def test_standard_decomposition_builds_only_the_adapted_algebra(
        dr_algebras, haar_rotate, monkeypatch):
    # the center of n, ad_H and j(Z) come from the input tensor: no
    # subalgebra, bracket loop or rescaled copy, one Jacobi check
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
    for name in ("subalgebra", "bracket", "center_of"):
        original = getattr(lie_metric, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting(name, original))
    for name in ("jacobi_residual", "rescaled"):
        monkeypatch.setattr(MetricLieAlgebra, name,
                            counting(name, getattr(MetricLieAlgebra, name)))
    from_tensor = MetricLieAlgebra.__dict__["from_tensor"].__func__
    monkeypatch.setattr(MetricLieAlgebra, "from_tensor",
                        classmethod(counting("from_tensor", from_tensor)))

    for g in inputs:
        calls.clear()
        d = standard_decomposition(g)
        assert dict(calls) == {"from_tensor": 1, "jacobi_residual": 1}
        for field in ("mu", "rho_star", "pairs"):
            a, b = getattr(reference, field), getattr(d, field)
            assert a.shape == b.shape
            assert a.size == 0 or np.abs(a - b).max() <= 1e-12


def test_standard_decomposition_idempotent(dr_data):
    for key in ((1, 1), (2, 1)):
        d = dr_data[key]
        again = standard_decomposition(d.algebra)
        np.testing.assert_allclose(again.mu, d.mu, atol=1e-12)
        np.testing.assert_allclose(again.rho_star, d.rho_star, atol=1e-12)
        np.testing.assert_allclose(again.pairs, d.pairs, atol=1e-12)
        assert again.v_indices == d.v_indices
        assert again.z_indices == d.z_indices


def test_extract_jmap_heisenberg():
    g = build_heisenberg_type(clifford_generators(1))
    ext = build_damek_ricci(clifford_generators(1))
    d = standard_decomposition(ext)
    j = extract_jmap(d)
    assert j.generators.shape == (1, 2, 2)
    np.testing.assert_allclose(np.abs(j.generators[0]),
                               [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(j.generators[0] + j.generators[0].T, 0.0,
                               atol=1e-14)
    del g


def test_extract_jmap_round_trip(dr_data):
    # build-then-extract with the native basis split returns the input
    # Clifford generators exactly
    cm = clifford_generators(2)
    nil = build_heisenberg_type(cm)
    j = jmap_from_split(nil, range(cm.m), range(cm.m, cm.m + cm.l))
    np.testing.assert_allclose(j.generators, cm.generators, atol=1e-14)

    # after re-deriving the adapted basis the generators are conjugated
    # but keep the Clifford relations
    d = dr_data[(2, 1)]
    j = extract_jmap(d)
    for gen in j.generators:
        np.testing.assert_allclose(gen @ gen, -np.eye(4), atol=1e-10)
        np.testing.assert_allclose(gen + gen.T, 0.0, atol=1e-12)


def test_extract_jmap_abelian_n_zero():
    d = standard_decomposition(build_real_hyperbolic(4))
    j = extract_jmap(d)
    assert j.generators.shape == (3, 0, 0)


def test_extract_jmap_rejects_noncentral():
    # z-indices deliberately wrong: v vectors are not central in n
    d = standard_decomposition(build_damek_ricci(clifford_generators(1)))
    bad = type(d)(algebra=d.algebra, h_index=0,
                  v_indices=(3,), z_indices=(1, 2),
                  mu=d.mu, rho_star=d.rho_star, pairs=d.pairs)
    with pytest.raises(StructureError):
        extract_jmap(bad)


def test_jacobi_identity_guard():
    # Jac(e0, e1, e2) = [[e0,e1],e2] + [[e2,e0],e1] = [e0,e2] = e1 here
    with pytest.raises(StructureError):
        MetricLieAlgebra(3, ((0, 1, 0, 1.0), (0, 2, 1, 1.0)))
    with pytest.raises(StructureError):
        MetricLieAlgebra(3, ((0, 1, 2, float("nan")),))


def test_j_squared_commutes_with_ad_h(dr_data):
    d = dr_data[(3, 1)]
    j = extract_jmap(d)
    v_idx = list(d.v_indices)
    ad_v = d.ad_h()[np.ix_(v_idx, v_idx)]
    rng = np.random.default_rng(7)
    for _ in range(5):
        zc = rng.standard_normal(len(d.z_indices))
        zc /= np.linalg.norm(zc)
        jz = j(zc)
        comm = jz @ jz @ ad_v - ad_v @ jz @ jz
        assert np.abs(comm).max() <= 1e-10


def test_j_maps_eigenspaces(generic_pair_algebra):
    # j(Z) sends the rho-eigenspace of ad_H|v to the (1-rho)-eigenspace
    d = standard_decomposition(generic_pair_algebra)
    j = extract_jmap(d)
    jz = j(np.array([1.0]))
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
    loose = DEFAULT_TOLS.with_overrides(jacobi_identity=1e-6)
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
        images = [bracket(_basis(g.dim, i), current[:, a], g)
                  for i in range(g.dim) for a in range(current.shape[1])]
        nxt = _orthonormal_span(np.array(images).T)
        if nxt.shape[1] >= current.shape[1]:
            return None
        current = nxt
    return step


def _loop_jmap(g, v_idx, z_idx):
    gens = np.zeros((len(z_idx), len(v_idx), len(v_idx)))
    for ai, a in enumerate(z_idx):
        for qi, q in enumerate(v_idx):
            for pi, p in enumerate(v_idx):
                gens[ai, pi, qi] = g.tensor[q, p, a]
    return gens


@pytest.mark.parametrize("key", [(1, 1), (2, 1), (3, 1), (7, 2)])
def test_bracket_array_forms_match_loops(key, haar_rotate):
    cm = clifford_generators(*key)
    for g0 in (build_damek_ricci(cm), build_heisenberg_type(cm)):
        for g in (g0, haar_rotate(g0, 7)):
            rebuilt = MetricLieAlgebra.from_tensor(g.tensor)
            assert rebuilt.structure_constants == tuple(_loop_triples(g.tensor))
            assert nilpotency_class(g) == _loop_nilpotency_class(g)
    d = standard_decomposition(build_damek_ricci(cm))
    jmap = jmap_from_split(d.algebra, d.v_indices, d.z_indices)
    loop = _loop_jmap(d.algebra, list(d.v_indices), list(d.z_indices))
    assert np.array_equal(jmap.generators, loop)
