import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import j_generators
from solvharm.clifford_dr import (_LEFT, _RIGHT, build_damek_ricci,
                                  build_flat, build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.errors import DomainError
from solvharm.lie_metric import (ad_matrix, algebra_to_dict,
                                 clifford_relation_defect, derived_algebra,
                                 growth_type, GrowthType, nilpotency_class,
                                 standard_decomposition)

# l -> dimension of the irreducible module (mod-8 periodicity)
MODULE_DIMENSION = {1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16, 9: 32,
                    10: 64, 11: 64, 12: 128, 13: 128, 14: 128, 15: 128,
                    16: 256}


def test_l1_generator_is_plane_rotation():
    j = clifford_generators(1)
    np.testing.assert_allclose(j[0], [[0.0, -1.0], [1.0, 0.0]])


def _hamilton(p, q):
    """The quaternion product pq, on the basis (1, i, j, k)."""
    a, b, c, d = p
    e, f, g, h = q
    return [a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e]


def test_blocks_multiply_quaternions():
    # _LEFT[u] x = e_u x and _RIGHT[u] x = x e_u for the units i, j, k
    units = np.eye(4)
    for u in range(3):
        for x in units:
            assert (_LEFT[u] @ x).tolist() == _hamilton(units[u + 1], x)
            assert (_RIGHT[u] @ x).tolist() == _hamilton(x, units[u + 1])


def test_l3_quaternionic_generators():
    j = clifford_generators(3)
    assert j.shape == (3, 4, 4)
    assert clifford_relation_defect(j) == 0.0


def test_l2_two_copies():
    j = clifford_generators(2, copies=2)
    assert j.shape == (2, 8, 8)
    assert clifford_relation_defect(j) <= 1e-12


@pytest.mark.parametrize("l,expected", MODULE_DIMENSION.items())
def test_module_dimension_table(l, expected):
    assert clifford_generators(l).shape == (l, expected, expected)


@pytest.mark.parametrize("l", range(1, 17))
def test_clifford_relations_hold(l):
    # exactly: the tables and their products are integer matrices
    for copies in (1, 2, 3):
        if copies == 1 or copies * MODULE_DIMENSION[l] <= 128:
            j = clifford_generators(l, copies)
            assert np.abs(j + j.transpose(0, 2, 1)).max() == 0.0
            assert clifford_relation_defect(j) == 0.0


def test_relation_test_peak_is_linear_in_k():
    # one a at a time: at most 4 k m^2 doubles, where all k^2 products at
    # once would hold 2 k^2 m^2
    j = clifford_generators(16)
    k, m = j.shape[:2]
    tracemalloc.start()
    try:
        assert clifford_relation_defect(j) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * k * m * m * 8


def test_relation_test_reads_lam_and_m_zero():
    j = clifford_generators(7, 2)
    assert clifford_relation_defect(3.0 * j, 3.0) == 0.0
    assert clifford_relation_defect(j, 3.0) == 16.0   # 2 (lam^2 - 1)
    assert clifford_relation_defect(np.zeros((4, 0, 0)), 2.0) == 0.0


def test_relation_test_fills_triple_traces():
    j = clifford_generators(7)
    traces = np.zeros((7, 7, 7))
    assert clifford_relation_defect(j, 1.0, traces) == 0.0
    for a, b, c in itertools.combinations(range(7), 3):
        assert traces[a, b, c] == np.trace(j[a] @ j[b] @ j[c])


def test_heisenberg_type_classical():
    g = build_heisenberg_type(clifford_generators(1))
    assert g.dim == 3
    assert nilpotency_class(g) == 2
    np.testing.assert_allclose(
        g.tensor[0, 1], [0.0, 0.0, 1.0]
    )


def test_heisenberg_type_identity_random_z(rng):
    maps = clifford_generators(3, copies=1)
    g = build_damek_ricci(maps)
    d = standard_decomposition(g)
    j = j_generators(d.algebra, d.v_indices, d.z_indices)
    for _ in range(20):
        zc = rng.standard_normal(len(d.z_indices))
        zc /= np.linalg.norm(zc)
        jz = np.einsum("a,apq->pq", zc, j)
        assert np.abs(jz @ jz + np.eye(maps.shape[1])).max() <= 1e-10


def test_damek_ricci_dimensions():
    assert build_damek_ricci(clifford_generators(1)).dim == 4
    assert build_damek_ricci(clifford_generators(2)).dim == 7
    assert build_damek_ricci(clifford_generators(3)).dim == 8


@pytest.mark.parametrize("l, copies", [(1, 1), (3, 2), (7, 1), (9, 1)])
def test_damek_ricci_extends_heisenberg_type(l, copies):
    # ad_H on v and z, then the Heisenberg brackets shifted past H
    j = clifford_generators(l, copies)
    m = j.shape[1]
    heis = algebra_to_dict(build_heisenberg_type(j))["structure_constants"]
    dr = algebra_to_dict(build_damek_ricci(j))["structure_constants"]
    assert dr[:m + l] == [[0, i, i, 0.5 if i <= m else 1.0]
                          for i in range(1, 1 + m + l)]
    assert dr[m + l:] == [[p + 1, q + 1, k + 1, c] for p, q, k, c in heis]


def test_damek_ricci_ad_h_spectrum():
    j = clifford_generators(2)
    g = build_damek_ricci(j)
    h = np.zeros(g.dim)
    h[0] = 1.0
    spec = np.sort(np.linalg.eigvalsh(ad_matrix(h, g)[1:, 1:]))
    l, m = j.shape[:2]
    expected = np.sort([0.5] * m + [1.0] * l)
    np.testing.assert_allclose(spec, expected, atol=1e-12)
    assert np.isclose(np.trace(ad_matrix(h, g)), m / 2 + l)


def test_damek_ricci_derived_is_n():
    g = build_damek_ricci(clifford_generators(1))
    assert derived_algebra(g).shape[1] == 3


@pytest.mark.parametrize("key", [(1, 1), (1, 2), (2, 1), (3, 1)])
def test_damek_ricci_standard_data(key, dr_data):
    d = dr_data[key]
    np.testing.assert_allclose(d.mu, 1.0, atol=1e-12)
    assert d.rho_star.size == 0
    np.testing.assert_allclose(d.pairs[:, 0], 0.5, atol=1e-12)
    np.testing.assert_allclose(d.pairs[:, 1], 1.0, atol=1e-12)


@pytest.mark.parametrize("l, copies", [(0, 1), (-1, 1), (1, 0), (2, -1)])
def test_clifford_generators_reject_nonpositive_counts(l, copies):
    with pytest.raises(DomainError):
        clifford_generators(l, copies)


def test_real_hyperbolic_minimal():
    g = build_real_hyperbolic(2)
    np.testing.assert_allclose(g.tensor[0, 1], [0.0, 1.0])
    assert growth_type(g) is GrowthType.EXPONENTIAL
    with pytest.raises(DomainError):
        build_real_hyperbolic(1)


def test_flat_build():
    g = build_flat(3)
    assert g.dim == 3
    assert algebra_to_dict(g)["structure_constants"] == []
