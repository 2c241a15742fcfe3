import numpy as np
import pytest

from oracles import j_generators
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.errors import DomainError
from solvharm.lie_metric import (ad_matrix, algebra_to_dict,
                                 derived_algebra, growth_type, GrowthType,
                                 nilpotency_class, standard_decomposition)


def test_l1_generator_is_plane_rotation():
    cm = clifford_generators(1)
    np.testing.assert_allclose(cm.generators[0], [[0.0, -1.0], [1.0, 0.0]])


def test_l3_quaternionic_generators():
    cm = clifford_generators(3)
    assert cm.m == 4
    assert cm.relation_residual() == 0.0


def test_l2_two_copies():
    cm = clifford_generators(2, copies=2)
    assert cm.m == 8
    assert cm.relation_residual() <= 1e-12


@pytest.mark.parametrize("l,expected", [(1, 2), (2, 4), (3, 4), (4, 8),
                                        (5, 8), (6, 8), (7, 8), (8, 16),
                                        (9, 32), (16, 256)])
def test_module_dimension_table(l, expected):
    assert clifford_generators(l).m == expected


@pytest.mark.parametrize("l", range(1, 10))
def test_clifford_relations_hold(l):
    assert clifford_generators(l).relation_residual() <= 1e-12


def test_heisenberg_type_classical():
    g = build_heisenberg_type(clifford_generators(1))
    assert g.dim == 3
    assert nilpotency_class(g) == 2
    np.testing.assert_allclose(
        g.tensor[0, 1], [0.0, 0.0, 1.0]
    )


def test_heisenberg_type_identity_random_z(rng):
    cm = clifford_generators(3, copies=1)
    g = build_damek_ricci(cm)
    d = standard_decomposition(g)
    j = j_generators(d.algebra, d.v_indices, d.z_indices)
    for _ in range(20):
        zc = rng.standard_normal(len(d.z_indices))
        zc /= np.linalg.norm(zc)
        jz = np.einsum("a,apq->pq", zc, j)
        assert np.abs(jz @ jz + np.eye(cm.m)).max() <= 1e-10


def test_damek_ricci_dimensions():
    assert build_damek_ricci(clifford_generators(1)).dim == 4
    assert build_damek_ricci(clifford_generators(2)).dim == 7
    assert build_damek_ricci(clifford_generators(3)).dim == 8


@pytest.mark.parametrize("l, copies", [(1, 1), (3, 2), (7, 1), (9, 1)])
def test_damek_ricci_extends_heisenberg_type(l, copies):
    # ad_H on v and z, then the Heisenberg brackets shifted past H
    cm = clifford_generators(l, copies)
    m = cm.m
    heis = algebra_to_dict(build_heisenberg_type(cm))["structure_constants"]
    dr = algebra_to_dict(build_damek_ricci(cm))["structure_constants"]
    assert dr[:m + l] == [[0, i, i, 0.5 if i <= m else 1.0]
                          for i in range(1, 1 + m + l)]
    assert dr[m + l:] == [[p + 1, q + 1, k + 1, c] for p, q, k, c in heis]


def test_damek_ricci_ad_h_spectrum():
    cm = clifford_generators(2)
    g = build_damek_ricci(cm)
    h = np.zeros(g.dim)
    h[0] = 1.0
    spec = np.sort(np.linalg.eigvalsh(ad_matrix(h, g)[1:, 1:]))
    expected = np.sort([0.5] * cm.m + [1.0] * cm.l)
    np.testing.assert_allclose(spec, expected, atol=1e-12)
    assert np.isclose(np.trace(ad_matrix(h, g)), cm.m / 2 + cm.l)


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
