import numpy as np
import pytest

from solvharm import clifford_dr, lie_metric


@pytest.fixture(scope="session")
def dr_algebras():
    """Damek-Ricci builds used across the suite, keyed by (l, copies)."""
    keys = [(1, 1), (1, 2), (2, 1), (3, 1)]
    return {
        key: clifford_dr.build_damek_ricci(
            clifford_generators_cached(*key)
        )
        for key in keys
    }


_module_cache = {}


def clifford_generators_cached(l, copies):
    key = (l, copies)
    if key not in _module_cache:
        _module_cache[key] = clifford_dr.clifford_generators(l, copies)
    return _module_cache[key]


@pytest.fixture(scope="session")
def dr_data(dr_algebras):
    return {key: lie_metric.standard_decomposition(g)
            for key, g in dr_algebras.items()}


@pytest.fixture(scope="session")
def perturbed_theta_algebra():
    """Damek-Ricci-like algebra with j(Z) scaled to theta = 0.8.

    Still a valid solvable metric Lie algebra with standard data
    (pairs (1/2, 0.8)), but no longer Einstein or harmonic.
    """
    theta = 0.8
    return lie_metric.MetricLieAlgebra(4, (
        (0, 1, 1, 0.5),
        (0, 2, 2, 0.5),
        (0, 3, 3, 1.0),
        (1, 2, 3, theta),
    ))


@pytest.fixture(scope="session")
def generic_pair_algebra():
    """Standard solvable algebra with an off-center pair (rho, theta)."""
    rho, theta = 0.3, 0.8
    return lie_metric.MetricLieAlgebra(4, (
        (0, 1, 1, rho),
        (0, 2, 2, 1.0 - rho),
        (0, 3, 3, 1.0),
        (1, 2, 3, theta),
    ))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def _haar_rotate(g, seed):
    """``g`` in a Haar-random orthonormal basis drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((g.dim, g.dim)))
    q = q * np.sign(np.diag(r))
    tensor = np.einsum("ia,jb,ijk,kc->abc", q, q, g.tensor, q, optimize=True)
    return lie_metric.MetricLieAlgebra.from_tensor(tensor)


@pytest.fixture(scope="session")
def haar_rotate():
    return _haar_rotate
