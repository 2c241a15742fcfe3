"""Results must not depend on the orthonormal basis an algebra is given in."""

import numpy as np
import pytest

from solvharm.cli import build_report
from solvharm.config import DEFAULT_TOLS
from solvharm.curvature import curvature_norm, einstein_check, nabla_R_norm
from solvharm.lie_metric import standard_decomposition


@pytest.fixture(scope="module")
def canonical(dr_algebras, perturbed_theta_algebra):
    return {"dr-2-1": dr_algebras[(2, 1)], "dr-3-1": dr_algebras[(3, 1)],
            "perturbed-theta": perturbed_theta_algebra}


def _symmetry_ratio(g):
    return nabla_R_norm(g) / curvature_norm(g.geometry[1])


@pytest.mark.parametrize("name", ["dr-2-1", "dr-3-1", "perturbed-theta"])
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_rotated_basis_gives_canonical_results(name, seed, canonical,
                                               haar_rotate):
    g0 = canonical[name]
    g = haar_rotate(g0, seed)

    d0, d = standard_decomposition(g0), standard_decomposition(g)
    for field in ("mu", "rho_star", "pairs"):
        a, b = getattr(d0, field), getattr(d, field)
        assert a.shape == b.shape
        assert a.size == 0 or np.abs(a - b).max() <= DEFAULT_TOLS.eigen_merge

    _, c0, _ = einstein_check(g0)
    _, c, _ = einstein_check(g)
    assert abs(c - c0) <= 1e-10 * max(1.0, abs(c0))

    assert abs(_symmetry_ratio(g) - _symmetry_ratio(g0)) <= 1e-10

    assert (build_report(g)["classification"]
            == build_report(g0)["classification"])
