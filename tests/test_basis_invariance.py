"""Results must not depend on the orthonormal basis an algebra is given in,
nor on a constant rescaling of its metric."""

import numpy as np
import pytest

from solvharm.cli import build_report
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_heisenberg_type,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.config import DEFAULT_TOLS
from solvharm.curvature import curvature_norm, einstein_check, nabla_R_norm
from solvharm.lie_metric import standard_decomposition

NAMES = ["dr-2-1", "dr-3-1", "perturbed-theta", "generic-pair"]


@pytest.fixture(scope="module")
def canonical(dr_algebras, perturbed_theta_algebra, generic_pair_algebra):
    return {"dr-2-1": dr_algebras[(2, 1)], "dr-3-1": dr_algebras[(3, 1)],
            "perturbed-theta": perturbed_theta_algebra,
            "generic-pair": generic_pair_algebra}


@pytest.fixture(scope="module")
def canonical_reports(canonical):
    return {name: build_report(g) for name, g in canonical.items()}


def _symmetry_ratio(g):
    return nabla_R_norm(g) / curvature_norm(g.curvature)


def _assert_same_spectral_data(g0, g):
    d0, d = standard_decomposition(g0), standard_decomposition(g)
    for field in ("mu", "rho_star", "pairs"):
        a, b = getattr(d0, field), getattr(d, field)
        assert a.shape == b.shape
        assert a.size == 0 or np.abs(a - b).max() <= DEFAULT_TOLS.eigen_merge


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_rotated_basis_gives_canonical_results(name, seed, canonical,
                                               canonical_reports, haar_rotate):
    g0 = canonical[name]
    g = haar_rotate(g0, seed)
    _assert_same_spectral_data(g0, g)

    _, c0, _ = einstein_check(g0)
    _, c, _ = einstein_check(g)
    assert abs(c - c0) <= 1e-10 * max(1.0, abs(c0))

    assert abs(_symmetry_ratio(g) - _symmetry_ratio(g0)) <= 1e-10

    rep0, rep = canonical_reports[name], build_report(g)
    assert rep["classification"] == rep0["classification"]
    # the stable Jacobi tensor reads the frame off the adapted basis
    assert abs(rep["mean_curvature"]["numeric"]
               - rep0["mean_curvature"]["numeric"]) <= 1e-12


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("factor", [0.5, 3.0])
def test_rescaled_metric_gives_canonical_results(name, factor, canonical,
                                                 canonical_reports):
    g0 = canonical[name]
    g = g0.rescaled(factor)
    _assert_same_spectral_data(g0, g)
    # nabla R / R carries one inverse length, so it scales with the brackets
    assert abs(_symmetry_ratio(g) - factor * _symmetry_ratio(g0)) <= 1e-10
    assert (build_report(g)["classification"]
            == canonical_reports[name]["classification"])


@pytest.fixture(scope="module")
def scale_inputs(dr_algebras, perturbed_theta_algebra, generic_pair_algebra,
                 haar_rotate):
    dr_7_2 = build_damek_ricci(clifford_generators(7, 2))
    return {"dr-1-1": dr_algebras[(1, 1)], "dr-2-1": dr_algebras[(2, 1)],
            "dr-3-1": dr_algebras[(3, 1)],
            "perturbed-theta": perturbed_theta_algebra,
            "generic-pair": generic_pair_algebra,
            "heisenberg-3": build_heisenberg_type(clifford_generators(1)),
            "real-hyperbolic-4": build_real_hyperbolic(4),
            "flat-3": build_flat(3),
            # the Jacobi residual of a rotated basis is rounding noise that
            # grows as c^2 (5e-10 at c = 1e3)
            "rotated-dr-3-1": haar_rotate(dr_algebras[(3, 1)], 11),
            "rotated-dr-7-2": haar_rotate(dr_7_2, 11)}


@pytest.mark.parametrize("name", ["dr-1-1", "dr-2-1", "dr-3-1",
                                  "perturbed-theta", "generic-pair",
                                  "heisenberg-3", "real-hyperbolic-4",
                                  "flat-3", "rotated-dr-3-1",
                                  "rotated-dr-7-2"])
def test_label_is_scale_free(name, scale_inputs):
    # Flat, Einstein, symmetric and the Jacobi identity compare with
    # tolerances times the scale of the brackets, so no rescaling makes a
    # space look flat or stops it from being built
    g = scale_inputs[name]
    label = build_report(g)["classification"]
    assert [build_report(g.rescaled(c))["classification"]
            for c in (1e-9, 1e-6, 1e-3, 1e3)] == [label] * 4
