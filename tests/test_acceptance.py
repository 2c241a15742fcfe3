"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every tolerance is pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from oracles import finite_horizon_shape, frame_connection, integrate_jacobi
from solvharm.cli import main
from solvharm.clifford_dr import (build_damek_ricci, build_flat,
                                  build_real_hyperbolic, clifford_generators)
from solvharm.curvature import einstein_check
from solvharm.hypergeom import (classify_factor, h_function,
                                rigidity_conclusion,
                                stable_block_and_derivative)
from solvharm.jacobi_flow import (CentralGeodesicFrame,
                                  mean_curvature_numeric,
                                  stable_jacobi_tensor, volume_density)
from solvharm.lie_metric import MetricLieAlgebra, standard_decomposition
from solvharm.riccati import (horosphere_mean_curvature_formula,
                              solve_algebraic_riccati_max)

_T_MODULE_START = time.perf_counter()


def _check(num, desc, ok):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_solvable_type(rng, n, low, high):
    """Orthogonally rotated quasi-triangular matrix, |Re sigma| in [low, high]."""
    t = np.zeros((n, n))
    i = 0
    while i < n:
        re = rng.uniform(low, high) * rng.choice([-1.0, 1.0])
        if i + 1 < n and rng.random() < 0.4:
            im = rng.uniform(0.2, 1.0)
            t[i: i + 2, i: i + 2] = [[re, im], [-im, re]]
            i += 2
        else:
            t[i, i] = re
            i += 1
    iu = np.triu_indices(n, k=1)
    t[iu] += 0.3 * rng.standard_normal(len(iu[0]))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ t @ q.T


def _pair_block_algebra(rho, theta):
    return MetricLieAlgebra(4, (
        (0, 1, 1, rho), (0, 2, 2, 1.0 - rho), (0, 3, 3, 1.0),
        (1, 2, 3, theta),
    ))


def test_criterion_1_riccati_trace_identity():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_trace = 0.0
    worst_oracle = 0.0
    for k in range(100):
        n = int(rng.integers(2, 9))
        a = _random_solvable_type(rng, n, low=0.35, high=0.7)
        res = solve_algebraic_riccati_max(a)
        formula = horosphere_mean_curvature_formula(a)
        worst_trace = max(worst_trace, abs(res.trace_l0 - formula))
        u40 = finite_horizon_shape(a, 40.0)
        worst_oracle = max(worst_oracle, float(np.abs(u40 + res.l0).max()))
    elapsed = time.perf_counter() - start
    _check(1, "Riccati trace identity on 100 seeded matrices "
              f"(trace dev {worst_trace:.2e} <= 1e-8, oracle dev "
              f"{worst_oracle:.2e} <= 1e-6, {elapsed:.1f}s < 10s)",
           worst_trace <= 1e-8 and worst_oracle <= 1e-6 and elapsed < 10.0)


def test_criterion_2_monotone_stable_limit():
    rng = np.random.default_rng(2)
    worst_eig = -np.inf
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = _random_solvable_type(rng, n, low=0.3, high=1.2)
        radii = (3.0, 6.0, 12.0, 24.0)
        shapes = [finite_horizon_shape(a, r) for r in radii]
        for u_r, u_big in zip(shapes, shapes[1:]):
            worst_eig = max(worst_eig,
                            float(np.linalg.eigvalsh(u_big - u_r).max()))
    worst_coth = max(
        abs(finite_horizon_shape(np.array([[1.0]]), r)[0, 0]
            - 1.0 / math.tanh(r))
        for r in (0.5, 1.0, 2.0, 5.0, 10.0)
    )
    _check(2, "monotone U_r limit on 20 cases "
              f"(max eig {worst_eig:.2e} <= 1e-9) and scalar coth "
              f"(dev {worst_coth:.2e} <= 1e-10)",
           worst_eig <= 1e-9 and worst_coth <= 1e-10)


def test_criterion_3_closed_form_vs_integration():
    worst = 0.0
    for rho, theta in ((0.5, 1.0), (0.25, 0.5), (0.3, 0.8)):
        d = standard_decomposition(_pair_block_algebra(rho, theta))
        frame = CentralGeodesicFrame.build(d)
        k = frame.size
        off = 1 + len(frame.mus) + len(frame.rho_stars)
        m0, m0p = stable_block_and_derivative(rho, theta, 0.0)
        j0 = np.zeros((k, 2))
        j0[off: off + 2] = m0
        j0p = np.zeros((k, 2))
        j0p[off: off + 2] = m0p
        j0p += frame_connection(frame, 0.0) @ j0
        s = integrate_jacobi(d, j0, j0p, 10.0, steps=100)
        for i, t in enumerate(s.t_grid):
            mt, _ = stable_block_and_derivative(rho, theta, t)
            worst = max(worst, float(np.abs(s.e[i][off: off + 2] - mt).max()))
    _check(3, "hypergeometric stable blocks match RK integration on [0, 10] "
              f"(sup dev {worst:.2e} <= 1e-6)", worst <= 1e-6)


def test_criterion_4_determinant_law():
    d = standard_decomposition(build_damek_ricci(clifford_generators(1)))
    grid = np.linspace(0.5, 8.0, 31)
    s = stable_jacobi_tensor(d, grid)
    dets = np.array([np.linalg.det(e) for e in s.e])
    log_consts = np.log(np.abs(dets)) + 2.0 * grid
    const = math.exp(float(np.mean(log_consts)))
    rel_resid = float(np.abs(dets / (const * np.exp(-2.0 * grid)) - 1.0).max())

    zs = np.linspace(0.05, 0.5, 50)
    h_vals = np.array([h_function([], [], [(0.5, 1.0)], z) for z in zs])
    drift = float(h_vals.max() - h_vals.min())
    h_dev = float(np.abs(h_vals + 4.0).max())
    _check(4, "det E = const e^{-2t} for the 4-dim Damek-Ricci space "
              f"(rel resid {rel_resid:.2e} <= 1e-6) and h = -4 "
              f"(drift {drift:.2e} <= 1e-9, dev {h_dev:.2e})",
           rel_resid <= 1e-6 and drift <= 1e-9 and h_dev <= 1e-8)


def test_criterion_5_mean_curvature_constancy():
    worst_numeric = 0.0
    worst_formula = 0.0
    for l, copies in ((1, 1), (1, 2), (2, 1), (3, 1)):
        cm = clifford_generators(l, copies)
        d = standard_decomposition(build_damek_ricci(cm))
        expected = cm.m / 2.0 + cm.l
        grid = np.linspace(0.5, 8.0, 26)
        s = stable_jacobi_tensor(d, grid)
        m_fd, _ = mean_curvature_numeric(s)
        worst_numeric = max(worst_numeric,
                            float(np.abs(m_fd - expected).max()))
        res = solve_algebraic_riccati_max(d.ad_h())
        worst_formula = max(
            worst_formula,
            abs(-res.trace_l0 - expected),
            abs(-horosphere_mean_curvature_formula(d.ad_h()) - expected),
        )
    _check(5, "numeric m(t) = trace ad_H = m/2 + l on four builds "
              f"(numeric dev {worst_numeric:.2e} <= 1e-5, formula dev "
              f"{worst_formula:.2e} <= 1e-8)",
           worst_numeric <= 1e-5 and worst_formula <= 1e-8)


def test_criterion_6_einstein_property():
    worst_resid = 0.0
    all_negative = True
    builds = [build_damek_ricci(clifford_generators(l, c))
              for l, c in ((1, 1), (1, 2), (2, 1), (3, 1))]
    builds += [build_real_hyperbolic(n) for n in (2, 4, 6)]
    for g in builds:
        ok, c, resid = einstein_check(g)
        worst_resid = max(worst_resid, resid)
        all_negative = all_negative and ok and c < 0
    _, c_flat, resid_flat = einstein_check(build_flat(4))
    _check(6, "Einstein property of all hyperbolic-type builds "
              f"(resid {worst_resid:.2e} <= 1e-8, c < 0) and flat c = 0 "
              f"(|c| = {abs(c_flat):.2e} <= 1e-12)",
           worst_resid <= 1e-8 and all_negative
           and abs(c_flat) <= 1e-12 and resid_flat <= 1e-12)


def test_criterion_7_harmonicity_density():
    times = np.array([0.5, 1.0, 2.0])
    rng = np.random.default_rng(7)

    def spread(g):
        rows = []
        for _ in range(20):
            v = rng.standard_normal(g.dim)
            v /= np.linalg.norm(v)
            rows.append(volume_density(g, v, times))
        rows = np.array(rows)
        return float(((rows.max(0) - rows.min(0))
                      / np.abs(rows.mean(0))).max())

    dr_spread = spread(build_damek_ricci(clifford_generators(1)))
    perturbed = MetricLieAlgebra(4, (
        (0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 1.0), (1, 2, 3, 0.8),
    ))
    bad_spread = spread(perturbed)
    _check(7, "volume-density direction independence: Damek-Ricci spread "
              f"{dr_spread:.2e} <= 1e-5, theta-perturbed spread "
              f"{bad_spread:.2e} > 1e-3",
           dr_spread <= 1e-5 and bad_spread > 1e-3)


def test_criterion_8_classifier_correctness():
    ok = classify_factor("center", 1.0)[0] == "constant"
    for mu in (0.3, 0.5, 0.9):
        ok = ok and classify_factor("center", mu)[0] == "unbounded"
    for rho_star in (0.25, 0.5, 0.75):
        ok = ok and classify_factor("kernel", rho_star)[0] == "unbounded"
    ok = ok and classify_factor("pair", 0.5, 1.0) == ("polynomial", 0)
    ok = ok and classify_factor("pair", 0.5, math.sqrt(6.0))[0] == "unbounded"

    # 30-case rigidity sweep: exactly the Damek-Ricci / real-hyperbolic
    # spectral data must come out rigid
    cases = []
    for l, copies in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
        g = build_damek_ricci(clifford_generators(l, copies))
        cases.append((standard_decomposition(g), True))
    for n in (2, 3, 4, 5, 6, 7, 8):
        cases.append((standard_decomposition(build_real_hyperbolic(n)), True))
    for theta in (0.7, 0.8, 0.9, 1.15, 1.4, 2.3):
        d = standard_decomposition(_pair_block_algebra(0.5, theta))
        cases.append((d, False))
    for rho in (0.2, 0.25, 0.35, 0.45):
        d = standard_decomposition(_pair_block_algebra(rho, 0.8))
        cases.append((d, False))
    for mu2 in (0.3, 0.5, 0.7, 0.9):
        g = MetricLieAlgebra(3, ((0, 1, 1, 1.0), (0, 2, 2, mu2)))
        cases.append((standard_decomposition(g), False))
    for rho_star in (0.25, 0.4, 0.45):
        # kernel factor: j(Z_top) vanishes on v, bracket feeds a lower
        # center eigenvector with mu_2 = 2 rho*
        g = MetricLieAlgebra(5, (
            (0, 1, 1, rho_star), (0, 2, 2, rho_star),
            (0, 3, 3, 2.0 * rho_star), (0, 4, 4, 1.0),
            (1, 2, 3, 0.9),
        ))
        d = standard_decomposition(g)
        assert len(d.rho_star) == 2
        cases.append((d, False))
    assert len(cases) >= 30
    sweep_ok = all(rigidity_conclusion(d)[0] == expected
                   for d, expected in cases)
    _check(8, f"factor classifier and rigidity sweep over {len(cases)} cases",
           ok and sweep_ok)


def test_criterion_9_witness_table(tmp_path):
    def label_of(build_args):
        alg = tmp_path / "alg.json"
        rep = tmp_path / "rep.json"
        assert main(["build", *build_args, "--output", str(alg)]) == 0
        assert main(["analyze", str(alg), "--output", str(rep)]) == 0
        return json.loads(rep.read_text())["classification"]

    results = {
        "flat": label_of(["flat", "--dim", "3"]),
        "real-hyperbolic-4": label_of(["real-hyperbolic", "--dim", "4"]),
        "damek-ricci-1-1": label_of(["damek-ricci", "--l", "1",
                                     "--copies", "1"]),
        "damek-ricci-2-1": label_of(["damek-ricci", "--l", "2",
                                     "--copies", "1"]),
    }
    expected = {
        "flat": "Flat",
        "real-hyperbolic-4": "RankOneSymmetric",
        "damek-ricci-1-1": "RankOneSymmetric",
        "damek-ricci-2-1": "DamekRicciNonsymmetric",
    }
    elapsed = time.perf_counter() - _T_MODULE_START
    _check(9, f"classification witness table {results} "
              f"(acceptance module elapsed {elapsed:.0f}s < 120s)",
           results == expected and elapsed < 120.0)
