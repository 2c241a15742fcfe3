import math

import numpy as np
import pytest

from oracles import (classify_factor_monodromy, gamma,
                     mean_curvature_analytic, monodromy_coeffs,
                     reciprocal_gamma, stable_block_scalar)
from solvharm.config import DEFAULT_TOLS
from solvharm.errors import DomainError, NumericalError
from solvharm.hypergeom import (classify_factor, fundamental_pair, gauss_f,
                                h_factors, h_function, pair_exponents,
                                rigidity_conclusion,
                                stable_block_and_derivative, z_of_t)
from solvharm.lie_metric import standard_decomposition


# ---------------------------------------------------------------------------
# the Gauss hypergeometric function
# ---------------------------------------------------------------------------

def test_value_at_zero():
    assert gauss_f(0.3, 1.7, 0.9, 0.0) == 1.0


def test_terminating_series():
    for z in (0.1, 0.5, 0.9):
        assert np.isclose(gauss_f(-1.0, 1.0, 0.5, z), 1.0 - 2.0 * z,
                          atol=1e-14)


def test_log_identity():
    # F(1,1;2;z) = -log(1-z)/z
    for z in (0.25, 0.5, 0.85):
        expected = -math.log1p(-z) / z
        assert abs(gauss_f(1.0, 1.0, 2.0, z) - expected) <= 1e-12 * expected


def test_parameter_pole_rejected():
    with pytest.raises(DomainError):
        gauss_f(0.5, 0.5, -1.0, 0.3)
    with pytest.raises(DomainError):
        gauss_f(0.5, 0.5, 1.5, 1.0)


def test_non_finite_kernel_value_raises():
    # overflow inside scipy.special must not reach a factor or a label
    with pytest.raises(NumericalError):
        gauss_f(300.0, 300.0, 0.5, 0.9)
    with pytest.raises(NumericalError):
        gauss_f(1000.0, 1000.0, 1.5, 0.99)
    with pytest.raises(NumericalError):
        gamma(200.0)
    with pytest.raises(NumericalError):
        reciprocal_gamma(-200.5)


def _second_derivative(f, z, h=1e-3):
    # 5-point stencil, O(h^4) truncation
    return (-f(z + 2 * h) + 16 * f(z + h) - 30 * f(z)
            + 16 * f(z - h) - f(z - 2 * h)) / (12.0 * h * h)


def _first_derivative(f, z, h=1e-3):
    return (-f(z + 2 * h) + 8 * f(z + h)
            - 8 * f(z - h) + f(z - 2 * h)) / (12.0 * h)


def test_series_solves_hypergeometric_ode(rng):
    # z(1-z) u'' + (c - (a+b+1) z) u' - a b u = 0 at random parameters
    for _ in range(50):
        a = rng.uniform(-2.0, 2.5)
        b = rng.uniform(-2.0, 2.5)
        c = rng.uniform(0.3, 3.0)
        z = rng.uniform(0.05, 0.55)
        f = lambda x: gauss_f(a, b, c, x)
        scale = max(1.0, abs(f(z)), abs(_first_derivative(f, z)))
        resid = (z * (1 - z) * _second_derivative(f, z)
                 + (c - (a + b + 1) * z) * _first_derivative(f, z)
                 - a * b * f(z))
        assert abs(resid) <= 1e-8 * scale


def test_contiguity_relation(rng):
    # F(a+1,b;c;z) - F(a,b;c;z) = (b z / c) F(a+1,b+1;c+1;z)
    for _ in range(20):
        a = rng.uniform(-1.5, 2.0)
        b = rng.uniform(-1.5, 2.0)
        c = rng.uniform(0.3, 2.5)
        z = rng.uniform(0.0, 0.65)
        lhs = gauss_f(a + 1, b, c, z) - gauss_f(a, b, c, z)
        rhs = b * z / c * gauss_f(a + 1, b + 1, c + 1, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# fundamental pairs and stable blocks
# ---------------------------------------------------------------------------

def test_pair_exponent_bounds(rng):
    # a + b + 1 = 2 rho, a b = -theta^2, a < 0 < b and b <= |a| < b + 1
    for _ in range(30):
        rho = rng.uniform(0.01, 0.5)
        theta = rng.uniform(0.05, 3.0)
        a, b = pair_exponents(rho, theta)
        assert a < 0.0 < b
        assert abs(a + b + 1.0 - 2.0 * rho) <= 1e-12
        assert abs(a * b + theta * theta) <= 1e-12 * max(1.0, theta * theta)
        assert b - 1e-12 <= abs(a) < b + 1.0


def test_fundamental_pair_wronskian():
    rho, theta = 0.3, 0.8
    a, b = pair_exponents(rho, theta)
    for z in (0.1, 0.25, 0.45):
        u1, u1p, u2, u2p = fundamental_pair(a, b, rho, z)
        w = u1 * u2p - u2 * u1p
        expected = (1.0 - rho) * (z * (1.0 - z)) ** (-rho)
        assert abs(w - expected) <= 1e-10 * abs(expected)


def test_fundamental_pair_center_case():
    mu = 0.6
    for z in (0.2, 0.4):
        _, _, u2, _ = fundamental_pair(mu, 1.0 - mu, 1.0 + mu, z)
        assert abs(u2 - z ** (-mu)) <= 1e-12 * z ** (-mu)


def test_fundamental_pair_solves_ode():
    rho, theta = 0.25, 0.5
    a, b = pair_exponents(rho, theta)
    for z in (0.15, 0.35):
        for picker in (0, 2):   # u1 and u2
            f = lambda x: fundamental_pair(a, b, rho, x)[picker]
            resid = (z * (1 - z) * _second_derivative(f, z)
                     + (rho - 2 * rho * z) * _first_derivative(f, z)
                     + theta * theta * f(z))
            assert abs(resid) <= 1e-6 * max(1.0, abs(f(z)))


def test_fundamental_pair_rejects_integer_c():
    with pytest.raises(DomainError):
        fundamental_pair(1.0, 0.0, 2.0, 0.3)


def test_fundamental_pair_derivatives_are_derivatives(rng):
    # u1' and u2' equal the finite-difference derivatives of u1 and u2,
    # also away from the pair surface a + b + 1 = 2c
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(-1.5, 1.5)
        c = rng.uniform(0.15, 0.85)
        z = rng.uniform(0.1, 0.6)
        u1 = lambda x: fundamental_pair(a, b, c, x)[0]
        u2 = lambda x: fundamental_pair(a, b, c, x)[2]
        _, u1p, _, u2p = fundamental_pair(a, b, c, z)
        assert abs(u1p - _first_derivative(u1, z)) <= 1e-8 * max(1.0, abs(u1p))
        assert abs(u2p - _first_derivative(u2, z)) <= 1e-8 * max(1.0, abs(u2p))


def test_fundamental_pair_product_form_on_pair_surface():
    # with c = rho and a + b + 1 = 2 rho the derivative collapses to the
    # product form (1-c)(z(1-z))^(-c) F(-a,-b;1-c;z)
    rho, theta = 0.35, 0.7
    a, b = pair_exponents(rho, theta)
    for z in (0.1, 0.3, 0.45):
        _, _, _, u2p = fundamental_pair(a, b, rho, z)
        product = ((1.0 - rho) * (z * (1.0 - z)) ** (-rho)
                   * gauss_f(-a, -b, 1.0 - rho, z))
        assert abs(u2p - product) <= 1e-11 * abs(product)


def _t_of_z(z):
    return math.atanh(1.0 - 2.0 * z)


def test_stable_block_vanishes_at_origin():
    # decay rate is z^(rho/2): slow but monotone toward zero
    rho = 0.5
    ts = [_t_of_z(z) for z in (0.3, 0.1, 1e-3, 1e-6, 1e-9, 1e-12)]
    norms = [np.linalg.norm(stable_block_and_derivative(rho, 1.0, t)[0])
             for t in ts]
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
    rates = [n / z_of_t(t) ** (rho / 2.0) for n, t in zip(norms, ts)]
    assert max(rates) <= 10.0 * min(rates)


@pytest.mark.parametrize("rho,theta", [(0.5, 1.0), (0.25, 0.5), (0.3, 0.8),
                                       (0.1, 3.0), (0.5, 1e-3)])
def test_stable_block_grid_matches_scalar_calls(rho, theta):
    t = np.concatenate([[0.0], np.linspace(0.5, 8.0, 26), [20.0]])
    z = z_of_t(t)
    assert z.shape == t.shape
    np.testing.assert_allclose(z, [z_of_t(x) for x in t], rtol=1e-15, atol=0)
    m, dm = stable_block_and_derivative(rho, theta, t)
    assert m.shape == dm.shape == (t.size, 2, 2)
    for n, tn in enumerate(t):
        # the columns cancel against Killing fields of size up to
        # cosh(t)^max(rho, 1 - rho): roundoff is relative to those
        bound = 1e-14 * math.cosh(tn) ** max(rho, 1.0 - rho)
        single = stable_block_and_derivative(rho, theta, tn)
        for got, want in zip((m[n], dm[n]), single):
            assert want.shape == (2, 2)
            assert np.abs(got - want).max() <= bound
        for got, want in zip((m[n], dm[n]),
                             stable_block_scalar(rho, theta, tn)):
            assert np.abs(got - want).max() <= bound


def test_stable_block_determinant_law():
    # det = -4^rho (1-rho) theta sqrt(z/(1-z)) (u1 + F(-a,-b;1-rho;z) - 2)/z
    rho, theta = 0.3, 0.8
    a, b = pair_exponents(rho, theta)
    ratios = []
    for z in np.linspace(0.05, 0.45, 9):
        block, _ = stable_block_and_derivative(rho, theta, _t_of_z(z))
        pair_term = (gauss_f(a, b, rho, z)
                     + gauss_f(-a, -b, 1.0 - rho, z) - 2.0) / z
        closed = (-(4.0 ** rho) * (1.0 - rho) * theta
                  * math.sqrt(z / (1.0 - z)) * pair_term)
        ratios.append(np.linalg.det(block) / closed)
    ratios = np.array(ratios)
    assert np.abs(ratios - 1.0).max() <= 1e-8


def test_stable_block_solves_jacobi_system():
    # columns of the t-form block satisfy the pair Jacobi equation
    rho, theta = 0.5, 1.0
    t0 = math.atanh(1.0 - 2.0 * 0.25)   # z = 1/4
    h = 1e-4
    m_plus, _ = stable_block_and_derivative(rho, theta, t0 + h)
    m_mid, _ = stable_block_and_derivative(rho, theta, t0)
    m_minus, _ = stable_block_and_derivative(rho, theta, t0 - h)
    d2 = (m_plus - 2 * m_mid + m_minus) / (h * h)
    d1 = (m_plus - m_minus) / (2 * h)
    ch, sh = math.cosh(t0), math.sinh(t0)
    r11 = (theta**2 / 4 - rho - sh * sh * rho * rho) / (ch * ch)
    r22 = (theta**2 / 4 - (1 - rho) - sh * sh * (1 - rho) ** 2) / (ch * ch)
    r12 = sh * theta * (rho - 0.5) / (ch * ch)
    r_op = np.array([[r11, r12], [r12, r22]])
    w_conn = theta / (2 * ch) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    w_dot = -theta * sh / (2 * ch * ch) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    resid = (d2 + 2 * w_conn @ d1
             + (w_dot + w_conn @ w_conn + r_op) @ m_mid)
    assert np.abs(resid).max() <= 1e-6


def test_gauss_f_on_a_grid_keeps_every_check():
    zs = np.linspace(-0.5, 0.9, 15)
    values = gauss_f(0.3, 1.7, 0.9, zs)
    assert np.array_equal(values, [gauss_f(0.3, 1.7, 0.9, z) for z in zs])
    with pytest.raises(DomainError, match="got 1.0"):
        gauss_f(0.5, 0.5, 1.5, np.array([0.2, 1.0]))
    with pytest.raises(DomainError):
        gauss_f(0.5, 0.5, -1.0, zs)
    with pytest.raises(NumericalError):
        gauss_f(300.0, 300.0, 0.5, np.array([0.1, 0.9]))


# ---------------------------------------------------------------------------
# the rigidity function h
# ---------------------------------------------------------------------------

def test_h_damek_ricci_constant():
    zs = np.linspace(0.05, 0.5, 30)
    values = np.array([h_function([], [], [(0.5, 1.0)], z) for z in zs])
    assert np.abs(values + 4.0).max() <= 1e-9
    assert h_function([], [], [(0.5, 1.0)], 0.0) == -4.0


def test_h_real_hyperbolic_is_one():
    zs = np.linspace(0.05, 0.5, 10)
    values = [h_function([1.0, 1.0, 1.0], [], np.zeros((0, 2)), z) for z in zs]
    np.testing.assert_allclose(values, 1.0, atol=1e-13)


def test_h_kernel_factor_not_constant():
    zs = np.linspace(0.05, 0.5, 30)
    values = np.array([h_function([1.0], [0.5], [(0.5, 1.0)], z) for z in zs])
    assert values.max() - values.min() > 1e-3


def test_h_factors_layout(dr_data):
    mu_f, rho_star, pairs = dr_data[(2, 1)].frame_factor_data()
    factors = h_factors(mu_f, rho_star, pairs, 0.2)
    assert factors.shape == (3,)   # one leftover mu=1, two pairs
    np.testing.assert_allclose(factors[0], 1.0, atol=1e-13)
    np.testing.assert_allclose(factors[1:], -4.0, atol=1e-11)


def test_h_on_a_grid_matches_pointwise(generic_pair_algebra, dr_data):
    # one row per z, bit for bit, including the z = 0 limits
    zs = np.linspace(0.0, 0.9, 40)
    for d in (standard_decomposition(generic_pair_algebra), dr_data[(2, 1)]):
        mu_f, rho_star, pairs = d.frame_factor_data()
        grid = h_factors(mu_f, rho_star, pairs, zs)
        rows = np.array([h_factors(mu_f, rho_star, pairs, z) for z in zs])
        assert grid.shape == rows.shape == (len(zs), rows.shape[1])
        assert np.array_equal(grid, rows)
        h = h_function(mu_f, rho_star, pairs, zs)
        assert np.array_equal(h, [h_function(mu_f, rho_star, pairs, z)
                                  for z in zs])
    assert h_factors([], [], np.zeros((0, 2)), zs).shape == (len(zs), 0)
    np.testing.assert_array_equal(h_function([], [], np.zeros((0, 2)), zs), 1.0)
    with pytest.raises(DomainError):
        h_function([], [], [(0.5, 1.0)], np.array([0.5, -0.1]))


def test_mean_curvature_analytic_damek_ricci(dr_data):
    d = dr_data[(3, 1)]
    for t in (0.5, 2.0, 6.0):
        assert abs(mean_curvature_analytic(d, t) - d.trace_ad_h) <= 1e-7


def test_mean_curvature_analytic_matches_numeric(dr_data):
    from solvharm.jacobi_flow import (mean_curvature_numeric,
                                      stable_jacobi_tensor)
    d = dr_data[(2, 1)]
    grid = np.linspace(0.5, 8.0, 16)
    m_fd, _ = mean_curvature_numeric(stable_jacobi_tensor(d, grid))
    analytic = np.array([mean_curvature_analytic(d, t) for t in grid])
    assert np.abs(m_fd - analytic).max() <= 1e-5


def test_mean_curvature_analytic_tail(perturbed_theta_algebra):
    d = standard_decomposition(perturbed_theta_algebra)
    # the log-derivative correction decays to zero since h(0) != 0
    deviations = [abs(mean_curvature_analytic(d, t) - d.trace_ad_h)
                  for t in (0.5, 2.0, 5.0, 9.0)]
    assert deviations[0] > 1e-3
    assert deviations[-1] <= 1e-6
    assert all(b < a for a, b in zip(deviations, deviations[1:]))


# ---------------------------------------------------------------------------
# gamma and monodromy, the oracles of the factor classifier
# ---------------------------------------------------------------------------

def test_gamma_values():
    assert abs(gamma(1.0) - 1.0) <= 1e-14
    assert abs(gamma(5.0) - 24.0) <= 1e-12 * 24.0
    assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-13


def test_gamma_duplication_formula(rng):
    # Gamma(2x) = Gamma(x) Gamma(x + 1/2) 2^(2x-1) / sqrt(pi)
    for _ in range(20):
        x = rng.uniform(0.1, 14.0)
        lhs = gamma(2.0 * x)
        rhs = gamma(x) * gamma(x + 0.5) * 2.0 ** (2.0 * x - 1.0) / math.sqrt(math.pi)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_gamma_negative_argument():
    # reflection: Gamma(-0.5) = -2 sqrt(pi)
    assert abs(gamma(-0.5) + 2.0 * math.sqrt(math.pi)) <= 1e-12


def test_gamma_pole_rejected():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-3.0)


def test_reciprocal_gamma_zeros():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-7.0) == 0.0
    assert abs(reciprocal_gamma(3.0) - 0.5) <= 1e-13


def test_monodromy_center_terminating():
    m = monodromy_coeffs(1.0, 0.0, 2.0)
    assert m.b11 == 1.0 and m.b12 == 0.0


def test_monodromy_center_nontrivial():
    m = monodromy_coeffs(0.5, 0.5, 1.5)
    assert abs(m.b12) > 0.1


def test_monodromy_integer_parameter_zero():
    m = monodromy_coeffs(-1.0, 1.0, 0.5)
    assert m.b12 == 0.0
    # c - a in Z_0^- forces B12 = 0 through the reciprocal gamma
    m = monodromy_coeffs(1.5, 0.3, 0.5)
    assert m.b12 == 0.0
    # and c - b likewise
    m = monodromy_coeffs(0.3, 2.5, 0.5)
    assert m.b12 == 0.0


def test_monodromy_rejects_integer_c():
    with pytest.raises(DomainError):
        monodromy_coeffs(0.3, 0.4, 1.0)


def test_monodromy_matches_numeric_continuation():
    # continuation along the loop around z=1 evaluated through the
    # connection formula oracle: for real a, b, c with c-a-b > 0 the
    # continued branch at the basepoint must differ from u1 by
    # B11 u1 + B12 u2 with the computed coefficients; spot-check that
    # |B11|^2 + |B12|^2 > 0 and B11 -> 1 as the loop trivializes (b -> 0)
    drift = []
    for b in (0.5, 0.1, 0.01, 0.001):
        m = monodromy_coeffs(0.7, b, 1.7)
        drift.append(abs(m.b11 - 1.0))
    assert all(y < x for x, y in zip(drift, drift[1:]))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classifier_examples():
    assert classify_factor("center", 1.0) == ("constant", None)
    for mu in (0.3, 0.5, 0.9):
        assert classify_factor("center", mu) == ("unbounded", None)
    for rho_star in (0.25, 0.5, 0.75):
        assert classify_factor("kernel", rho_star) == ("unbounded", None)
    assert classify_factor("pair", 0.5, 1.0) == ("polynomial", 0)
    for theta in (2.0, 3.0):
        assert classify_factor("pair", 0.5, theta) == ("polynomial", theta - 1)
    assert classify_factor("pair", 0.5, math.sqrt(6.0)) == ("unbounded", None)
    assert classify_factor("pair", 0.3, 0.8) == ("unbounded", None)


# offsets around 1/2 and the integers: 0, +-1e-14 ... +-1e-8
_OFFSETS = [0.0] + [sign * d for d in (1e-14, 1e-12, 1e-11, 2e-11, 5e-11,
                                       7e-11, 9e-11, 1e-10, 1.5e-10, 2e-10,
                                       5e-10, 1e-9, 1e-8)
                    for sign in (1.0, -1.0)]


def test_classifier_matches_monodromy_oracle_on_grid():
    # every rho within the pair domain (rho <= 1/2 + 1e-12) and every
    # integer theta +- offset, where the snap windows decide
    rhos = ([0.5 + d for d in _OFFSETS if d <= 1e-12]
            + np.linspace(0.01, 0.5, 50).tolist())
    thetas = ([k + d for k in range(1, 21) for d in _OFFSETS]
              + np.linspace(0.01, 20.5, 300).tolist())
    labels = set()
    for rho in rhos:
        for theta in thetas:
            got = classify_factor("pair", rho, theta)
            assert got == classify_factor_monodromy("pair", rho, theta), \
                (rho, theta)
            labels.add(got)
    assert len(rhos) * len(thetas) == 55440
    assert {("polynomial", k - 1) for k in range(1, 21)} < labels
    for factor in (("center", 1.0), ("center", 1.0 - 5e-11),
                   ("center", 0.6), ("kernel", 0.25)):
        assert classify_factor(*factor) == classify_factor_monodromy(*factor)


def test_classifier_degenerate_pairs_are_unbounded():
    tols = DEFAULT_TOLS
    # theta <= classifier_zero at rho = 1/2: a = -theta and b = theta both
    # snap to 0, which is no positive integer (the monodromy classifier
    # read a polynomial of degree -1)
    for theta in (1e-11, tols.classifier_zero):
        assert classify_factor("pair", 0.5, theta) == ("unbounded", None)
        assert classify_factor_monodromy("pair", 0.5, theta)[1] == -1
    # rho <= classifier_zero: c = rho snaps to the integer 0, where the
    # monodromy formula has no value
    for rho in (1e-11, tols.classifier_zero):
        assert classify_factor("pair", rho, 1.0) == ("unbounded", None)
        with pytest.raises(DomainError):
            classify_factor_monodromy("pair", rho, 1.0)


def test_classifier_rejects_invalid_spec():
    for factor in (("center", 1.5), ("center", 0.0), ("kernel", 1.0),
                   ("pair", 0.7, 1.0), ("pair", 0.5, -1.0)):
        with pytest.raises(DomainError):
            classify_factor(*factor)


def test_polynomial_pair_factor_really_is_polynomial():
    # theta = 2, rho = 1/2: b = 2, factor 2 (F(-2,2;1/2;z) - 1)/z linear
    zs = np.linspace(0.05, 0.5, 7)
    vals = np.array([h_factors([], [], [(0.5, 2.0)], z)[0] for z in zs])
    coeffs = np.polyfit(zs, vals, 1)
    assert np.abs(np.polyval(coeffs, zs) - vals).max() <= 1e-10


def test_rigidity_conclusion_cases(dr_data, perturbed_theta_algebra):
    for key in ((1, 1), (2, 1), (3, 1)):
        is_rigid, factors = rigidity_conclusion(dr_data[key])
        assert is_rigid
        assert all(f["label"] != "unbounded" for f in factors)
    from solvharm.clifford_dr import build_real_hyperbolic
    is_rigid, _ = rigidity_conclusion(
        standard_decomposition(build_real_hyperbolic(5)))
    assert is_rigid

    d = standard_decomposition(perturbed_theta_algebra)
    is_rigid, factors = rigidity_conclusion(d)
    assert not is_rigid
    offending = [f for f in factors if f["label"] == "unbounded"]
    assert len(offending) == 1 and offending[0]["kind"] == "pair"
    assert abs(offending[0]["theta"] - 0.8) <= 1e-12


def _parameter_rule(d, tol=1e-8):
    """The former verdict: no kernel, every mu = 1, every pair (1/2, 1)."""
    pairs = d.pairs.reshape(-1, 2)
    return bool(len(d.rho_star) == 0
                and np.all(np.abs(d.mu - 1.0) <= tol)
                and np.all(np.abs(pairs[:, 0] - 0.5) <= tol)
                and np.all(np.abs(pairs[:, 1] - 1.0) <= tol))


def test_rigidity_verdict_matches_parameter_rule(haar_rotate,
                                                 perturbed_theta_algebra,
                                                 generic_pair_algebra):
    from solvharm.clifford_dr import build_damek_ricci, clifford_generators
    from solvharm.lie_metric import MetricLieAlgebra
    cases = [(haar_rotate(build_damek_ricci(clifford_generators(l, c)), seed),
              True)
             for seed, (l, c) in enumerate(((1, 1), (2, 1), (3, 1), (5, 1),
                                            (7, 2)), start=11)]
    cases += [(perturbed_theta_algebra, False), (generic_pair_algebra, False)]
    # pair (1/2, 2): bounded, but a polynomial of degree 1
    cases.append((MetricLieAlgebra(4, ((0, 1, 1, 0.5), (0, 2, 2, 0.5),
                                       (0, 3, 3, 1.0), (1, 2, 3, 2.0))), False))
    # j(Z_top) vanishes on v: two kernel factors rho* = 0.4
    kernel = MetricLieAlgebra(5, ((0, 1, 1, 0.4), (0, 2, 2, 0.4),
                                  (0, 3, 3, 0.8), (0, 4, 4, 1.0),
                                  (1, 2, 3, 0.9)))
    cases.append((kernel, False))
    labels = []
    for g, rigid in cases:
        d = standard_decomposition(g)
        is_rigid, factors = rigidity_conclusion(d)
        assert is_rigid is rigid
        assert _parameter_rule(d) is rigid
        labels.append(sorted((f["label"], f["degree"]) for f in factors))
    assert ("polynomial", 1) in labels[-2]
    assert len(standard_decomposition(kernel).rho_star) == 2


def test_classifier_evaluator_coherence(rng):
    # bounded-classified data yields numerically constant h; any
    # unbounded factor forces visible variation on [0.05, 0.5]
    zs = np.linspace(0.05, 0.5, 25)
    cases = []
    for m_pairs in (1, 2, 3):
        cases.append(([1.0], [], [(0.5, 1.0)] * m_pairs))       # rigid
        cases.append(([1.0, 1.0], [], [(0.5, 1.0)] * m_pairs))
    cases.append(([1.0], [], np.zeros((0, 2))))                  # hyperbolic
    for _ in range(5):
        mu = float(rng.uniform(0.3, 0.9))
        cases.append(([mu], [], [(0.5, 1.0)]))                   # bad center
    for _ in range(4):
        rs = float(rng.uniform(0.25, 0.75))
        cases.append(([1.0], [rs], [(0.5, 1.0)]))                # kernel
    for _ in range(4):
        theta = float(rng.uniform(0.5, 0.9))
        cases.append(([1.0], [], [(0.5, theta)]))                # bad pair
    assert len(cases) >= 20
    for mu, rho_star, pairs in cases:
        verdicts = ([classify_factor("center", m) for m in mu]
                    + [classify_factor("kernel", r) for r in rho_star]
                    + [classify_factor("pair", r, t)
                       for r, t in np.asarray(pairs).reshape(-1, 2)])
        all_bounded = all(label != "unbounded" for label, _ in verdicts)
        values = np.array([h_function(mu, rho_star, pairs, z) for z in zs])
        rel_var = (values.max() - values.min()) / max(np.abs(values).max(), 1e-30)
        poly_degrees = [degree for label, degree in verdicts
                        if label == "polynomial"]
        if all_bounded and all(deg == 0 for deg in poly_degrees):
            assert rel_var <= 1e-8
        if not all_bounded:
            assert rel_var > 1e-4


def test_rigidity_conclusion_rows_layout(dr_data):
    # one row per factor of h in frame_factor_data() order (centers,
    # kernels, pairs), keyed kind, its parameters, label, degree
    from solvharm.lie_metric import MetricLieAlgebra
    kernel = MetricLieAlgebra(5, ((0, 1, 1, 0.4), (0, 2, 2, 0.4),
                                  (0, 3, 3, 0.8), (0, 4, 4, 1.0),
                                  (1, 2, 3, 0.9)))
    keys = {"center": ["mu"], "kernel": ["rho_star"],
            "pair": ["rho", "theta"]}
    for d in (dr_data[(3, 1)], standard_decomposition(kernel)):
        mu_f, rho_star, pairs = d.frame_factor_data()
        _, factors = rigidity_conclusion(d)
        assert [f["kind"] for f in factors] == (
            ["center"] * len(mu_f) + ["kernel"] * len(rho_star)
            + ["pair"] * len(pairs))
        assert [[f[k] for k in keys[f["kind"]]] for f in factors] == (
            [[m] for m in mu_f.tolist()] + [[r] for r in rho_star.tolist()]
            + pairs.tolist())
        for f in factors:
            assert list(f) == ["kind"] + keys[f["kind"]] + ["label", "degree"]
            assert (f["label"], f["degree"]) == classify_factor(
                f["kind"], *(f[k] for k in keys[f["kind"]]))
