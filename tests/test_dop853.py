"""The in-tree Dormand-Prince 8(5,3) stepper ``ode._dop853`` does
scipy's ``DOP853`` arithmetic in the same order: on every geodesic flow
that ``jacobi_flow._integrated_density`` integrates, its samples equal
scipy's bit for bit, after as many accepted steps and right-hand side
evaluations, and a failed run stops at the same (t, y)."""

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients

from oracles import damek_ricci_scaled_j, scipy_dop853
from solvharm import jacobi_flow, ode
from solvharm.clifford_dr import (build_flat, build_heisenberg_type,
                                  clifford_generators)
from solvharm.config import DEFAULT_TOLS
from solvharm.errors import NumericalError
from solvharm.lie_metric import MetricLieAlgebra


def test_tableau_is_scipys():
    c = dop853_coefficients
    assert np.array_equal(ode._DOP_A, c.A)
    assert np.array_equal(ode._DOP_B, c.B)
    assert np.array_equal(ode._DOP_E5, c.E5)
    assert np.array_equal(ode._DOP_E3, c.E3)
    assert np.array_equal(ode._DOP_D, c.D)


def _inputs(name, perturbed_theta, generic_pair):
    return {
        "perturbed-theta": lambda: perturbed_theta,
        "generic-pair": lambda: generic_pair,
        "dr-2-1-scaled-j": lambda: damek_ricci_scaled_j(2, 1, 1 + 1e-6),
        "heisenberg-3": lambda: build_heisenberg_type(clifford_generators(1)),
        "flat-4": lambda: build_flat(4),
        "flat-1": lambda: build_flat(1),
        # scaled by 1e3 its density leaves float64 near t = 0.18, and the
        # step size underflows near t = 0.71
        "dr-2-1-scaled-j-1e3": lambda: MetricLieAlgebra.from_tensor(
            damek_ricci_scaled_j(2, 1, 1 + 1e-6).tensor * 1e3),
    }[name]()


def _both_steppers(monkeypatch):
    """Run scipy's DOP853 beside every ``_dop853`` call of
    ``jacobi_flow``, on the right-hand side it binds; returns the list of
    (in-tree result or failure, its evaluations, scipy's run)."""
    runs = []

    def both(bind, y0, t_end, t_grid, rtol, atol):
        nfev = 0

        def counting(y, dy):
            rhs = bind(y, dy)

            def counted():
                nonlocal nfev
                nfev += 1
                rhs()
            return counted

        def fun(t, y):
            dy = np.empty_like(y)
            bind(y, dy)()
            return dy

        reference = scipy_dop853(fun, y0, t_end, t_grid, rtol, atol)
        try:
            result = ode._dop853(counting, y0, t_end, t_grid, rtol, atol)
        except ode._StepUnderflow as failed:
            runs.append((failed, nfev, reference))
            raise
        runs.append((result, nfev, reference))
        return result

    monkeypatch.setattr(jacobi_flow, "_dop853", both)
    return runs


def _directions(g, seed, count):
    vs = np.random.default_rng(seed).standard_normal((count, g.dim))
    return vs / np.linalg.norm(vs, axis=1, keepdims=True)


@pytest.mark.parametrize("name", ["perturbed-theta", "generic-pair",
                                  "dr-2-1-scaled-j", "heisenberg-3",
                                  "flat-4", "flat-1"])
def test_samples_and_counts_are_scipys(name, monkeypatch,
                                       perturbed_theta_algebra,
                                       generic_pair_algebra):
    g = _inputs(name, perturbed_theta_algebra, generic_pair_algebra)
    assert g.decomposition().certificate is None
    runs = _both_steppers(monkeypatch)
    for t in ([0.0, 0.5, 1.0, 2.0], [0.25, 3.0, 8.0]):
        for v in _directions(g, 41, 3):
            jacobi_flow._integrated_density(g, v, np.array(t), DEFAULT_TOLS)
    assert len(runs) == 6
    for (samples, steps), nfev, reference in runs:
        assert np.array_equal(samples, reference.samples)
        assert (steps, nfev) == (reference.steps, reference.nfev)


def _rejected(run):
    """Refused steps of a scipy run: each attempt evaluates 12 stages,
    after one evaluation at the start, one for the initial step and 3 per
    dense output."""
    attempts, left = divmod(run.nfev - 2 - 3 * run.dense, 12)
    assert left == 0
    return attempts - run.steps


def test_a_refused_step_is_retried_as_scipy_does(monkeypatch,
                                                  perturbed_theta_algebra):
    # the second direction of seed 0 is refused once on its way to t = 2
    runs = _both_steppers(monkeypatch)
    v = _directions(perturbed_theta_algebra, 0, 2)[1]
    jacobi_flow._integrated_density(perturbed_theta_algebra, v,
                                    np.array([0.0, 0.5, 1.0, 2.0]),
                                    DEFAULT_TOLS)
    [((samples, steps), nfev, reference)] = runs
    assert _rejected(reference) == 1
    assert np.array_equal(samples, reference.samples)
    assert (steps, nfev) == (reference.steps, reference.nfev)


def test_step_underflow_stops_where_scipy_fails(monkeypatch):
    g = _inputs("dr-2-1-scaled-j-1e3", None, None)
    runs = _both_steppers(monkeypatch)
    v = _directions(g, 43, 1)[0]
    with pytest.raises(NumericalError, match="volume density overflows"):
        jacobi_flow._integrated_density(g, v, np.array([0.5, 1.0]),
                                        DEFAULT_TOLS)
    [(failed, nfev, reference)] = runs
    t, y, message = reference.failure
    assert 0.5 < failed.t == t < 1.0
    assert np.array_equal(failed.y, y)
    assert str(failed) == message
    assert nfev == reference.nfev


def test_blow_up_fails_where_scipy_fails():
    # y' = y^2 from y(0) = 1 blows up at t = 1, where the step size
    # underflows
    def bind(y, dy):
        return lambda: np.multiply(y, y, out=dy)

    t_grid = np.array([0.5, 2.0])
    reference = scipy_dop853(lambda t, y: y * y, np.ones(1), 2.0, t_grid,
                             1e-11, 1e-13)
    with pytest.raises(ode._StepUnderflow) as exc:
        ode._dop853(bind, np.ones(1), 2.0, t_grid, 1e-11, 1e-13)
    t, y, message = reference.failure
    assert exc.value.t == t and abs(t - 1.0) < 1e-9
    assert np.array_equal(exc.value.y, y)
    assert str(exc.value) == message


def test_underflow_below_float64s_range_is_named(monkeypatch,
                                                   perturbed_theta_algebra):
    # a failed integration whose last state is inside float64's range is
    # named as the integration's failure, with scipy's words
    def failing(bind, y0, t_end, t_grid, rtol, atol):
        raise ode._StepUnderflow(0.25, y0)

    monkeypatch.setattr(jacobi_flow, "_dop853", failing)
    v = _directions(perturbed_theta_algebra, 0, 1)[0]
    with pytest.raises(NumericalError) as exc:
        jacobi_flow.volume_density(perturbed_theta_algebra, v,
                                   np.array([0.5, 1.0]))
    assert str(exc.value) == ("geodesic integration failed: Required step "
                              "size is less than spacing between numbers.")


def test_rtol_below_100_eps_is_raised_as_scipy_raises_it():
    # both steppers take rtol = 0 as 100 eps, and both warn
    def bind(y, dy):
        return lambda: np.multiply(y, -1.0, out=dy)

    t_grid = np.array([0.5, 1.0])
    with pytest.warns(UserWarning, match="rtol"):
        reference = scipy_dop853(lambda t, y: -y, np.ones(2), 1.0, t_grid,
                                 0.0, 1e-13)
    with pytest.warns(UserWarning, match="rtol = 0 is below 100 eps"):
        samples, steps = ode._dop853(bind, np.ones(2), 1.0, t_grid, 0.0,
                                     1e-13)
    assert np.array_equal(samples, reference.samples)
    assert steps == reference.steps
