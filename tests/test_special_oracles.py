"""Special functions of ``hypergeom``, and the gamma and monodromy
oracles of the factor classifier, against mpmath at 40 digits.

The parameter families are the ones the pipeline evaluates: center and
kernel factors F(m, 1-m; 1+m; z), the two halves of a pair factor
F(a, b; rho; z) and F(-a, -b; 1-rho; z), and the three shifted series
that ``fundamental_pair`` adds to the first of them.
"""

import numpy as np
import pytest

from oracles import gamma, monodromy_coeffs, reciprocal_gamma
from solvharm.hypergeom import gauss_f, pair_exponents

mpmath = pytest.importorskip("mpmath")

_CENTERS = (0.05, 0.3, 0.5, 0.75, 1.0)
_PAIRS = [(rho, theta) for rho in (0.05, 0.25, 0.3, 0.5)
          for theta in (0.05, 0.3, 0.8, 1.0, 2.0, 3.0)]


def _pipeline_params():
    for m in _CENTERS:
        yield m, 1.0 - m, 1.0 + m
    for rho, theta in _PAIRS:
        a, b = pair_exponents(rho, theta)
        c = rho
        yield a, b, c
        yield -a, -b, 1.0 - c
        yield a + 1, b + 1, c + 1
        yield 1 + a - c, 1 + b - c, 2 - c
        yield 1 + a - c, 1 + b - c, 1 - c


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def test_gauss_f_matches_mpmath():
    zs = np.concatenate([np.linspace(-0.95, -0.01, 8),
                         np.linspace(0.01, 0.95, 12)])
    count = 0
    for a, b, c in _pipeline_params():
        for z in zs:
            ref = float(mpmath.hyp2f1(a, b, c, z))
            value = gauss_f(a, b, c, float(z))
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (a, b, c, z)
            count += 1
    assert count == 20 * (len(_CENTERS) + 5 * len(_PAIRS))


def _off_poles():
    xs = np.linspace(-3.0, 6.0, 361)
    return [float(x) for x in xs
            if round(x) > 0 or abs(x - round(x)) > 1e-3]


def test_gamma_matches_mpmath():
    for x in _off_poles():
        ref = float(mpmath.gamma(x))
        assert abs(gamma(x) - ref) <= 1e-14 * abs(ref), x


def test_reciprocal_gamma_matches_mpmath():
    for x in _off_poles():
        ref = float(mpmath.rgamma(x))
        assert abs(reciprocal_gamma(x) - ref) <= 1e-14 * abs(ref), x
    for pole in (0.0, -1.0, -2.0, -3.0):
        assert reciprocal_gamma(pole) == 0.0


def _terminating(a, b):
    return any(x <= 0.0 and abs(x - round(x)) <= 1e-12 for x in (a, b))


def _monodromy_params():
    """Classifier parameters, split into (terminating, the others)."""
    params = [(m, 1.0 - m, 1.0 + m) for m in _CENTERS]
    for rho, theta in _PAIRS:
        a, b = pair_exponents(rho, theta)
        params += [(a, b, rho), (-a, -b, 1.0 - rho)]
    return ([p for p in params if _terminating(*p[:2])],
            [p for p in params if not _terminating(*p[:2])])


def test_monodromy_coeffs_match_gamma_ratio_formula():
    # B11 = 1 - 2i e^{i pi (c-a-b)} sin(pi a) sin(pi b) / sin(pi c)
    # B12 = -2 pi i e^{i pi (c-a-b)} G(c) G(c-1) / (G(c-a) G(c-b) G(a) G(b))
    mp = mpmath
    terminating, general = _monodromy_params()
    assert terminating and general
    for a, b, c in terminating:
        m = monodromy_coeffs(a, b, c)
        assert (m.b11, m.b12) == (1.0, 0.0), (a, b, c)
    for a, b, c in general:
        m = monodromy_coeffs(a, b, c)
        a_, b_, c_ = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        phase = mp.expjpi(c_ - a_ - b_)
        b11 = 1 - 2j * phase * mp.sinpi(a_) * mp.sinpi(b_) / mp.sinpi(c_)
        b12 = (-2j * mp.pi * phase * mp.gamma(c_) * mp.gamma(c_ - 1)
               * mp.rgamma(c_ - a_) * mp.rgamma(c_ - b_)
               * mp.rgamma(a_) * mp.rgamma(b_))
        for got, ref in ((m.b11, b11), (m.b12, b12)):
            assert abs(got - complex(ref)) <= 1e-12 * max(1.0, abs(ref)), \
                (a, b, c)


def test_monodromy_coeffs_continue_u1_around_one():
    # DLMF 15.10.21: u1 = A w3 + C w4 with w4 = (1-z)^(c-a-b) F(c-a, c-b;
    # c-a-b+1; 1-z) and C = G(c) G(a+b-c) / (G(a) G(b)); the positive loop
    # around z = 1 multiplies w4 by e^{2 pi i (c-a-b)} and fixes w3
    mp = mpmath
    checked = 0
    for a, b, c in _monodromy_params()[1]:
        m = monodromy_coeffs(a, b, c)
        a_, b_, c_ = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        coeff = (mp.gamma(c_) * mp.gamma(a_ + b_ - c_)
                 * mp.rgamma(a_) * mp.rgamma(b_))
        for z in (0.2, 0.45):
            z_ = mp.mpf(z)
            u1 = mp.hyp2f1(a_, b_, c_, z_)
            u2 = z_ ** (1 - c_) * mp.hyp2f1(1 + a_ - c_, 1 + b_ - c_, 2 - c_, z_)
            w4 = ((1 - z_) ** (c_ - a_ - b_)
                  * mp.hyp2f1(c_ - a_, c_ - b_, c_ - a_ - b_ + 1, 1 - z_))
            continued = u1 + (mp.expjpi(2 * (c_ - a_ - b_)) - 1) * coeff * w4
            got = m.b11 * complex(u1) + m.b12 * complex(u2)
            assert abs(got - complex(continued)) <= 1e-11 * max(
                1.0, abs(continued)), (a, b, c, z)
            checked += 1
    assert checked >= 2 * len(_PAIRS)

