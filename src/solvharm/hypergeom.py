"""Gauss hypergeometric machinery for the rigidity analysis.

F(a,b;c;z) and the gamma function from ``scipy.special`` (arguments
checked on the way in, a non-finite value raised as NumericalError), the
fundamental solution pairs of the pair-block hypergeometric equation,
the closed-form stable-field blocks, the product function h(z) whose
constancy encodes asymptotic harmonicity, the analytic mean curvature,
monodromy coefficients of the loop around z = 1, and the
constant/polynomial/unbounded classifier for the factors of h.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy import special

from .config import DEFAULT_TOLS, Tolerances
from .errors import DomainError, NumericalError
from .lie_metric import StandardSolvableData

__all__ = [
    "HypergeomParams",
    "MonodromyCoeffs",
    "CenterFactor",
    "KernelFactor",
    "PairFactor",
    "FactorSpec",
    "FactorClassification",
    "RigidityReport",
    "z_of_t",
    "gauss_f",
    "fundamental_pair",
    "pair_exponents",
    "stable_block_and_derivative",
    "h_factors",
    "h_function",
    "gamma",
    "reciprocal_gamma",
    "monodromy_coeffs",
    "classify_factor",
    "factors_from_data",
    "rigidity_conclusion",
]


def z_of_t(t: float) -> float:
    """Geodesic series variable z = (1 - tanh t)/2, evaluated stably."""
    return 1.0 / (1.0 + math.exp(2.0 * t))


def _nonpositive_int(x: float, tol: float = 1e-12) -> bool:
    r = round(x)
    return abs(x - r) <= tol and r <= 0


def _integer(x: float, tol: float = 1e-10) -> bool:
    return abs(x - round(x)) <= tol


@dataclass(frozen=True)
class HypergeomParams:
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class MonodromyCoeffs:
    b11: complex
    b12: complex


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericalError(f"{what} is not finite: {value}")
    return value


def gauss_f(a: float, b: float, c: float, z):
    """F(a, b; c; z) on |z| < 1 by ``scipy.special.hyp2f1``.

    ``z`` may be an array; a scalar ``z`` gives a float.
    """
    if _nonpositive_int(c):
        raise DomainError(f"parameter pole: c = {c} is a nonpositive integer")
    z = np.asarray(z, dtype=float)
    outside = ~(np.abs(z) < 1.0)
    if outside.any():
        raise DomainError(
            f"series argument must satisfy |z| < 1, got {z[outside].flat[0]}")
    value = special.hyp2f1(a, b, c, z)
    bad = ~np.isfinite(value)
    if bad.any():
        raise NumericalError(f"F({a}, {b}; {c}; {z[bad].flat[0]}) is not "
                             f"finite: {value[bad].flat[0]}")
    return float(value) if value.ndim == 0 else value


def fundamental_pair(p: HypergeomParams, z: float):
    """The solution pair (u1, u1', u2, u2') of the hypergeometric equation.

    u1 = F(a,b;c;z) is regular at 0; u2 = z^(1-c) F(1+a-c,1+b-c;2-c;z)
    is independent of it for c not an integer.
    """
    a, b, c = p.a, p.b, p.c
    if _integer(c):
        raise DomainError(
            f"degenerate fundamental pair: c = {c} is an integer"
        )
    if not 0.0 < z < 1.0:
        raise DomainError(f"z must lie in (0, 1), got {z}")
    u1 = gauss_f(a, b, c, z)
    u1p = a * b / c * gauss_f(a + 1, b + 1, c + 1, z)
    u2 = z ** (1.0 - c) * gauss_f(1 + a - c, 1 + b - c, 2 - c, z)
    # on the pair surface a + b + 1 = 2c this equals the product form
    # (1-c) (z(1-z))^(-c) F(-a,-b;1-c;z); this version is the derivative
    # of u2 for arbitrary parameters
    u2p = (1.0 - c) * z ** (-c) * gauss_f(1 + a - c, 1 + b - c, 1 - c, z)
    return u1, u1p, u2, u2p


def pair_exponents(rho: float, theta: float):
    """Roots a < 0 < b of x^2 - (2 rho - 1) x - theta^2 = 0.

    These satisfy a + b + 1 = 2 rho and a b = -theta^2.
    """
    disc = math.sqrt((2.0 * rho - 1.0) ** 2 + 4.0 * theta * theta)
    b = 0.5 * ((2.0 * rho - 1.0) + disc)
    return 2.0 * rho - 1.0 - b, b


def _check_pair_params(rho: float, theta: float):
    if not (0.0 < rho <= 0.5 + 1e-12):
        raise DomainError(f"pair parameter rho must be in (0, 1/2], got {rho}")
    if not theta > 0.0:
        raise DomainError(f"pair parameter theta must be positive, got {theta}")


def stable_block_and_derivative(rho: float, theta: float, t: float):
    """Stable block M(t) and its plain time derivative M'(t).

    Columns, read as coefficients (f, g) on the left-invariant pair
    (V, ~V), are the special bounded solutions of the pair Jacobi
    equation; M(t) tends to 0 as t -> infinity (z -> 0).  Each column is a first-kind solution from ker(d/dt - B(t)) plus a
    Killing-field solution from ker(d/dt - A(t)); the derivative follows
    from those two linear factorizations without finite differences.
    """
    _check_pair_params(rho, theta)
    z = z_of_t(t)
    a, b = pair_exponents(rho, theta)
    u1, u1p, u2, u2p = fundamental_pair(HypergeomParams(a, b, rho), z)
    ch, th, sech = math.cosh(t), math.tanh(t), 1.0 / math.cosh(t)
    a_mat = th * np.diag([rho, 1.0 - rho])
    b_op = a_mat + sech * np.array([[0.0, -theta], [theta, 0.0]])

    def ker_b_solution(u, up):
        return np.array([-(ch ** -rho) * up, 2.0 * theta * ch ** (1.0 - rho) * u])

    s1 = ker_b_solution(u1, u1p)
    s2 = ker_b_solution(u2, u2p)
    k1 = np.array([ch ** rho, 0.0])
    k2 = np.array([0.0, ch ** (1.0 - rho)])
    col1 = s1 - 2.0 * theta * k2
    col2 = s2 + 4.0 ** rho * (1.0 - rho) * k1
    dcol1 = b_op @ s1 - 2.0 * theta * (a_mat @ k2)
    dcol2 = b_op @ s2 + 4.0 ** rho * (1.0 - rho) * (a_mat @ k1)
    return np.column_stack([col1, col2]), np.column_stack([dcol1, dcol2])


# ---------------------------------------------------------------------------
# the rigidity function h
# ---------------------------------------------------------------------------

def h_factors(mu, rho_star, pairs, z) -> np.ndarray:
    """Individual factors of h at z, ordered (centers, kernels, pairs).

    For an array ``z`` the result has shape ``(len(z), n_factors)``, one
    C-contiguous row per z value, so a product over the last axis
    multiplies in the same order as for a single z.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    rho_star = np.atleast_1d(np.asarray(rho_star, dtype=float))
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float)
    at_zero = z == 0.0
    singles = np.concatenate([mu, rho_star])
    values = np.empty(z.shape + (len(singles) + len(pairs),))
    for i, m in enumerate(singles):
        values[..., i] = np.where(at_zero, 1.0, gauss_f(m, 1 - m, 1 + m, z))
    for i, (rho, theta) in enumerate(pairs, start=len(singles)):
        a, b = pair_exponents(rho, theta)
        num = gauss_f(a, b, rho, z) + gauss_f(-a, -b, 1 - rho, z) - 2.0
        # the z -> 0 limit of num / z
        limit = np.full(z.shape, a * b / rho + a * b / (1.0 - rho))
        values[..., i] = np.divide(num, z, out=limit, where=~at_zero)
    return values


def h_function(mu, rho_star, pairs, z):
    """The product h(z) of hypergeometric factors of the spectral data.

    At z = 0 the continuous limit prod_i (a_i b_i / rho_i +
    a_i b_i / (1 - rho_i)) is returned.  An array ``z`` gives an array.
    """
    z = np.asarray(z, dtype=float)
    outside = ~((0.0 <= z) & (z < 1.0))
    if outside.any():
        raise DomainError(
            f"h is evaluated on [0, 1), got z = {z[outside].flat[0]}")
    h = np.prod(h_factors(mu, rho_star, pairs, z), axis=-1)
    return float(h) if h.ndim == 0 else h


# ---------------------------------------------------------------------------
# gamma kernels and monodromy
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function by ``scipy.special.gamma``; a pole is a DomainError."""
    if _nonpositive_int(x):
        raise DomainError(f"gamma pole at x = {x}")
    return _finite(float(special.gamma(x)), f"gamma({x})")


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) by ``scipy.special.rgamma``, exactly 0 at the poles."""
    if _nonpositive_int(x):
        return 0.0
    return _finite(float(special.rgamma(x)), f"1/gamma({x})")


def monodromy_coeffs(p: HypergeomParams,
                     tols: Tolerances = DEFAULT_TOLS) -> MonodromyCoeffs:
    """Continuation of u1 along the positive loop around z = 1.

    The continued branch is B11 u1 + B12 u2.  Terminating series
    (a or b a nonpositive integer) are single valued: (1, 0), which also
    covers the integer-c center case mu = 1.  B12 is assembled from
    reciprocal gammas so the integer-parameter zeros are exact.
    """
    a, b, c = p.a, p.b, p.c
    if (_nonpositive_int(a, tols.classifier_zero)
            or _nonpositive_int(b, tols.classifier_zero)):
        return MonodromyCoeffs(complex(1.0), complex(0.0))
    if _integer(c, tols.classifier_zero):
        raise DomainError(f"monodromy formula needs c not an integer, got {c}")
    phase = np.exp(1j * math.pi * (c - a - b))
    b11 = 1.0 - 2j * phase * (math.sin(math.pi * a) * math.sin(math.pi * b)
                              / math.sin(math.pi * c))
    b12 = (-2j * math.pi * phase * gamma(c) * gamma(c - 1.0)
           * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)
           * reciprocal_gamma(b) * reciprocal_gamma(a))
    return MonodromyCoeffs(complex(b11), complex(b12))


# ---------------------------------------------------------------------------
# factor classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterFactor:
    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0 + 1e-12:
            raise DomainError(f"center factor needs 0 < mu <= 1, got {self.mu}")


@dataclass(frozen=True)
class KernelFactor:
    rho_star: float

    def __post_init__(self):
        if not 0.0 < self.rho_star < 1.0:
            raise DomainError(
                f"kernel factor needs 0 < rho* < 1, got {self.rho_star}"
            )


@dataclass(frozen=True)
class PairFactor:
    rho: float
    theta: float

    def __post_init__(self):
        _check_pair_params(self.rho, self.theta)

    @property
    def exponents(self):
        return pair_exponents(self.rho, self.theta)


FactorSpec = Union[CenterFactor, KernelFactor, PairFactor]


@dataclass(frozen=True)
class FactorClassification:
    label: str                      # "constant" | "polynomial" | "unbounded"
    degree: Optional[int] = None    # for polynomials
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_bounded(self) -> bool:
        return self.label != "unbounded"


def classify_factor(f: FactorSpec,
                    tols: Tolerances = DEFAULT_TOLS) -> FactorClassification:
    """Behavior of the analytic continuation of a factor of h around z = 1.

    Center factors are constant exactly for mu = 1 (terminating series)
    and unbounded otherwise; kernel factors are always unbounded.  For a
    pair factor the continued branch is A/z + B z^-c + C z^-(1-c) plus a
    bounded part; it stays bounded only when A = 0 and the singular
    coefficients cancel, which forces c = 1/2 and b a positive integer,
    giving a polynomial of degree b - 1.
    """
    tol = tols.classifier_zero
    if isinstance(f, CenterFactor):
        if abs(f.mu - 1.0) <= tol:
            return FactorClassification("constant")
        return FactorClassification("unbounded", diagnostics={"mu": f.mu})
    if isinstance(f, KernelFactor):
        return FactorClassification("unbounded",
                                    diagnostics={"rho_star": f.rho_star})
    a, b = f.exponents
    c = f.rho
    m1 = monodromy_coeffs(HypergeomParams(a, b, c), tols)
    m2 = monodromy_coeffs(HypergeomParams(-a, -b, 1.0 - c), tols)
    coeff_a = m1.b11 + m2.b11 - 2.0
    coeff_b, coeff_c = m1.b12, m2.b12
    diag = {"A": coeff_a, "B": coeff_b, "C": coeff_c, "a": a, "b": b}
    if abs(coeff_a) > tol:
        return FactorClassification("unbounded", diagnostics=diag)
    if abs(c - 0.5) <= tol and abs(coeff_b + coeff_c) <= tol:
        if abs(b - round(b)) > 1e-8:
            return FactorClassification("unbounded", diagnostics=diag)
        return FactorClassification("polynomial", degree=int(round(b)) - 1,
                                    diagnostics=diag)
    return FactorClassification("unbounded", diagnostics=diag)


def factors_from_data(d: StandardSolvableData):
    """Factor specs of the canonical central geodesic frame of ``d``."""
    mu_f, rho_star, pairs = d.frame_factor_data()
    factors = [CenterFactor(mu=float(m)) for m in mu_f]
    factors += [KernelFactor(rho_star=float(r)) for r in rho_star]
    factors += [PairFactor(rho=float(r), theta=float(t)) for r, t in pairs]
    return factors


@dataclass(frozen=True)
class RigidityReport:
    is_rigid: bool
    factors: tuple     # pairs (FactorSpec, FactorClassification)


def rigidity_conclusion(d: StandardSolvableData,
                        tols: Tolerances = DEFAULT_TOLS) -> RigidityReport:
    """Whether the spectral data forces the Damek-Ricci structure.

    Rigid iff every factor of h is bounded and every polynomial factor
    has degree 0, i.e. h is constant.  By the classifier this means no
    kernel factors, every frame center eigenvalue 1 and every pair
    (1/2, 1) -- equivalently ad_H = id on z, id/2 on v and j(Z)^2 = -id.
    The report carries every factor with its classification.
    """
    entries = tuple((f, classify_factor(f, tols)) for f in factors_from_data(d))
    rigid = all(c.is_bounded and c.degree in (None, 0) for _, c in entries)
    return RigidityReport(is_rigid=rigid, factors=entries)
