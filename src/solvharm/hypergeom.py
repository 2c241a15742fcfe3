"""Gauss hypergeometric machinery for the rigidity analysis.

F(a,b;c;z) from ``scipy.special`` (arguments checked on the way in, a
non-finite value raised as NumericalError), the fundamental solution
pairs of the pair-block hypergeometric equation, the closed-form
stable-field blocks, the product function h(z) whose constancy encodes
asymptotic harmonicity, and the closed constant/polynomial/unbounded
criterion for the factors of h continued around z = 1.
"""

import math

import numpy as np
from scipy import special

from .config import DEFAULT_TOLS, Tolerances
from .errors import DomainError, NumericalError
from .lie_metric import StandardSolvableData

__all__ = [
    "z_of_t",
    "gauss_f",
    "fundamental_pair",
    "pair_exponents",
    "stable_block_and_derivative",
    "h_factors",
    "h_function",
    "classify_factor",
    "rigidity_conclusion",
]


def z_of_t(t):
    """Geodesic series variable z = (1 - tanh t)/2 = 1/(1 + e^{2t}).

    The second form has no cancellation.  ``t`` may be an array; a
    scalar ``t`` gives a float.  Past t ~ 354, e^{2t} overflows and z is
    0.
    """
    with np.errstate(over="ignore"):
        z = 1.0 / (1.0 + np.exp(2.0 * np.asarray(t, dtype=float)))
    return float(z) if z.ndim == 0 else z


def _nonpositive_int(x: float, tol: float = 1e-12) -> bool:
    r = round(x)
    return abs(x - r) <= tol and r <= 0


def _integer(x: float, tol: float = 1e-10) -> bool:
    return abs(x - round(x)) <= tol


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


def fundamental_pair(a: float, b: float, c: float, z):
    """The solution pair (u1, u1', u2, u2') of the hypergeometric equation.

    u1 = F(a,b;c;z) is regular at 0; u2 = z^(1-c) F(1+a-c,1+b-c;2-c;z)
    is independent of it for c not an integer.  ``z`` may be an array.
    """
    if _integer(c):
        raise DomainError(
            f"degenerate fundamental pair: c = {c} is an integer"
        )
    z = np.asarray(z, dtype=float)
    outside = ~((0.0 < z) & (z < 1.0))
    if outside.any():
        raise DomainError(f"z must lie in (0, 1), got {z[outside].flat[0]}")
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


def _blocks(m00, m01, m10, m11) -> np.ndarray:
    """2x2 blocks from entries of one shape s, stacked to s + (2, 2)."""
    return np.stack([np.stack([m00, m01], axis=-1),
                     np.stack([m10, m11], axis=-1)], axis=-2)


def stable_block_and_derivative(rho: float, theta: float, t):
    """Stable block M(t) and its plain time derivative M'(t).

    Columns, read as coefficients (f, g) on the left-invariant pair
    (V, ~V), are the special bounded solutions of the pair Jacobi
    equation; M(t) tends to 0 as t -> infinity (z -> 0).  Each column is
    a first-kind solution s from ker(d/dt - B(t)) plus a Killing-field
    solution from ker(d/dt - A(t)), with A = tanh(t) diag(rho, 1 - rho)
    and B = A + sech(t) theta [[0, -1], [1, 0]]; the derivative
    B s + A k follows from those two linear factorizations without
    finite differences.  ``t`` may be an array: the whole grid is one
    evaluation of the hypergeometric functions, and the blocks have
    shape ``t.shape + (2, 2)``, so a scalar ``t`` gives 2x2 matrices.

    Accuracy horizon: the first-kind and Killing-field parts grow like
    cosh^max(rho, 1 - rho)(t) and cancel to an M(t) that decays, so the
    entries carry an error of about e^{t max(rho, 1 - rho)} eps relative
    to them.  For (rho, theta) = (0.5, 1.0) that is about 1e-8 relative
    at t = 20; the ``analyze`` grid stops at t = 8.
    """
    _check_pair_params(rho, theta)
    t = np.asarray(t, dtype=float)
    a, b = pair_exponents(rho, theta)
    u1, u1p, u2, u2p = fundamental_pair(a, b, rho, z_of_t(t))
    ch, th = np.cosh(t), np.tanh(t)
    sech = 1.0 / ch
    # ker B solutions s = (-cosh^-rho u', 2 theta cosh^(1-rho) u) and the
    # Killing fields k1 = (cosh^rho, 0), k2 = (0, cosh^(1-rho)) of ker A
    lo, hi, k1 = ch ** -rho, ch ** (1.0 - rho), ch ** rho
    s1 = (-lo * u1p, 2.0 * theta * hi * u1)
    s2 = (-lo * u2p, 2.0 * theta * hi * u2)
    b1, b2 = ((th * rho * s[0] - sech * theta * s[1],
               sech * theta * s[0] + th * (1.0 - rho) * s[1])
              for s in (s1, s2))
    kappa = 4.0 ** rho * (1.0 - rho)
    # col1 = s1 - 2 theta k2, col2 = s2 + kappa k1
    m = _blocks(s1[0], s2[0] + kappa * k1,
                s1[1] - 2.0 * theta * hi, s2[1])
    dm = _blocks(b1[0], b2[0] + kappa * (th * rho * k1),
                 b1[1] - 2.0 * theta * (th * (1.0 - rho) * hi), b2[1])
    return m, dm


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
# factor classification
# ---------------------------------------------------------------------------

# the report keys of each factor kind's parameters
_FACTOR_PARAMS = {"center": ("mu",), "kernel": ("rho_star",),
                  "pair": ("rho", "theta")}


def classify_factor(kind: str, *params: float,
                    tols: Tolerances = DEFAULT_TOLS):
    """Behavior of the analytic continuation of a factor of h around z = 1.

    ``kind`` is ``"center"`` (parameter mu in (0, 1]), ``"kernel"``
    (rho* in (0, 1)) or ``"pair"`` (rho in (0, 1/2] and theta > 0);
    a parameter out of range is a DomainError.  Returns
    ``(label, degree)`` with label ``"constant"``, ``"polynomial"`` or
    ``"unbounded"`` and the degree of a polynomial, else None.

    The paper's closed criterion: a center factor is constant exactly for
    mu = 1 (a terminating series) and unbounded otherwise; a kernel
    factor is always unbounded; a pair factor (rho, theta) is bounded
    exactly when rho = 1/2 and theta = k is a positive integer.  Then
    its exponents are a = -k and b = k, both of its series terminate,
    and it is a polynomial of degree k - 1.  Every comparison is made
    within ``tols.classifier_zero``, and a and -b are snapped to the
    nonpositive integers each on its own, since both half series must
    terminate: near the edge of the window a can snap while b does not.
    """
    tol = tols.classifier_zero
    if kind == "center":
        (mu,) = params
        if not 0.0 < mu <= 1.0 + 1e-12:
            raise DomainError(f"center factor needs 0 < mu <= 1, got {mu}")
        return ("constant" if abs(mu - 1.0) <= tol else "unbounded"), None
    if kind == "kernel":
        (rho_star,) = params
        if not 0.0 < rho_star < 1.0:
            raise DomainError(
                f"kernel factor needs 0 < rho* < 1, got {rho_star}")
        return "unbounded", None
    if kind != "pair":
        raise ValueError(f"unknown factor kind {kind!r}")
    rho, theta = params
    _check_pair_params(rho, theta)
    a, b = pair_exponents(rho, theta)
    k = round(b)
    if (abs(rho - 0.5) <= tol and _nonpositive_int(a, tol)
            and _nonpositive_int(-b, tol) and k >= 1):
        return "polynomial", k - 1
    return "unbounded", None


def rigidity_conclusion(d: StandardSolvableData,
                        tols: Tolerances = DEFAULT_TOLS):
    """Whether the spectral data forces the Damek-Ricci structure.

    Rigid iff every factor of h is bounded and every polynomial factor
    has degree 0, i.e. h is constant.  By the classifier this means no
    kernel factors, every frame center eigenvalue 1 and every pair
    (1/2, 1) -- equivalently ad_H = id on z, id/2 on v and j(Z)^2 = -id.
    Returns ``(is_rigid, factors)``: one report row ``{"kind", the
    parameters, "label", "degree"}`` per factor of h, in the order of
    ``frame_factor_data()`` (centers, kernels, pairs).
    """
    mu_f, rho_star, pairs = d.frame_factor_data()
    specs = ([("center", (m,)) for m in mu_f.tolist()]
             + [("kernel", (r,)) for r in rho_star.tolist()]
             + [("pair", tuple(p)) for p in pairs.tolist()])
    factors = []
    for kind, params in specs:
        label, degree = classify_factor(kind, *params, tols=tols)
        factors.append({"kind": kind,
                        **dict(zip(_FACTOR_PARAMS[kind], params)),
                        "label": label, "degree": degree})
    rigid = all(f["label"] != "unbounded" and f["degree"] in (None, 0)
                for f in factors)
    return rigid, factors
