"""The rigidity function h(z) and its factor classification.

Each central-frame block contributes one hypergeometric factor to h.
Asymptotic harmonicity forces h to be constant; continuing each factor
around z = 1 shows a factor can only be constant when its parameters are
the Damek-Ricci ones (centers mu = 1, pairs rho = 1/2 with theta = 1),
which pins down the algebra completely.
"""

import math

import numpy as np

from solvharm.hypergeom import (CenterFactor, KernelFactor, PairFactor,
                                classify_factor, gauss_f, h_factors,
                                h_function, stable_block_and_derivative)

np.set_printoptions(precision=8, suppress=True)

# F(a, b; c; z) (scipy.special.hyp2f1) with a few sanity values.
print("F(1, 1; 2; 1/2)          =", gauss_f(1.0, 1.0, 2.0, 0.5),
      " (= 2 log 2)")
print("F(-1, 1; 1/2; z) at 0.3  =", gauss_f(-1.0, 1.0, 0.5, 0.3),
      " (= 1 - 2z)")

# Stable-field blocks: bounded combinations of the fundamental pair,
# evaluated at the time t with z(t) = (1 - tanh t)/2 = 1/4.
print("\nstable block at (rho, theta, z) = (0.5, 1, 0.25):")
print(stable_block_and_derivative(0.5, 1.0, math.atanh(0.5))[0])

# h(z) for the 4-dimensional Damek-Ricci data is the constant -4 ...
zs = np.linspace(0.05, 0.5, 4)
print("\nh(z) for pairs [(1/2, 1)]:  ", h_function([], [], [(0.5, 1.0)], zs))
# ... while a perturbed pair factor visibly drifts.
print("h(z) for pairs [(1/2, 0.8)]:", h_function([], [], [(0.5, 0.8)], zs))

# The closed criterion: a center factor is constant iff mu = 1, a kernel
# factor is unbounded, and a pair factor is bounded iff rho = 1/2 and its
# exponents are a = -k, b = k for a positive integer k = theta.  Then both
# of its series terminate and the factor is a polynomial of degree k - 1.
print(f"\nclassification of candidate factors, each sampled at z = {zs}:")
for factor in (CenterFactor(1.0), CenterFactor(0.6), KernelFactor(0.25),
               PairFactor(0.5, 1.0), PairFactor(0.5, 2.0),
               PairFactor(0.5, 3.0), PairFactor(0.5, math.sqrt(6.0)),
               PairFactor(0.3, 0.8)):
    if isinstance(factor, PairFactor):
        a, b = factor.exponents
        inputs = (f"pair rho = {factor.rho}, theta = {factor.theta:.6g}: "
                  f"a = {a:.6g}, b = {b:.6g}")
        values = h_factors([], [], [(factor.rho, factor.theta)], zs)
    elif isinstance(factor, CenterFactor):
        inputs = f"center mu = {factor.mu}"
        values = h_factors([factor.mu], [], [], zs)
    else:
        inputs = f"kernel rho* = {factor.rho_star}"
        values = h_factors([], [factor.rho_star], [], zs)
    res = classify_factor(factor)
    extra = f" of degree {res.degree}" if res.degree is not None else ""
    print(f"  {inputs} -> {res.label}{extra}\n    factor: {values[:, 0]}")
