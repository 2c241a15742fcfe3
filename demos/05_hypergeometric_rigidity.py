"""The rigidity function h(z) and its factor classification.

Each central-frame block contributes one hypergeometric factor to h.
Asymptotic harmonicity forces h to be constant; continuing each factor
around z = 1 shows a factor can only be constant when its parameters are
the Damek-Ricci ones (centers mu = 1, pairs rho = 1/2 with theta = 1),
which pins down the algebra completely.
"""

import math

import numpy as np

from solvharm.hypergeom import (classify_factor, gauss_f, h_factors,
                                h_function, pair_exponents,
                                stable_block_and_derivative)

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
for kind, *params in (("center", 1.0), ("center", 0.6), ("kernel", 0.25),
                      ("pair", 0.5, 1.0), ("pair", 0.5, 2.0),
                      ("pair", 0.5, 3.0), ("pair", 0.5, math.sqrt(6.0)),
                      ("pair", 0.3, 0.8)):
    if kind == "pair":
        rho, theta = params
        a, b = pair_exponents(rho, theta)
        inputs = (f"pair rho = {rho}, theta = {theta:.6g}: "
                  f"a = {a:.6g}, b = {b:.6g}")
        values = h_factors([], [], [params], zs)
    elif kind == "center":
        inputs = f"center mu = {params[0]}"
        values = h_factors(params, [], [], zs)
    else:
        inputs = f"kernel rho* = {params[0]}"
        values = h_factors([], params, [], zs)
    label, degree = classify_factor(kind, *params)
    extra = f" of degree {degree}" if degree is not None else ""
    print(f"  {inputs} -> {label}{extra}\n    factor: {values[:, 0]}")
