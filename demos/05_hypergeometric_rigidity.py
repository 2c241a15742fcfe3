"""The rigidity function h(z) and its factor classification.

Each central-frame block contributes one hypergeometric factor to h.
Asymptotic harmonicity forces h to be constant; continuing each factor
around z = 1 shows a factor can only be constant when its parameters are
the Damek-Ricci ones (centers mu = 1, pairs rho = 1/2 with theta = 1),
which pins down the algebra completely.
"""

import math

import numpy as np

from solvharm import (CenterFactor, KernelFactor, PairFactor, classify_factor,
                      gauss_f, h_function, monodromy_coeffs, HypergeomParams,
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
zs = np.linspace(0.05, 0.5, 6)
print("\nh(z) for pairs [(1/2, 1)]:",
      [round(h_function([], [], [(0.5, 1.0)], z), 10) for z in zs])
# ... while a perturbed pair factor visibly drifts.
print("h(z) for pairs [(1/2, 0.8)]:",
      [round(h_function([], [], [(0.5, 0.8)], z), 6) for z in zs])

# Monodromy around z = 1 drives the classification: B12 vanishes exactly
# when the continued branch stays in the span of the regular solution.
for (a, b, c) in ((1.0, 0.0, 2.0), (0.5, 0.5, 1.5), (-1.0, 1.0, 0.5)):
    m = monodromy_coeffs(HypergeomParams(a, b, c))
    print(f"\nmonodromy (a,b,c)=({a},{b},{c}): B11={m.b11:.4f}, "
          f"B12={m.b12:.4f}")

# Factor-by-factor verdicts.
print("\nclassification of candidate factors:")
for factor in (CenterFactor(1.0), CenterFactor(0.6), KernelFactor(0.25),
               PairFactor(0.5, 1.0), PairFactor(0.5, 2.0),
               PairFactor(0.5, np.sqrt(6.0)), PairFactor(0.3, 0.8)):
    res = classify_factor(factor)
    extra = f" (degree {res.degree})" if res.degree is not None else ""
    print(f"  {factor}: {res.label}{extra}")
