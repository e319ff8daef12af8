"""The fidelity error exponent of concatenated codes.

Fixing an inner code and decoding the outer level by minimum conditional
type entropy, the ensemble-average infidelity decays exponentially in the
number of blocks whenever the outer rate R satisfies kR < k - H_cond.  The
decay constant is a convex minimization over joint distributions:

    E(R) = min_P' [ D(P' || P_L) + | k - kR - H(logical|syndrome under P') |+ ].

The solver finds the dual hinge multiplier beta, whose inner minimum is a
closed-form tilting of P_L, by safeguarded Newton steps on the dual's slope
g, which also has a closed form.  It stops at the first step with |g| <=
1e-9 and g^2 <= 1e-17 g', where the dual can rise by no more than round-off,
typically after 3 to 5 evaluations.  Each step also yields the dual's
log-partition Lambda(beta), so the solver returns the dual bound
phi(beta) = beta*(k - kR) - Lambda at its last step, the lower end of the
certified interval [E, E + residual]: the residual is how far the objective
at the tilted distribution, read off the same step without building it,
lies above that bound.  At or below the critical rate the maximizer is
beta = 1 and E falls linearly in R.  A brute-force grid oracle over the
probability simplex validates the solver.
"""

import numpy as np

from qcap import catalog, depolarizing
from qcap.exponent import exponent, exponent_grid_oracle

code = catalog("trivial1", 2)
ch = depolarizing(2, 0.05)
rep = exponent(code, ch, 0.0)
print(f"unencoded qubit at p = 0.05: positivity threshold k - H_cond = {rep.threshold:.6f},")
# E is affine in R up to the critical rate; here it is negative, so no rate is
print(f"critical rate 1 - H_c(x_1)/k = {rep.critical_rate:.6f}\n")
print("  R       E(R)         residual")
for R in np.linspace(0.0, 1.0, 11):
    rep = exponent(code, ch, float(R))
    print(f"{R:5.2f}   {rep.value:.8f}   {rep.kkt_residual:.1e}")

print("\nvalidation against the 200-step simplex grid (p = 0.01, R = 0):")
ch = depolarizing(2, 0.01)
rep = exponent(code, ch, 0.0)
oracle = exponent_grid_oracle(code, ch, 0.0, 200)
print(f"solver {rep.value:.8f}  vs  grid {oracle:.8f}  (gap {oracle - rep.value:.2e})")

rep3 = catalog("rep3", 2)
ch = depolarizing(2, 0.1)
print("\nrep(3) inner code at p = 0.1:")
for R in (0.0, 0.15, 0.3, 0.45):
    rep = exponent(rep3, ch, R)
    print(f"  R = {R:4.2f}: E = {rep.value:.6f}")
