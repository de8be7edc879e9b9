"""Detecting modular invariance of a subalgebra, building the
state-preserving conditional expectation, and extending it to L_p.

Run:  python3 demos/04_conditional_expectations.py
"""

import numpy as np

from nclp import (
    State,
    construct_expectation,
    interpolation_gap,
    lp_expectation,
    lp_inclusion,
    lp_norm,
    make_algebra,
    restrict_state,
    state_power,
    takesaki_invariant,
)
from nclp.errors import NotInvariant
from nclp.samples import diagonal_subalgebra, random_element, rng_for

m2 = make_algebra([2])
A = diagonal_subalgebra(m2)

# A diagonal density keeps the diagonal subalgebra invariant under its flow;
# an off-diagonal entry breaks invariance and the expectation disappears.
good = State(m2, [np.diag([0.6, 0.4])])
bad = State(m2, [np.array([[0.6, 0.2], [0.2, 0.4]])])
print("diagonal density:", takesaki_invariant(A, good))
print("tilted density:  ", takesaki_invariant(A, bad))

E = construct_expectation(A, good)
x = random_element(m2, rng_for(1))
print("E(x) is the diagonal part:\n", np.round(E(x).data[0], 6))
try:
    construct_expectation(A, bad)
except NotInvariant as err:
    print("tilted density rejected:", err)

# The subalgebra factors through its own block realization, so its L_p space
# is concrete; the inclusion into the parent is isometric and the L_p
# expectation retracts it contractively.
dec = A.decomposition
print("factor realization:", dec.algebra.blocks, "multiplicities", dec.multiplicities)
iota = lp_inclusion(A, E, p=3.0)
Ep = lp_expectation(E, p=3.0)
rho_A = restrict_state(A, good)
h = state_power(rho_A, 1 / 3)
print("inclusion is isometric on the reference vector:",
      abs(lp_norm(iota(h)) - lp_norm(h)) < 1e-12)
print("retraction residual:",
      np.max(np.abs(Ep.matrix @ iota.matrix - np.eye(iota.source.total_dim))))

# Without invariance the inclusion strictly loses norm somewhere (p >= 2).
best = 0.0
rng = rng_for(2)
for _ in range(300):
    gap = interpolation_gap(A, bad, random_element(dec.algebra, rng), p=4.0)
    best = max(best, gap)
print("strict norm drop found for the tilted density:", best)
