"""Block algebras, elements, faithful states, and homomorphism certification.

Run:  python3 demos/01_block_algebras_and_states.py
"""

import numpy as np

from nclp import (
    AlgebraElement,
    AlgebraMap,
    homomorphism_kind,
    make_algebra,
    random_faithful_state,
)
from nclp.algebra import transpose_permutation

# A "von Neumann algebra" here is a direct sum of full matrix blocks.
alg = make_algebra([2, 3])
print(f"algebra with blocks {alg.blocks}: vector-space dimension {alg.total_dim}")

# Faithful states are positive unit-trace block densities.
phi = random_faithful_state(alg, seed=7)
print(f"random faithful state: trace = {phi.density.trace().real:.12f}, "
      f"min eigenvalue = {phi.min_eig():.3e}")

# Elements multiply blockwise; the adjoint is the blockwise conjugate transpose.
x = AlgebraElement(alg, [np.array([[0, 1], [0, 0]]), np.zeros((3, 3))])
print("x x* trace:", (x @ x.adjoint()).trace().real)

# Linear maps are classified by which algebraic identities they satisfy.
ident = AlgebraMap.identity(alg)
print("identity map:", homomorphism_kind(ident).kind)

m2 = make_algebra([2])
transpose = AlgebraMap(m2, m2, transpose_permutation(m2))
report = homomorphism_kind(transpose)
print(f"transpose map: {report.kind} "
      f"(multiplicativity defect {report.mult_defect:.3f}, star defect {report.star_defect:.1e})")

# the normalized trace y -> Tr(y) 1/2: the column of e_ij is Tr(e_ij) vec(1) / 2
one = np.eye(2).reshape(-1)
trace_map = AlgebraMap(m2, m2, np.outer(one, one) / 2)
print("normalized-trace map:", homomorphism_kind(trace_map).kind)
