"""Dense multiplication matrices, kept as oracles for the blockwise
`apply_left` and `apply_right` of `nclp.algebra`, which the package uses
instead: these build the full D x D matrices on the row-major vectorization."""

import numpy as np

from nclp.algebra import AlgebraElement, AlgebraMap


def block_diag(mats: list[np.ndarray]) -> np.ndarray:
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    acc = 0
    for m in mats:
        k = m.shape[0]
        out[acc : acc + k, acc : acc + k] = m
        acc += k
    return out


def left_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x -> a x on vectorized coordinates (row-major blocks)."""
    return block_diag([np.kron(b, np.eye(n)) for b, n in zip(a.data, a.algebra.blocks)])


def right_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x -> x a on vectorized coordinates."""
    return block_diag([np.kron(np.eye(n), b.T) for b, n in zip(a.data, a.algebra.blocks)])


def conjugation_map(u: AlgebraElement) -> AlgebraMap:
    """Ad_u : x -> u x u* as an AlgebraMap on u's algebra."""
    alg = u.algebra
    return AlgebraMap(alg, alg, left_mult_matrix(u) @ right_mult_matrix(u.adjoint()))
