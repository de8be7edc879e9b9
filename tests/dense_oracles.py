"""Dense reference constructions, kept as oracles for the sliced forms the
package uses instead.

The multiplication matrices build the full D x D matrices of the blockwise
`apply_left` and `apply_right` of `nclp.algebra` on the row-major
vectorization; `tensor_embed` builds a (x) h by Kronecker products, and
`structured_witnesses` lists the witnesses that `two_isometry_defect` reads
off as positions in the amplification; `validate_by_pairs` checks a
subalgebra with one element product per pair of basis elements, where
`Subalgebra.validate` takes one blockwise product per basis element."""

import numpy as np

from nclp.algebra import AlgebraElement, AlgebraMap
from nclp.errors import DataInvalid, ShapeMismatch
from nclp.isometry import _amplified_indicator, _witness_positions
from nclp.lp import LpVector, amplified_algebra


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


def tensor_embed(a: np.ndarray, h: AlgebraElement, n: int, p: float | None = None):
    """a (x) h as an element of the amplified algebra, a an n x n matrix."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (n, n):
        raise ShapeMismatch(f"left factor must be {n} x {n}")
    big = amplified_algebra(h.algebra, n)
    blocks = [np.kron(a, b) for b in h.data]
    if p is None:
        return AlgebraElement(big, blocks)
    return LpVector(big, p, blocks)


def structured_witnesses(algebra, p: float, n: int = 2) -> list[LpVector]:
    """Matrix-unit grid witnesses Sigma e_ij (x) u_ij in the n-fold
    amplification; these detect maps that preserve norms but not the
    multiplicative structure."""
    return [_amplified_indicator(algebra, n, p, pos) for pos in _witness_positions(algebra, n)]


def validate_by_pairs(A) -> None:
    """Subalgebra.validate element by element: its tolerances, messages and
    order of checks."""
    tol = 1000 * A.parent.atol
    _ = A._onb  # independence
    scale = max(1.0, max(a.frobenius() for a in A.basis))
    for a in A.basis:
        if A.span_residual(a.adjoint()) > tol * scale:
            raise DataInvalid("basis span is not closed under adjoints")
    for a in A.basis:
        for b in A.basis:
            if A.span_residual(a @ b) > tol * scale * scale:
                raise DataInvalid("basis span is not closed under products")
    e = A.unit
    for a in A.basis:
        if (e @ a - a).frobenius() > tol * scale or (a @ e - a).frobenius() > tol * scale:
            raise DataInvalid("unit of the span does not act as an identity on it")
