"""Dense reference constructions, kept as oracles for the sliced forms the
package uses instead.

The multiplication matrices build the full D x D matrices of the blockwise
`apply_left` and `apply_right` of `nclp.algebra` on the row-major
vectorization; `tensor_embed` builds a (x) h by Kronecker products, and
`structured_witnesses` lists the witnesses that `two_isometry_defect` reads
off as positions in the amplification; `validate_by_pairs` checks a
subalgebra with one element product per pair of basis elements, where
`Subalgebra.validate` takes one blockwise product per basis element;
`lp_norms_per_block` and `clarkson_by_elements` take the L_p norms with one
SVD call per block and the Clarkson witness from element products, where
`nclp.lp` makes one SVD call per distinct block size and multiplies blocks.
`validate_by_pair_table` checks isometry data with the all-pairs table of
`homomorphism_kind`, where `IsometryData.validate` first tries Glimm's
identities.  `matrix_to_json_by_entries` and `matrix_from_json_by_entries`
convert a matrix to and from rows of [re, im] pairs one entry at a time,
where `nclp.serialize` converts the whole array at once.
`zero_lp_vector`, `decomposition_coordinates`, `compose_maps` and
`compose_lp_maps` are test-only constructions: the zero L_p vector, the
coefficients of a subalgebra element in the factor realization of a
decomposition through the pseudo-inverse of its embedding, and the
composition of two algebra maps or two L_p maps."""

import numpy as np

from nclp.algebra import AlgebraElement, AlgebraMap, homomorphism_kind
from nclp.errors import DataInvalid, ExponentMismatch, NonFaithful, ShapeMismatch
from nclp.isometry import (
    _amplified_indicator,
    _support_defect,
    _witness_positions,
    verify_state_restriction,
)
from nclp.lp import ClarksonResult, LpMap, LpVector, amplified_algebra


def validate_by_pair_table(data, tol: float = 1e-6) -> None:
    """IsometryData.validate with pi decided by the pair table alone: its
    checks, messages and order of checks, and nothing kept."""
    if data.pi.source != data.source or data.pi.target != data.target:
        raise DataInvalid("homomorphism does not match the declared algebras")
    if not data.reference_state.faithful:
        raise NonFaithful("reference state must be faithful")
    report = homomorphism_kind(data.pi)
    if report.kind != "star_homomorphism" or not report.injective:
        raise DataInvalid(f"pi is not an injective *-homomorphism ({report.kind})")
    if not _support_defect(data.w, data.pi) <= tol:
        raise DataInvalid("w* w differs from pi(1)")
    defect = verify_state_restriction(data.phibar, data.pi, data.reference_state)
    if not defect <= tol:
        raise DataInvalid(f"state restriction defect {defect:.3e}")


def matrix_to_json_by_entries(mat: np.ndarray) -> list:
    """Rows of [re, im] pairs of a complex matrix, one entry at a time."""
    return [
        [[float(np.real(v)), float(np.imag(v))] for v in row]
        for row in np.asarray(mat, dtype=complex)
    ]


def matrix_from_json_by_entries(rows: list) -> np.ndarray:
    """The complex matrix of rows of [re, im] pairs, one entry at a time."""
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def compose_maps(F: AlgebraMap, G: AlgebraMap) -> AlgebraMap:
    """F after G."""
    if G.target != F.source:
        raise ShapeMismatch("composition shapes do not match")
    return AlgebraMap(G.source, F.target, F.matrix @ G.matrix)


def compose_lp_maps(T: LpMap, S: LpMap) -> LpMap:
    """T after S; exponents must agree."""
    if S.target != T.source:
        raise ShapeMismatch("composition shapes do not match")
    if S.p != T.p:
        raise ExponentMismatch("composition of maps at different exponents")
    return LpMap(S.source, T.target, T.p, T.matrix @ S.matrix)


def zero_lp_vector(algebra, p: float) -> LpVector:
    """The zero vector of L_p(algebra)."""
    return LpVector(algebra, p, algebra.zero_blocks())


def decomposition_coordinates(dec, x: AlgebraElement) -> AlgebraElement:
    """Coefficients of a subalgebra element in the factor realization of the
    decomposition dec, through the pseudo-inverse of its embedding."""
    if x.algebra != dec.embed.target:
        raise ShapeMismatch("element does not live on the parent algebra")
    return AlgebraElement.from_vec(dec.algebra, np.linalg.pinv(dec.embed.matrix) @ x.vec())


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


def lp_norms_per_block(algebra, p: float, rows: np.ndarray, weights=None) -> np.ndarray:
    """`nclp.lp.lp_norms` with one stacked SVD per block, each row's sum of
    p-th powers rescaled by its top singular value where it overflows or
    underflows to zero."""
    svals = [
        np.linalg.svd(rows[:, off : off + n * n].reshape(-1, n, n), compute_uv=False)
        for off, n in zip(algebra.offsets(), algebra.blocks)
    ]
    ws = [1.0] * len(svals) if weights is None else [float(w) for w in weights]
    if len(ws) != len(svals):
        raise ShapeMismatch("one weight per block is required")
    total = 0.0
    with np.errstate(over="ignore"):
        for w, s in zip(ws, svals):
            total = total + w * np.sum(s**p, axis=-1)
    norms = np.array([float(t) ** (1.0 / p) for t in total])
    top = np.max([s[:, 0] for s in svals], axis=0)
    for r in np.flatnonzero(np.isinf(total) | ((total == 0.0) & (top > 0.0))):
        scaled = sum(w * float(np.sum((s[r] / top[r]) ** p)) for w, s in zip(ws, svals))
        norms[r] = float(top[r]) * scaled ** (1.0 / p)
    return norms


def clarkson_by_elements(h: LpVector, k: LpVector) -> ClarksonResult:
    """`nclp.lp.clarkson_defect` on the rows h + k, h - k, h, k of the
    vectorization, its overflow fallback taking the SVDs again, and the
    witness from the elements h k* and h* k."""
    p = h.p
    hv, kv = h.vec(), k.vec()
    rows = np.stack([hv + kv, hv - kv, hv, kv])
    n_sum, n_diff, n_h, n_k = lp_norms_per_block(h.algebra, p, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = n_sum**p + n_diff**p
        rhs = 2.0 * (n_h**p + n_k**p)
        defect = float(abs(lhs - rhs))
        if not np.isfinite(defect):
            svals = [
                np.linalg.svd(rows[:, off : off + n * n].reshape(-1, n, n), compute_uv=False)
                for off, n in zip(h.algebra.offsets(), h.algebra.blocks)
            ]
            top = max(s.max() for s in svals)
            powers = sum(np.sum((s / top) ** p, axis=-1) for s in svals)
            excess = abs(powers[0] + powers[1] - 2.0 * (powers[2] + powers[3]))
            defect = 0.0 if excess == 0.0 else float(excess * top**p)
    witness = max((h @ k.adjoint()).frobenius(), (h.adjoint() @ k).frobenius())
    return ClarksonResult(defect=defect, orthogonal=bool(witness < h.algebra.atol), witness=witness)
