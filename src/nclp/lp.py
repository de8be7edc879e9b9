"""L_p vectors over block algebras: norms, polar data, Clarkson orthogonality,
Mazur maps, and amplified maps.

An L_p vector is stored exactly like an algebra element; the exponent rides
along.  Norms are always computed from singular values, never from logs of
near-singular matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    Algebra,
    AlgebraElement,
    Projection,
    State,
    _require_finite,
)
from .errors import (
    ExponentMismatch,
    ExponentUnsupported,
    NotPositive,
    ShapeMismatch,
)

RANK_REL_TOL = 1e-10  # singular values below this fraction of the top one are zeros


class LpVector(AlgebraElement):
    """A block matrix viewed as an element of L_p, 1 <= p < infinity."""

    __slots__ = ("p",)

    def __init__(self, algebra: Algebra, p: float, data: Iterable[np.ndarray]):
        p = float(p)
        if not (1.0 <= p < np.inf):
            raise ExponentUnsupported(f"p must lie in [1, inf), got {p}")
        super().__init__(algebra, data)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_element(cls, x: AlgebraElement, p: float) -> "LpVector":
        return cls(x.algebra, p, list(x.data))

    @classmethod
    def zero_at(cls, algebra: Algebra, p: float) -> "LpVector":
        return cls(algebra, p, algebra.zero_blocks())

    def _like(self, blocks) -> "LpVector":
        # arithmetic and the bimodule action keep the exponent
        out = LpVector._raw(self.algebra, blocks)
        object.__setattr__(out, "p", self.p)
        return out

    def __add__(self, other):
        if isinstance(other, LpVector) and other.p != self.p:
            raise ExponentMismatch("cannot add vectors with different exponents")
        return AlgebraElement.__add__(self, other)

    def __sub__(self, other):
        if isinstance(other, LpVector) and other.p != self.p:
            raise ExponentMismatch("cannot subtract vectors with different exponents")
        return AlgebraElement.__sub__(self, other)

    def __rmatmul__(self, other):
        if isinstance(other, AlgebraElement):
            return self._like(AlgebraElement.__matmul__(other, self).data)
        return NotImplemented

    def __repr__(self):
        return f"LpVector(blocks={self.algebra.blocks}, p={self.p})"


def lp_norm(h: LpVector, weights: Sequence[float] | None = None) -> float:
    """The p-norm (sum of p-th powers of singular values)^(1/p).

    `weights` optionally scales the contribution of each block, which realizes
    a weighted trace on the source of a tracial-source map.
    """
    return float(lp_norms(h.algebra, h.p, h.vec()[None, :], weights)[0])


def lp_norms(
    algebra: Algebra, p: float, rows: np.ndarray, weights: Sequence[float] | None = None
) -> np.ndarray:
    """The p-norms of the rows of an N x total_dim array, each row a vector
    in the normative vectorization; one stacked SVD per block.

    A row whose sum of p-th powers overflows, or underflows to zero, is
    recomputed with its top singular value factored out,
    s_max (sum w (s / s_max)^p)^(1/p) (Higham, Accuracy and Stability, 27).
    """
    ws = [1.0] * len(algebra.blocks) if weights is None else [float(w) for w in weights]
    if len(ws) != len(algebra.blocks):
        raise ShapeMismatch("one weight per block is required")
    svals = [
        np.linalg.svd(rows[:, off : off + n * n].reshape(-1, n, n), compute_uv=False)
        for off, n in zip(algebra.offsets(), algebra.blocks)
    ]
    total = 0.0
    with np.errstate(over="ignore"):
        for w, s in zip(ws, svals):
            total = total + w * np.sum(s**p, axis=-1)
    # the root per row as a Python float: np.power differs from it by an ulp
    norms = np.array([float(t) ** (1.0 / p) for t in total])
    top = np.max([s[:, 0] for s in svals], axis=0)
    for r in np.flatnonzero(np.isinf(total) | ((total == 0.0) & (top > 0.0))):
        scaled = sum(w * float(np.sum((s[r] / top[r]) ** p)) for w, s in zip(ws, svals))
        norms[r] = float(top[r]) * scaled ** (1.0 / p)
    return norms


@dataclass(frozen=True)
class PolarData:
    """Polar decomposition h = w * modulus with support projections."""

    w: AlgebraElement
    modulus: LpVector
    s_left: Projection
    s_right: Projection


def polar_decompose(h: LpVector) -> PolarData:
    """Polar-decompose blockwise via SVD.

    The partial isometry keeps only singular directions above the relative
    rank threshold, with its singular values snapped to one; the modulus is
    the full (h* h)^(1/2).
    """
    alg = h.algebra
    svds = [np.linalg.svd(b) for b in h.data]
    top = max(float(s[0]) if s.size else 0.0 for _, s, _ in svds)
    thr = RANK_REL_TOL * top
    w_blocks, m_blocks, sl_blocks, sr_blocks = [], [], [], []
    for u, s, vh in svds:
        keep = (s > thr) if top > 0 else np.zeros(s.shape, dtype=bool)
        ur = u[:, keep]
        vr = vh[keep, :].conj().T
        w_blocks.append(ur @ vr.conj().T)
        m_blocks.append((vh.conj().T * s) @ vh)
        sl_blocks.append(ur @ ur.conj().T)
        sr_blocks.append(vr @ vr.conj().T)
    return PolarData(
        w=AlgebraElement(alg, w_blocks),
        modulus=LpVector(alg, h.p, m_blocks),
        s_left=Projection(alg, sl_blocks),
        s_right=Projection(alg, sr_blocks),
    )


def state_power(phi: State, alpha: float) -> LpVector:
    """rho^alpha as a vector of L_{1/alpha}, for alpha in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise ExponentUnsupported(f"alpha must lie in (0, 1], got {alpha}")
    elt = phi.power_element(alpha)
    return LpVector(phi.algebra, 1.0 / alpha, list(elt.data))


def _effective_exponent(x) -> float:
    if isinstance(x, LpVector):
        return x.p
    if isinstance(x, AlgebraElement):
        return np.inf
    raise ShapeMismatch(f"not an L_p vector or algebra element: {type(x)}")


def trace_pairing(x, y) -> complex:
    """Bilinear pairing tr(x y) between conjugate exponents.

    p = 1 pairs with the algebra itself (p' = infinity), represented by a
    plain AlgebraElement.
    """
    if x.algebra != y.algebra:
        raise ShapeMismatch("pairing requires a common algebra")
    p, q = _effective_exponent(x), _effective_exponent(y)
    inv = (0.0 if np.isinf(p) else 1.0 / p) + (0.0 if np.isinf(q) else 1.0 / q)
    if abs(inv - 1.0) > 1e-9:
        raise ExponentMismatch(f"exponents {p} and {q} are not conjugate")
    return complex(sum(np.trace(a @ b) for a, b in zip(x.data, y.data)))


def conjugate_exponent(p: float) -> float:
    if p <= 1.0:
        return np.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class ClarksonResult:
    defect: float
    orthogonal: bool
    witness: float


def clarkson_defect(h: LpVector, k: LpVector) -> ClarksonResult:
    """Defect of the p-th power parallelogram identity, with the two-sided
    product witness max(|h k*|, |h* k|).

    For p != 2 a zero defect is equivalent to the vanishing of the witness;
    the computation itself is meaningful at every p.
    """
    if h.algebra != k.algebra:
        raise ShapeMismatch("vectors live on different algebras")
    if h.p != k.p:
        raise ExponentMismatch("vectors carry different exponents")
    p = h.p
    hv, kv = h.vec(), k.vec()
    rows = np.stack([hv + kv, hv - kv, hv, kv])
    n_sum, n_diff, n_h, n_k = lp_norms(h.algebra, p, rows)
    # at large p the powers overflow to inf, and inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = n_sum**p + n_diff**p
        rhs = 2.0 * (n_h**p + n_k**p)
        defect = float(abs(lhs - rhs))
    witness = max((h @ k.adjoint()).frobenius(), (h.adjoint() @ k).frobenius())
    return ClarksonResult(defect=defect, orthogonal=bool(witness < h.algebra.atol), witness=witness)


def mazur_map(h: LpVector, q: float) -> LpVector:
    """Send a positive vector h in L_p to h^(p/q) in L_q."""
    q = float(q)
    if not (1.0 <= q < np.inf):
        raise ExponentUnsupported(f"q must lie in [1, inf), got {q}")
    alg = h.algebra
    scale = max(1.0, h.frobenius())
    if (h - h.adjoint()).frobenius() > 100 * alg.atol * scale:
        raise NotPositive("vector is not Hermitian")
    exponent = h.p / q
    blocks = []
    for b in h.data:
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        if w.size and float(w.min()) < -100 * alg.atol * scale:
            raise NotPositive(f"negative eigenvalue {w.min():.3e}")
        w = np.clip(w, 0.0, None)
        blocks.append((v * w**exponent) @ v.conj().T)
    return LpVector(alg, q, blocks)


# -- dense maps on L_p ---------------------------------------------------------


class LpMap:
    """A dense linear map between L_p spaces in vectorized coordinates."""

    __slots__ = ("source", "target", "p", "matrix")

    def __init__(self, source: Algebra, target: Algebra, p: float, matrix: np.ndarray):
        p = float(p)
        if not (1.0 <= p < np.inf):
            raise ExponentUnsupported(f"p must lie in [1, inf), got {p}")
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (target.total_dim, source.total_dim):
            raise ShapeMismatch(
                f"matrix shape {matrix.shape} != ({target.total_dim}, {source.total_dim})"
            )
        _require_finite([matrix], "map matrix")
        matrix.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("LpMap is immutable")

    @classmethod
    def identity(cls, algebra: Algebra, p: float) -> "LpMap":
        return cls(algebra, algebra, p, np.eye(algebra.total_dim, dtype=complex))

    def __call__(self, h: LpVector) -> LpVector:
        if h.algebra != self.source:
            raise ShapeMismatch("vector does not live on the source algebra")
        if isinstance(h, LpVector) and h.p != self.p:
            raise ExponentMismatch(f"a vector at p = {h.p} given to a map at p = {self.p}")
        return LpVector.from_element(
            AlgebraElement.from_vec(self.target, self.matrix @ h.vec()), self.p
        )

    def compose(self, other: "LpMap") -> "LpMap":
        """self after other; exponents must agree."""
        if other.target != self.source:
            raise ShapeMismatch("composition shapes do not match")
        if other.p != self.p:
            raise ExponentMismatch("composition of maps at different exponents")
        return LpMap(other.source, self.target, self.p, self.matrix @ other.matrix)

    def at_exponent(self, p: float) -> "LpMap":
        """The same matrix acting between L_p spaces at another exponent."""
        return LpMap(self.source, self.target, p, self.matrix)

    def __repr__(self):
        return f"LpMap({self.source.blocks} -> {self.target.blocks}, p={self.p})"


# -- amplification --------------------------------------------------------------


def amplified_algebra(algebra: Algebra, n: int) -> Algebra:
    """The algebra of the n-fold matrix amplification M_n (x) A."""
    if n < 1:
        raise ShapeMismatch("amplification order must be >= 1")
    return Algebra(tuple(n * nb for nb in algebra.blocks))


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


def _amplified_positions(algebra: Algebra, n: int, i: int, j: int) -> np.ndarray:
    """Vectorized positions of e_ij (x) u in the n-fold amplification, for
    every matrix unit u of the algebra in vectorization order."""
    if max(i, j) >= n:
        raise ShapeMismatch(f"e_{i}{j} is not a unit of M_{n}")
    pos = []
    for off, m in zip(amplified_algebra(algebra, n).offsets(), algebra.blocks):
        r, s = np.divmod(np.arange(m * m), m)
        pos.append(off + (i * m + r) * (n * m) + j * m + s)
    return np.concatenate(pos)


def amplify_map(T: LpMap, n: int) -> LpMap:
    """Matrix of id_{M_n} (x) T under the fixed vectorization.

    On a tensor a (x) h the amplified map acts as a (x) T(h), so it sends
    e_ij (x) u to e_ij (x) T(u): the matrix holds n^2 copies of T.matrix,
    scattered to the positions of the amplified matrix units.
    """
    if n < 1:
        raise ShapeMismatch("amplification order must be >= 1")
    src_big = amplified_algebra(T.source, n)
    tgt_big = amplified_algebra(T.target, n)
    matrix = np.zeros((tgt_big.total_dim, src_big.total_dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            rows = _amplified_positions(T.target, n, i, j)
            cols = _amplified_positions(T.source, n, i, j)
            matrix[np.ix_(rows, cols)] = T.matrix
    return LpMap(src_big, tgt_big, T.p, matrix)
