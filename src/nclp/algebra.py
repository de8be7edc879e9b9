"""Finite-dimensional von Neumann algebras as direct sums of matrix blocks.

An algebra is a direct sum of full complex matrix blocks M_{n_1} + ... + M_{n_B}.
Elements, states, and linear maps are stored blockwise.  The normative
vectorization used by every dense map matrix in this package concatenates the
blocks in order, each flattened row-major.

All values are immutable after construction and all operations are pure, so
everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    EmptyBlocks,
    NonFinite,
    NonPositiveDensity,
    NonPositiveDim,
    ShapeMismatch,
)

ATOL_BASE = 1e-9
EPS_FAITHFUL = 1e-8
INJECTIVITY_TOL = 1e-6  # a map is injective when its smallest singular value exceeds this
_CACHE_SIZE = 32  # entries kept by each cache of per-algebra arrays


@dataclass(frozen=True)
class Algebra:
    """Direct sum of full matrix blocks, given by the block dimensions.

    `total_dim`, the dimension as a vector space (sum of n_b^2), and the
    block offsets are computed once from the blocks; they are not fields, so
    equality, hashing and the repr read the blocks alone."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise EmptyBlocks("an algebra needs at least one block")
        if any((not isinstance(n, (int, np.integer))) or n < 1 for n in self.blocks):
            raise NonPositiveDim(f"block dimensions must be positive integers: {self.blocks}")
        blocks = tuple(int(n) for n in self.blocks)
        ends = list(accumulate((n * n for n in blocks), initial=0))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "total_dim", ends[-1])
        object.__setattr__(self, "_offsets", tuple(ends[:-1]))

    @property
    def matrix_dim(self) -> int:
        """Size of the underlying Hilbert space, sum of n_b."""
        return int(sum(self.blocks))

    @property
    def atol(self) -> float:
        """Absolute tolerance used for algebraic identities at this size."""
        return ATOL_BASE * max(1, self.total_dim)

    @property
    def certificate_tol(self) -> float:
        """Tolerance of expectation and Yeadon triple certificates at this size."""
        return 1e-7 * max(1, self.total_dim)

    def offsets(self) -> list[int]:
        return list(self._offsets)

    def zero_blocks(self) -> list[np.ndarray]:
        return [np.zeros((n, n), dtype=complex) for n in self.blocks]


def make_algebra(blocks: Sequence[int]) -> Algebra:
    """Build the direct sum of full matrix blocks with the given dimensions."""
    return Algebra(tuple(blocks))


def _require_finite(arrays: Iterable[np.ndarray], what: str) -> None:
    """Raise NonFinite unless every entry of every array is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFinite(f"{what} has a NaN or infinite entry")


def _squared_norms(flat: np.ndarray) -> list[float]:
    """np.linalg.norm(b) ** 2 by its arithmetic, for the block b flattened in
    memory order into the 1-D flat or each row b of a 2-D flat: sqrt(re.re +
    im.im) (rows as stacked matmuls, the same dots), squared by libm pow, not
    x * x.  The root of a finite double squares to at most the float max."""
    re, im = flat.real, flat.imag
    if flat.ndim == 1:
        return [math.sqrt(re.dot(re) + im.dot(im)) ** 2]
    re, im = re[:, None, :], im[:, None, :]
    sq = np.matmul(re, re.transpose(0, 2, 1)) + np.matmul(im, im.transpose(0, 2, 1))
    return [n**2 for n in np.sqrt(sq[:, 0, 0]).tolist()]


def _frobenius(blocks: Iterable[np.ndarray]) -> float:
    """The Frobenius norm of the element with these blocks, squares summed from 0."""
    return math.sqrt(sum(sq for b in blocks for sq in _squared_norms(b.ravel(order="K"))))


def _as_block_data(algebra: Algebra, data: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    mats = []
    data = list(data)
    if len(data) != len(algebra.blocks):
        raise ShapeMismatch(f"expected {len(algebra.blocks)} blocks, got {len(data)}")
    for n, mat in zip(algebra.blocks, data):
        arr = np.array(mat, dtype=complex)
        if arr.shape != (n, n):
            raise ShapeMismatch(f"block of shape {arr.shape} does not match dimension {n}")
        arr.setflags(write=False)
        mats.append(arr)
    return tuple(mats)


class _Immutable:
    """Refuses every attribute assignment, naming the type: the fields are
    set through object.__setattr__ at construction, and a `cached_property`
    writes the instance __dict__ directly."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class AlgebraElement(_Immutable):
    """A blockwise matrix, the generic element of an algebra.

    The same storage carries bounded operators and L_p vectors; only the role
    differs.  Instances are immutable.
    """

    __slots__ = ("algebra", "data")

    def __init__(self, algebra: Algebra, data: Iterable[np.ndarray]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "data", _as_block_data(algebra, data))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra: Algebra) -> "AlgebraElement":
        return cls(algebra, algebra.zero_blocks())

    @classmethod
    def identity(cls, algebra: Algebra) -> "AlgebraElement":
        return cls(algebra, [np.eye(n, dtype=complex) for n in algebra.blocks])

    @classmethod
    def from_vec(cls, algebra: Algebra, vec: np.ndarray) -> "AlgebraElement":
        # one copy of the vector, so that no block aliases the caller's array
        vec = np.array(vec, dtype=complex).reshape(-1)
        if vec.size != algebra.total_dim:
            raise ShapeMismatch(f"vector length {vec.size} != total_dim {algebra.total_dim}")
        cuts = zip(algebra.offsets(), algebra.blocks)
        return AlgebraElement._raw(algebra, [vec[o : o + n * n].reshape(n, n) for o, n in cuts])

    def vec(self) -> np.ndarray:
        """Normative vectorization: blocks in order, each row-major."""
        return np.concatenate([b.reshape(-1) for b in self.data])

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise ShapeMismatch("elements live on different algebras")
            return other
        return None

    def __add__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._like([a + b for a, b in zip(self.data, rhs.data)])

    def __sub__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._like([a - b for a, b in zip(self.data, rhs.data)])

    def __neg__(self):
        return self._like([-a for a in self.data])

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return self._like([scalar * a for a in self.data])
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._like([a @ b for a, b in zip(self.data, rhs.data)])

    @classmethod
    def _raw(cls, algebra, blocks):
        # internal fast path; blocks already well-shaped ndarrays
        inst = object.__new__(cls)
        object.__setattr__(inst, "algebra", algebra)
        # from a list: a tuple built from a generator keeps its larger first allocation
        mats = tuple([np.asarray(arr, dtype=complex) for arr in blocks])
        for arr in mats:
            arr.setflags(write=False)
        object.__setattr__(inst, "data", mats)
        return inst

    def _like(self, blocks) -> "AlgebraElement":
        """A plain element: a product of projections is not a projection."""
        return AlgebraElement._raw(self.algebra, blocks)

    def adjoint(self) -> "AlgebraElement":
        return self._like([b.conj().T for b in self.data])

    def transpose(self) -> "AlgebraElement":
        return self._like([b.T for b in self.data])

    # -- functionals --------------------------------------------------------

    def trace(self) -> complex:
        return complex(sum(np.trace(b) for b in self.data))

    def frobenius(self) -> float:
        return _frobenius(self.data)

    def allclose(self, other: "AlgebraElement", tol: float | None = None) -> bool:
        tol = self.algebra.atol if tol is None else tol
        return (self - other).frobenius() <= tol

    def __repr__(self):
        return f"AlgebraElement(blocks={self.algebra.blocks})"


class Projection(AlgebraElement):
    """An element that is idempotent and self-adjoint within tolerance."""

    def __init__(self, algebra: Algebra, data, tol: float | None = None):
        super().__init__(algebra, data)
        require_projections([b[None] for b in self.data], algebra.atol if tol is None else tol)

    @classmethod
    def from_vec(cls, algebra: Algebra, vec: np.ndarray, tol: float | None = None) -> "Projection":
        """The projection with this vectorization, checked as the constructor checks it."""
        return cls(algebra, AlgebraElement.from_vec(algebra, vec).data, tol)


def require_projections(stacks: Sequence[np.ndarray], tol: float) -> None:
    """Raise ShapeMismatch unless each element, whose blocks are the rows of
    the (N, n, n) stacks, is idempotent and self-adjoint within tol; the
    elements are checked in row order and a NaN defect fails."""
    with np.errstate(invalid="ignore", over="ignore"):
        idem = _stacked_frobenius([np.matmul(S, S) - S for S in stacks])
        adj = _stacked_frobenius([S - S.conj().transpose(0, 2, 1) for S in stacks])
    failing = np.flatnonzero(~((idem <= tol) & (adj <= tol)))
    if failing.size:
        if not idem[failing[0]] <= tol:
            raise ShapeMismatch("not idempotent within tolerance")
        raise ShapeMismatch("not self-adjoint within tolerance")


def matrix_units(algebra: Algebra) -> list[AlgebraElement]:
    """All matrix units e_ij per block, in vectorization order: the rows of
    the identity."""
    return [AlgebraElement.from_vec(algebra, row) for row in np.eye(algebra.total_dim)]


def spectral_clusters(
    mats: Sequence[np.ndarray],
    gap: Callable[[float], float],
    bases: Sequence[np.ndarray] | None = None,
) -> list[list[tuple[float, int, np.ndarray]]]:
    """Eigenpairs (value, block index, vector) of Hermitian blocks, sorted by
    value across blocks and grouped into chained runs: a pair joins the run
    of its predecessor when the values differ by at most gap(max |value|).

    With `bases`, block b is a compression Q_b* x_b Q_b and its eigenvectors
    are mapped back through Q_b; an empty block gives no pairs.
    """
    pairs = []
    for bidx, blk in enumerate(mats):
        w, v = np.linalg.eigh((blk + blk.conj().T) / 2)
        for i in range(w.size):
            vec = v[:, i] if bases is None else bases[bidx] @ v[:, i]
            pairs.append((float(w[i]), bidx, vec))
    pairs.sort(key=lambda t: t[0])
    tol = gap(max((abs(t[0]) for t in pairs), default=0.0))
    clusters: list[list[tuple[float, int, np.ndarray]]] = []
    for pair in pairs:
        if clusters and pair[0] - clusters[-1][-1][0] <= tol:
            clusters[-1].append(pair)
        else:
            clusters.append([pair])
    return clusters


def cluster_projection(algebra: Algebra, cluster) -> AlgebraElement:
    """Sum of the rank-one projections onto the vectors of one cluster."""
    blocks = algebra.zero_blocks()
    for _, bidx, vec in cluster:
        blocks[bidx] += np.outer(vec, vec.conj())
    return AlgebraElement(algebra, blocks)


# -- states ------------------------------------------------------------------


class State(_Immutable):
    """A positive blockwise density matrix with unit trace.

    The eigendecomposition is computed once at construction; all functional
    calculus (powers, logs, complex powers) reuses it, and each real power is
    computed once per exponent and kept.
    """

    __slots__ = ("algebra", "_data", "_eigvals", "_eigvecs", "faithful", "_powers")

    def __init__(self, algebra: Algebra, data, *, normalize: bool = False):
        mats = _as_block_data(algebra, data)
        _require_finite(mats, "density")
        herm_defect = max(float(np.linalg.norm(m - m.conj().T)) for m in mats)
        if herm_defect > 100 * algebra.atol:
            raise NonPositiveDensity(f"density not Hermitian, defect {herm_defect:.3e}")
        mats = tuple((m + m.conj().T) / 2 for m in mats)
        eigvals, eigvecs = [], []
        for m in mats:
            w, v = np.linalg.eigh(m)
            eigvals.append(w)
            eigvecs.append(v)
        low = min(float(w.min()) for w in eigvals)
        if low < -100 * algebra.atol:
            raise NonPositiveDensity(f"negative eigenvalue {low:.3e}")
        eigvals = [np.clip(w, 0.0, None) for w in eigvals]
        total = float(sum(w.sum() for w in eigvals))
        if normalize:
            if total <= 0:
                raise NonPositiveDensity("density has zero trace")
            eigvals = [w / total for w in eigvals]
            mats = tuple(m / total for m in mats)
        else:
            if abs(total - 1.0) > 100 * algebra.atol:
                raise NonPositiveDensity(f"trace {total} != 1")
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_data", mats)
        object.__setattr__(self, "_eigvals", tuple(w for w in eigvals))
        object.__setattr__(self, "_eigvecs", tuple(v for v in eigvecs))
        object.__setattr__(self, "faithful", bool(min(float(w.min()) for w in eigvals) > EPS_FAITHFUL))
        object.__setattr__(self, "_powers", {})

    @property
    def density(self) -> AlgebraElement:
        return AlgebraElement._raw(self.algebra, list(self._data))

    def __call__(self, x: AlgebraElement) -> complex:
        """Evaluate the state: phi(x) = Tr(rho x)."""
        if x.algebra != self.algebra:
            raise ShapeMismatch("element lives on a different algebra")
        return complex(sum(np.trace(r @ b) for r, b in zip(self._data, x.data)))

    def _calculus(self, fn: Callable[[np.ndarray], np.ndarray], threshold: float) -> AlgebraElement:
        """The element with blocks v f(w) v* over the eigenpairs (w, v) of
        each block, f applied to the eigenvalues above threshold and 0 to the
        rest."""
        out = []
        for w, v in zip(self._eigvals, self._eigvecs):
            mask = w > threshold
            values = fn(w[mask])
            spectrum = np.zeros(w.shape, dtype=values.dtype)
            spectrum[mask] = values
            out.append((v * spectrum) @ v.conj().T)
        return AlgebraElement._raw(self.algebra, out)

    def _support_threshold(self) -> float:
        top = max(float(w.max()) for w in self._eigvals)
        return EPS_FAITHFUL * top

    def power_element(self, alpha: float) -> AlgebraElement:
        """rho^alpha by spectral calculus (0^alpha = 0 for alpha > 0); for
        alpha <= 0 on the support of rho and zero on its kernel.  Kept per
        alpha: the element is immutable, so every caller shares it."""
        if alpha not in self._powers:
            thr = self._support_threshold() if alpha <= 0 else -np.inf
            self._powers[alpha] = self._calculus(lambda w: w**alpha, thr)
        return self._powers[alpha]

    def complex_power(self, z: complex) -> AlgebraElement:
        """rho^z on the support of rho, zero on its kernel."""
        return self._calculus(lambda w: np.exp(z * np.log(w)), self._support_threshold())

    def log_pseudo(self) -> AlgebraElement:
        """log(rho) on the support, zero on the kernel."""
        return self._calculus(np.log, self._support_threshold())

    def support(self) -> Projection:
        thr = self._support_threshold()
        blocks = [
            (v[:, w > thr] @ v[:, w > thr].conj().T)
            for w, v in zip(self._eigvals, self._eigvecs)
        ]
        return Projection(self.algebra, blocks)

    def min_eig(self) -> float:
        return min(float(w.min()) for w in self._eigvals)

    def __repr__(self):
        return f"State(blocks={self.algebra.blocks}, faithful={self.faithful})"


def random_faithful_state(algebra: Algebra, seed: int) -> State:
    """Deterministic faithful state: square a seeded Hermitian Gaussian,
    shift by the faithfulness floor, and normalize."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2
        blocks.append(h @ h + EPS_FAITHFUL * np.eye(n))
    state = State(algebra, blocks, normalize=True)
    if state.min_eig() <= EPS_FAITHFUL:
        # normalization can in principle push the floor below the faithfulness
        # threshold; blend with the trace state until it clears
        mix = 100 * EPS_FAITHFUL * algebra.matrix_dim
        blocks = [
            (1 - mix) * b + mix * np.eye(n) / algebra.matrix_dim
            for b, n in zip(state._data, algebra.blocks)
        ]
        state = State(algebra, blocks, normalize=True)
    return state


# -- linear maps --------------------------------------------------------------


class AlgebraMap(_Immutable):
    """A linear map between algebras, stored as a dense matrix acting on the
    normative vectorization.  Its smallest and largest singular values (one
    values-only SVD), its Glimm defect (`unit_system_defect`) and the star
    and Jordan defects of `homomorphism_kind` are computed once and kept:
    the matrix is read-only."""

    def __init__(self, source: Algebra, target: Algebra, matrix: np.ndarray):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (target.total_dim, source.total_dim):
            raise ShapeMismatch(
                f"map matrix shape {matrix.shape} != "
                f"({target.total_dim}, {source.total_dim})"
            )
        _require_finite([matrix], "map matrix")
        matrix.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls, algebra: Algebra) -> "AlgebraMap":
        return cls(algebra, algebra, np.eye(algebra.total_dim, dtype=complex))

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.source:
            raise ShapeMismatch("element does not live on the source algebra")
        return AlgebraElement.from_vec(self.target, self.matrix @ x.vec())

    @cached_property
    def _singular_range(self) -> tuple[float, float]:
        values = np.linalg.svd(self.matrix, compute_uv=False)
        return float(values[-1]), float(values[0])

    def min_singular_value(self) -> float:
        return self._singular_range[0]

    def max_singular_value(self) -> float:
        """The operator 2-norm of the matrix, from the same kept SVD."""
        return self._singular_range[1]

    @cached_property
    def _unit_system_defect(self) -> float:
        return _glimm_defect(self.source, self.target, self.matrix)

    @cached_property
    def _star_and_jordan_defects(self) -> tuple[float, float]:
        return _split_defects(self)

    def __repr__(self):
        return f"AlgebraMap({self.source.blocks} -> {self.target.blocks})"


def trace_row(x: AlgebraElement) -> np.ndarray:
    """The row omega with Tr(x y) = omega . vec(y): each block transposed,
    flattened row-major.  For a density, a state is this row."""
    return np.concatenate([b.T.reshape(-1) for b in x.data])


def pullback_density(state: State, F: AlgebraMap) -> list[np.ndarray]:
    """Density blocks of x -> state(F(x)) on the source of F, unnormalized:
    with omega the trace row of the density, omega F.matrix holds
    state(F(e_ij)) at (b, i, j), so each block is its slice, transposed."""
    row = trace_row(state.density) @ F.matrix
    layout = zip(F.source.offsets(), F.source.blocks)
    return [row[off : off + n * n].reshape(n, n).T for off, n in layout]


def apply_left(a: AlgebraElement, X: np.ndarray) -> np.ndarray:
    """L_a X: x -> a x on every column of the (D, N) array X, block by block,
    without building L_a.  The rows of a block of size m, read as (m, m N),
    hold the column blocks side by side, so one product a_b @ rows does
    them all.  The row-side form is X L_a = (L_{a^T} X^T)^T."""
    return _apply_blockwise(a, X, lambda b, rows, m, N: b @ rows.reshape(m, m * N))


def apply_right(a: AlgebraElement, X: np.ndarray) -> np.ndarray:
    """R_a X: x -> x a on every column of the (D, N) array X, block by block,
    without building R_a.  The rows of a block of size m, read as (m, m, N),
    hold row i of every column block at [i]; a_b^T @ rows, batched over i,
    does them all.  The row-side form is X R_a = (R_{a^T} X^T)^T."""
    return _apply_blockwise(a, X, lambda b, rows, m, N: np.matmul(b.T, rows.reshape(m, m, N)))


def sandwich(a: AlgebraElement, X: np.ndarray, b: AlgebraElement) -> np.ndarray:
    """L_a X L_b, C-contiguous, for X out of the algebra of b into that of a:
    `apply_left` of a, then the right factor as (L_{b^T} (L_a X)^T)^T."""
    return np.ascontiguousarray(apply_left(b.transpose(), apply_left(a, X).T).T)


def _apply_blockwise(a: AlgebraElement, X: np.ndarray, product) -> np.ndarray:
    """The (D, N) array whose rows of each block are product(a_b, rows, m, N)."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != a.algebra.total_dim:
        raise ShapeMismatch(f"array of shape {X.shape} does not act on {a.algebra.total_dim} rows")
    N = X.shape[1]
    out = np.empty(X.shape, dtype=complex)
    for off, m, b in zip(a.algebra.offsets(), a.algebra.blocks, a.data):
        out[off : off + m * m] = product(b, X[off : off + m * m], m, N).reshape(m * m, N)
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def transpose_order(algebra: Algebra) -> np.ndarray:
    """The read-only index array t with vec(x^T) = vec(x)[t]."""
    # entry off + i n + j of vec(x^T) is entry off + j n + i of vec(x)
    layout = zip(algebra.offsets(), algebra.blocks)
    order = np.concatenate(
        [off + np.arange(n * n).reshape(n, n).T.reshape(-1) for off, n in layout]
    )
    order.setflags(write=False)
    return order


def transpose_permutation(algebra: Algebra) -> np.ndarray:
    """Permutation matrix S with S vec(x) = vec(x^T); also the matrix of the
    bilinear trace pairing tr(xy) = vec(x)^T S vec(y)."""
    return np.eye(algebra.total_dim)[transpose_order(algebra)]


# -- homomorphism classification ----------------------------------------------


@dataclass(frozen=True)
class HomomorphismReport:
    """Defect report for the algebraic classification of a linear map."""

    kind: str  # star_homomorphism | jordan_only | neither
    star_defect: float
    jordan_defect: float
    mult_defect: float
    injectivity: float  # smallest singular value of the map matrix

    @property
    def injective(self) -> bool:
        return self.injectivity > INJECTIVITY_TOL

    def kind_at(self, tol: float) -> str:
        """The kind these defects give at the tolerance tol."""
        if self.star_defect <= tol and self.mult_defect <= tol:
            return "star_homomorphism"
        if self.star_defect <= tol and self.jordan_defect <= tol:
            return "jordan_only"
        return "neither"


def _stacked_frobenius(stacks: list[np.ndarray]) -> np.ndarray:
    """Frobenius norms of the elements whose target blocks are the rows of the
    (N, m, m) stacks, bitwise AlgebraElement.frobenius of each with its rows
    read in C order: `_squared_norms` per block, summed over blocks from 0."""
    return np.sqrt(sum(np.array(_squared_norms(S.reshape(len(S), -1))) for S in stacks))


def unit_system_defect(F: AlgebraMap) -> float:
    """The largest Frobenius defect of Glimm's identities for the unit
    images f_ij = F(e_ij), the matrix columns: f_ij* = f_ji, f_i0 f_0j = f_ij
    and f_0i f_j0 = delta_ij f_00 in each source block, and F(1_b) F(1_c) = 0
    for blocks b != c.  They give f_ij f_kl = f_i0 (f_0j f_k0) f_0l =
    delta_jk f_il, and zero across blocks, so they hold exactly when F is a
    *-homomorphism (Davidson, C*-Algebras by Example, III.1), at O(dim)
    products.  A NaN defect is kept.  The map keeps its defect, so it is
    computed once per map; a fresh AlgebraMap of the same matrix computes it
    again."""
    return F._unit_system_defect


def _frobenius_squares(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=(-2, -1)) ** 2 by its arithmetic, without its
    wrapper."""
    return np.sqrt(np.add.reduce((X.conj() * X).real, axis=(-2, -1))) ** 2


def _glimm_defect(source: Algebra, target: Algebra, matrix: np.ndarray) -> float:
    """The defect of `unit_system_defect` for the map from source to target
    whose unit images are the columns of matrix, computed.  Per target block
    the unit images of the k source blocks of one size n form a
    (k, n, n, m, m) stack S, and both product identities are one batched
    product."""
    layout = list(zip(source.offsets(), source.blocks))
    groups = {}  # block size -> (indices of the blocks, their unit columns)
    for b, (off, n) in enumerate(layout):
        idx, cols = groups.setdefault(n, ([], []))
        idx.append(b)
        cols.extend(range(off, off + n * n))
    # squares summed over target blocks
    units = [np.zeros((len(idx), 3, n, n)) for n, (idx, _) in groups.items()]
    cross = np.zeros((len(layout), len(layout)))
    with np.errstate(all="ignore"):
        for toff, m in zip(target.offsets(), target.blocks):
            rows, ones = matrix[toff : toff + m * m], np.empty((len(layout), m, m), dtype=complex)
            for (n, (idx, cols)), sq in zip(groups.items(), units):
                k = len(idx)
                S = rows[:, cols].T.reshape(k, n, n, m, m)
                # [f_i0, f_0i] times [f_0j, f_j0] gives f_i0 f_0j and f_0i f_j0
                factors = np.empty((2, 2, k, n, m, m), dtype=complex)
                factors[0, 0], factors[0, 1] = S[:, :, 0], S[:, 0]
                factors[1, 0], factors[1, 1] = S[:, 0], S[:, :, 0]
                X = np.empty((k, 3, n, n, m, m), dtype=complex)
                np.subtract(S.conj().transpose(0, 2, 1, 4, 3), S, out=X[:, 0])
                products = X[:, 1:].swapaxes(0, 1)  # a view
                np.matmul(factors[0, :, :, :, None], factors[1, :, :, None], out=products)
                X[:, 1] -= S
                diagonal = X[:, 2].reshape(k, n * n, m, m)[:, :: n + 1]  # a view
                diagonal -= S[:, 0, 0][:, None]
                sq += _frobenius_squares(X)
                # F(1_b), each block's diagonal summed along a contiguous axis
                ones[idx] = np.ascontiguousarray(S.diagonal(0, 1, 2)).sum(axis=-1)
            cross += _frobenius_squares(ones[:, None] @ ones[None])
        np.fill_diagonal(cross, 0.0)
        found = np.concatenate([sq.ravel() for sq in units] + [cross.ravel()])
    return float(np.sqrt(np.max(found)))


def homomorphism_kind(F: AlgebraMap, tol: float | None = None) -> HomomorphismReport:
    """Classify a linear map as *-homomorphism, Jordan-only, or neither.

    A Jordan *-homomorphism out of a sum of matrix blocks is a
    *-homomorphism plus a *-anti-homomorphism, cut apart by a central
    projection c (Jacobson-Rickart 1950; Kadison, Isometries of operator
    algebras, 1951).  Three defects decide, each from the unit images
    f_ij = F(e_ij), the matrix columns:
    - star_defect, the largest |f_ij* - f_ji|_F;
    - mult_defect, the Glimm defect `unit_system_defect(F)`, which vanishes
      exactly when F is a *-homomorphism;
    - jordan_defect, the Glimm defect of the split x + y -> c F(x) +
      (F - c F)(y^T), a map out of source + source (`_split_defects`), which
      vanishes exactly when F is a Jordan *-homomorphism.

    If the split passes, c F is a *-homomorphism, F - c F a
    *-anti-homomorphism, and its cross-block identities hold c F(1) (F -
    c F)(1) = 0, so F(x)^2 = F(x^2); no separate centrality check is
    needed.  Conversely, for F = pi + sigma so split, p = f_00 f_01 f_10 is
    pi(e_00) (sigma(e_00) sigma(e_01) = 0) and c = sum_i f_i0 p f_0i is
    pi(1); a block with n = 1 takes p = f_00, all of it to pi.

    The defects do not depend on tol, so the map keeps them; each call
    takes the kind at its own tol.  A NaN defect is kept, so it classifies
    as neither.  A fresh AlgebraMap of the same matrix computes them again.
    """
    tol = max(F.source.atol, F.target.atol) if tol is None else tol
    star_defect, jordan_defect = F._star_and_jordan_defects
    report = HomomorphismReport(
        "", star_defect, jordan_defect, unit_system_defect(F), F.min_singular_value()
    )
    return replace(report, kind=report.kind_at(tol))


def _split_defects(F: AlgebraMap) -> tuple[float, float]:
    """The (star, Jordan) defects `homomorphism_kind` keeps, computed.  Per
    target block the unit images of a source block form an (n, n, m, m)
    stack S, and its part of c is one batched product."""
    U, t = F.matrix, transpose_order(F.source)
    c = []
    with np.errstate(all="ignore"):
        # column u of U[:, t] is f_ji, and vec(x*) is conj(vec(x)) read transposed
        star = np.linalg.norm(U[:, t] - U.conj()[transpose_order(F.target)], axis=0)
        for toff, m in zip(F.target.offsets(), F.target.blocks):
            rows, c_t = U[toff : toff + m * m], np.zeros((m, m), dtype=complex)
            for off, n in zip(F.source.offsets(), F.source.blocks):
                S = rows[:, off : off + n * n].T.reshape(n, n, m, m)
                p = S[0, 0] if n == 1 else S[0, 0] @ S[0, 1] @ S[1, 0]
                c_t += (S[:, 0] @ p @ S[0]).sum(axis=0)
            c.append(c_t)
        cU = apply_left(AlgebraElement._raw(F.target, c), U)
        split = np.concatenate([cU, (U - cU)[:, t]], axis=1)
    doubled = Algebra(F.source.blocks + F.source.blocks)
    return float(np.max(star)), _glimm_defect(doubled, F.target, split)
