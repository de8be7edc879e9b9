"""L_p vectors over block algebras: norms, polar data, Clarkson orthogonality,
Mazur maps, and amplified maps.

An L_p vector is stored exactly like an algebra element; the exponent rides
along.  Norms are computed from p-th power sums S = ||Y||_p^p = tr |Y|^p
of each block Y, never from logs of near-singular matrices.  One route
table picks their source by p, for a stack (`_stack_route`) and for the
rows [Y_i Y_j] and columns [Y_i; Y_j] of pairs of images (`_pair_route`):
at p in {2, 4} Gram traces; at every other p >= 2, for the images of the
sampled defects, the square roots of Gram eigenvalues; else the SVD.

Let the Gram matrix be k x k with entries that are inner products of
length q: k = min(r, c) and q = max(r, c) for an image of r x c, and
k = r, q = 2 c for the sums G_i + G_j (G = Y Y*) of a row of two (k = c,
q = 2 r for a column, H_i + H_j with H = Y* Y), each entry two inner
products of length c added, since Higham's bound holds for any order of
summation.  With unit roundoff u, the computed Gram matrix is G + E with
|E_ij| <= g |y_i| |y_j|, g = sqrt(2) (q + 2) u (Higham, Accuracy and
Stability, 3.5), so ||E||_F <= g ||Y||_F^2 = g tr G.

Gram traces (`_gram_traces`, `_gram_sum_traces`).  S is ||Y||_F^2 at
p = 2 and ||G||_F^2 at p = 4.  At p = 4, S^{1/2} = ||G||_F, which E moves by
at most ||E||_F <= g tr G <= g sqrt(r) ||G||_F, r the rank of Y
(Cauchy-Schwarz on the eigenvalues of G); so ||Y||_4 moves by at most
g sqrt(r) / 2 relative, and the sum of the 2 k^2 squares that make S
adds k^2 u / 2.  At p = 2 the sum of the 2 k q squares moves ||Y||_2 by at
most k q u.  `trace_bounds` in the tests' dense oracles adds these per
block.  Above the guard's floor, a product that underflows moves the total
by at most u^2 relative, since it errs by at most tiny u absolute.

Gram eigenvalues (`_gram_svdvals`, `_gram_sum_svdvals`; the other singular
values of a row of two are exactly 0).  eigvalsh's backward error moves
each eigenvalue by at most eta ||Y||_2^2, eta = k (sqrt(2) (q + 2) + 1) u
(Weyl's inequality).  For p >= 2, ||Y||_p^2 is the l_{p/2} norm of the k
eigenvalues, so ||Y||_p moves by at most k^{2/p} eta / 2 relative; a Gram
matrix that underflows adds at most 2 sqrt(k^{1+2/p} q tiny) absolute,
tiny the smallest normal float (1.2e-152 at k = q = 12).  For p < 2 no
such bound holds: at p = 1 the Gram route errs by up to 3.5e-8 relative on
the benchmark's rank-deficient images, so those keep the SVD.  A Gram stack
that eigvalsh rejects, or with an eigenvalue that is not finite (a NaN or
infinite entry, an overflowing Gram matrix), reads the SVD instead
(`_gram_values`); finite eigenvalues whose sum passes the float max stay.

The guard (`_grouped_norms`) reads each row's total of block sums after
the fact; no stack is scanned before.  A total that is NaN, inf or below
its route's floor refuses its row: tiny / u = 2^-969 times the largest
block weight for Gram traces, where underflow could have moved it by more
than u^2, and the least positive float for singular values.  A refused row
reads its singular values again, a values route its stored ones and a
trace route the SVD of its matrices (`_svdvals`, which reads NaN and
infinite entries), and takes their plain sum; where that overflows or
underflows to 0, the top one is factored out,
s_max (sum w (s / s_max)^p)^(1/p) (Higham, Accuracy and Stability, 27).

The p-th-power step is paid per distinct block shape, as the SVDs and
traces are: one sum of powers and one `tolist` over the rows of all blocks
of that shape, then each row's block sums added as Python floats in block
order, which is the arithmetic of one sum per block.  Overflow is ruled
out from the largest singular value before the powers are taken
(`_power_sums`); only a shape where it cannot be takes them with overflow
ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import (
    Algebra,
    AlgebraElement,
    AlgebraMap,
    Projection,
    State,
    _frobenius,
    _require_finite,
    require_projections,
)
from .errors import (
    DataInvalid,
    ExponentMismatch,
    ExponentUnsupported,
    NotPositive,
    ShapeMismatch,
)

RANK_REL_TOL = 1e-10  # singular values below this fraction of the top one are zeros
# the exponents whose p-th power sums are read off Gram traces, and the
# guard's floors for traces (per unit block weight) and singular values
_TRACE_EXPONENTS = (2.0, 4.0)
_TRACE_FLOOR = np.finfo(float).tiny / (np.finfo(float).eps / 2)
_VALUES_FLOOR = math.ulp(0.0)


def _lp_exponent(value: float, name: str = "p") -> float:
    """value as a float in [1, inf), else ExponentUnsupported."""
    value = float(value)
    if not (1.0 <= value < np.inf):
        raise ExponentUnsupported(f"{name} must lie in [1, inf), got {value}")
    return value


class LpVector(AlgebraElement):
    """A block matrix viewed as an element of L_p, 1 <= p < infinity."""

    __slots__ = ("p",)

    def __init__(self, algebra: Algebra, p: float, data: Iterable[np.ndarray]):
        p = _lp_exponent(p)
        super().__init__(algebra, data)
        object.__setattr__(self, "p", p)

    @classmethod
    def zero(cls, algebra: Algebra, p: float) -> "LpVector":
        return cls(algebra, p, algebra.zero_blocks())

    @classmethod
    def identity(cls, algebra: Algebra, p: float) -> "LpVector":
        return cls(algebra, p, [np.eye(n, dtype=complex) for n in algebra.blocks])

    @classmethod
    def from_element(cls, x: AlgebraElement, p: float) -> "LpVector":
        return cls(x.algebra, p, list(x.data))

    @classmethod
    def from_vec(cls, algebra: Algebra, p: float, vec: np.ndarray) -> "LpVector":
        """The vector of L_p with this vectorization."""
        return cls.from_element(AlgebraElement.from_vec(algebra, vec), p)

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
    return _block_lp_norm(h.data, h.p, weights)


def _block_lp_norm(blocks: Sequence[np.ndarray], p: float, weights=None) -> float:
    """`lp_norm` of the vector with the given complex blocks, each block a
    stack of one for the kernel of `lp_norms`; p must already be a valid
    exponent."""
    return _grouped_norms(_stack_groups([b[None] for b in blocks], p), p, weights)[0]


def _svdvals(stack: np.ndarray) -> np.ndarray:
    """Singular values of each matrix of an (N, r, c) stack.  A matrix with a
    NaN entry reads NaN, one with an infinite entry inf, and the finite ones
    go to LAPACK again.  LAPACK rejects a stack with a NaN entry but returns
    NaN values for an infinite one, so the entries are read only when it
    rejects the stack or a value comes back NaN; the values are nonnegative,
    so their max from 0 is NaN exactly then, and it cannot overflow."""
    try:
        values = np.linalg.svd(stack, compute_uv=False)
        if not math.isnan(values.max(initial=0.0)):
            return values
    except np.linalg.LinAlgError:
        pass
    values = np.full((*stack.shape[:-2], min(stack.shape[-2:])), np.inf)
    values[np.isnan(stack).any(axis=(-2, -1))] = np.nan
    finite = np.isfinite(stack).all(axis=(-2, -1))
    values[finite] = np.linalg.svd(stack[finite], compute_uv=False)
    return values


def _gram_values(gram: np.ndarray) -> np.ndarray | None:
    """The square roots of the eigenvalues of each Hermitian matrix of a
    Gram stack, clipped at 0 and in descending order; None when eigvalsh
    rejects the stack or an eigenvalue is not finite.  The probe reads each
    eigenvalue alone, so it cannot overflow, sees NaN and inf, and passes an
    empty stack."""
    try:
        values = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(values).all():
        return None
    np.maximum(values, 0.0, out=values)
    return np.sqrt(values, out=values)[..., ::-1]


def _gram(stack: np.ndarray) -> np.ndarray:
    """The Gram matrix of each matrix Y of an (N, r, c) stack, Y* Y or Y Y*
    whichever is smaller."""
    adjoint = stack.conj().swapaxes(-1, -2)
    return adjoint @ stack if stack.shape[-1] <= stack.shape[-2] else stack @ adjoint


def _gram_svdvals(stack: np.ndarray) -> np.ndarray | None:
    """Singular values of each matrix Y of an (N, r, c) stack as the
    `_gram_values` of its `_gram` matrix; None where those are, as a NaN or
    infinite entry or an overflowing Gram matrix makes them."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram(stack)
    return _gram_values(gram)


def _gram_sums(images: np.ndarray, pairs: np.ndarray) -> list[np.ndarray]:
    """For an (U, r, c) stack of images Y_u and (R, 2) index pairs (i, j)
    into it: G_i + G_j with G = Y Y*, the Gram matrix of each row
    [Y_i Y_j], and H_i + H_j with H = Y* Y, that of each column [Y_i; Y_j].
    G and H are one batched product each."""
    adjoint = images.conj().swapaxes(-1, -2)
    G, H = images @ adjoint, adjoint @ images
    return [G[pairs[:, 0]] + G[pairs[:, 1]], H[pairs[:, 0]] + H[pairs[:, 1]]]


def _gram_sum_svdvals(images: np.ndarray, pairs: np.ndarray):
    """For an (U, r, c) stack of images Y_u and (R, 2) index pairs (i, j)
    into it: the nonzero singular values of each row [Y_i Y_j], the
    `_gram_values` of its `_gram_sums` matrix, then those of each column
    [Y_i; Y_j], as one array of max(r, c) values per row or column, rows
    first, padded with zeros; the other singular values are exactly 0.
    None when `_gram_values` is None for either side."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _gram_sums(images, pairs)
    r, c = images.shape[1:]
    if r == c:
        return _gram_values(np.concatenate(sums))
    row_values, column_values = (_gram_values(s) for s in sums)
    if row_values is None or column_values is None:
        return None
    values = np.zeros((2 * len(pairs), max(r, c)))
    values[: len(pairs), :r] = row_values
    values[len(pairs) :, :c] = column_values
    return values


class _Traces(NamedTuple):
    """The p-th power sums ||Y||_p^p of the matrices Y of a stack, one per
    matrix, read off Gram traces (`_gram_traces`, `_gram_sum_traces`), and
    `matrices`, which gives the matrices at given indices: a row that the
    guard refuses reads their singular values instead (`_grouped_norms`)."""

    sums: np.ndarray
    matrices: Callable[[np.ndarray], np.ndarray]


def _squares(stack: np.ndarray) -> np.ndarray:
    """||A||_F^2 = sum |A_ij|^2 of each matrix of an (N, r, c) stack of
    complex128 or float64 entries, one real sum of the squares of the
    r c (float) or 2 r c (complex) parts, read as float64."""
    shape = (len(stack), stack.shape[1] * stack.shape[2])
    flat = np.ascontiguousarray(stack).reshape(shape).view(np.float64)
    return np.add.reduce(flat * flat, axis=1)


def _gram_traces(stack: np.ndarray, p: float) -> _Traces:
    """The `_Traces` of an (N, r, c) stack of complex128 or float64 entries
    at p in _TRACE_EXPONENTS: the `_squares` of each matrix at p = 2 and of
    its `_gram` matrix at p = 4.  Overflow and NaN are left unwarned; the
    guard sees them."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _squares(stack if p == 2.0 else _gram(stack))
    return _Traces(sums, stack.__getitem__)


def _gram_sum_traces(images: np.ndarray, pairs: np.ndarray, p: float, matrices) -> _Traces:
    """`_gram_sum_svdvals` read as the `_Traces` of its rows and columns, in
    its order, at p in _TRACE_EXPONENTS: at p = 4 the `_squares` of their
    `_gram_sums` matrices, at p = 2 ||Y_i||_F^2 + ||Y_j||_F^2 for both.
    `matrices(indices)` builds those rows and columns themselves."""
    with np.errstate(over="ignore", invalid="ignore"):
        if p == 2.0:
            squares = _squares(images)
            sums = np.tile(squares[pairs[:, 0]] + squares[pairs[:, 1]], 2)
        else:
            sums = np.concatenate([_squares(side) for side in _gram_sums(images, pairs)])
    return _Traces(sums, matrices)


def _stack_route(stack: np.ndarray, p: float | None, images: bool = False) -> tuple[str, object]:
    """The route table's entry for an (N, r, c) stack at p, as the route's
    name and what it reads: "trace", the `_gram_traces`, at p in
    _TRACE_EXPONENTS; "gram", the `_gram_svdvals` of images at every other
    p >= 2 unless they are None; else "svd", the `_svdvals`, which at
    p = None serve every exponent."""
    if p in _TRACE_EXPONENTS:
        return "trace", _gram_traces(stack, p)
    if images and p >= 2.0:
        values = _gram_svdvals(stack)
        if values is not None:
            return "gram", values
    return "svd", _svdvals(stack)


def _reads_pairs(p: float) -> bool:
    """Whether `_pair_route` reads the rows and columns of pairs of images at
    p: where their Gram sums are bounded; else they are stacks like any other."""
    return p >= 2.0


def _pair_route(images: np.ndarray, pairs: np.ndarray, p: float, matrices):
    """The route table's entry for the rows [Y_i Y_j] and columns [Y_i; Y_j]
    of pairs of images Y_u of an (U, r, c) stack, in `_gram_sum_svdvals`
    order, where `_reads_pairs`: their `_gram_sum_traces` at p in
    _TRACE_EXPONENTS, else their `_gram_sum_svdvals`, or where those are
    None the `_svdvals` of `matrices(indices)`, which builds them."""
    if p in _TRACE_EXPONENTS:
        return _gram_sum_traces(images, pairs, p, matrices)
    values = _gram_sum_svdvals(images, pairs)
    return _svdvals(matrices(slice(None))) if values is None else values


def _stack_groups(
    stacks: Sequence[np.ndarray], p: float | None = None, images: bool = False
) -> list[tuple]:
    """What the p-norms of the rows of each block's (N, r, c) stack are read
    from, per distinct matrix shape: the `_stack_route` of the stacks of
    that shape joined, as a pair (sums, blocks) with the blocks in order,
    the j-th owning rows j N to (j + 1) N of the sums.  LAPACK sees each
    matrix alone, so the values do not depend on the grouping, except that
    a joined stack takes the Gram route or the SVD as a whole."""
    if len(stacks) == 1:
        return [(_stack_route(stacks[0], p, images)[1], (0,))]
    shapes = [stack.shape[1:] for stack in stacks]
    groups = []
    for shape in dict.fromkeys(shapes):
        group = tuple(b for b, s in enumerate(shapes) if s == shape)
        joined = stacks[group[0]] if len(group) == 1 else np.concatenate([stacks[b] for b in group])
        groups.append((_stack_route(joined, p, images)[1], group))
    return groups


def _reread(groups: Sequence[tuple], rows: np.ndarray, count: int) -> list[tuple]:
    """The singular values of the rows at these indices, of `count` rows
    grouped as `_stack_groups` groups them: a values group gives its own, a
    `_Traces` group the SVD of those rows' matrices in each of its blocks."""
    out = []
    for sums, blocks in groups:
        picked = np.concatenate([j * count + rows for j in range(len(blocks))])
        values = _svdvals(sums.matrices(picked)) if isinstance(sums, _Traces) else sums[picked]
        out.append((values, blocks))
    return out


def _block_values(groups: Sequence[tuple]) -> list[np.ndarray]:
    """The singular values of each block's stack, in block order, as views
    of the groups of `_stack_groups`."""
    out = {}
    for values, blocks in groups:
        n = len(values) // len(blocks)
        for j, b in enumerate(blocks):
            out[b] = values[j * n : (j + 1) * n]
    return [out[b] for b in range(len(out))]


def _row_stacks(algebra: Algebra, rows: np.ndarray) -> list[np.ndarray]:
    """Each block of the rows of an N x total_dim array, as an (N, n, n) stack."""
    cuts = zip(algebra.offsets(), algebra.blocks)
    return [rows[:, off : off + n * n].reshape(-1, n, n) for off, n in cuts]


def _singular_values(algebra: Algebra, rows: np.ndarray) -> list[tuple]:
    """The singular values of each row's blocks, grouped per block size as
    `_stack_groups` groups them."""
    return _stack_groups(_row_stacks(algebra, rows))


def lp_norms(
    algebra: Algebra, p: float, rows: np.ndarray, weights: Sequence[float] | None = None
) -> np.ndarray:
    """The p-norms of the rows of an N x total_dim array, each row a vector
    in the normative vectorization, read in double precision whatever their
    dtype: one stacked SVD or Gram trace per distinct block size, under the
    guard of the module docstring."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != algebra.total_dim:
        raise ShapeMismatch(f"rows of shape {rows.shape} are not N x {algebra.total_dim}")
    rows = np.asarray(rows, dtype=complex if np.iscomplexobj(rows) else float)
    return np.array(_grouped_norms(_stack_groups(_row_stacks(algebra, rows), p), p, weights))


def _power_sums(values: np.ndarray, p: float) -> list[float]:
    """Each row's sum of the p-th powers of its values, as a list.

    The values descend along a row, so its first is its top.  When the
    largest top t keeps t^p times twice the number of values in a row
    finite, neither the powers nor their sums can overflow, and numpy's
    floating-point checks are left as they are; otherwise (Python's t^p
    raises OverflowError, or t is inf or NaN) the powers are taken with
    overflow ignored, in the same arithmetic.  A stack of a few rows reads
    its tops as a list, whose max is NaN when the first top is and otherwise
    passes over NaN rows, which cannot overflow; a longer one reads them
    through numpy's max."""
    if len(values) > 16:
        top = float(values.max())
    else:
        tops = values[:, 0].tolist()
        top = max(tops) if tops else 0.0
    try:
        fits = top**p * (2 * values.shape[1]) < math.inf
    except OverflowError:
        fits = False
    if fits:
        return (values**p).sum(axis=-1).tolist()
    with np.errstate(over="ignore"):
        return (values**p).sum(axis=-1).tolist()


def _trace_weights(count: int, weights: Sequence[float]) -> list[float]:
    """The block weights of a weighted trace on count blocks as floats, each
    positive and finite, else ShapeMismatch or DataInvalid."""
    weights = [float(w) for w in weights]
    if len(weights) != count:
        raise ShapeMismatch("one trace weight per block is required")
    if not all(0.0 < w < math.inf for w in weights):
        raise DataInvalid("trace weights must be positive and finite")
    return weights


def _grouped_norms(groups: Sequence[tuple], p: float, weights=None) -> list[float]:
    """`lp_norms` of the rows whose block sums the groups of `_stack_groups`
    hold, as a list, under the guard of the module docstring.

    A shape's sums are read once: a `_Traces` group's as they are, a values
    group's as one sum of p-th powers over the rows of all its blocks and
    one `tolist` (`_power_sums`).  Each row's block sums are then added in
    block order as Python floats, t_1 + t_2 + ... unweighted and
    0.0 + w_1 t_1 + w_2 t_2 + ... weighted: the float64 arithmetic of one
    sum per block, where an overflow gives inf without a warning.  The root
    is taken per row as a Python float, which np.power differs from by an
    ulp."""
    traced = isinstance(groups[0][0], _Traces)
    count = 0
    for _, blocks in groups:
        count += len(blocks)
    per_block: list = [None] * count
    for values, blocks in groups:
        sums = values.sums.tolist() if traced else _power_sums(values, p)
        if len(blocks) == 1:
            per_block[blocks[0]] = sums
            continue
        n = len(sums) // len(blocks)
        for j, b in enumerate(blocks):
            per_block[b] = sums[j * n : (j + 1) * n]
    ws = [1.0] * count if weights is None else _trace_weights(count, weights)
    if weights is None:
        total = per_block[0]
        for t in per_block[1:]:
            total = [a + b for a, b in zip(total, t)]
    else:
        total = [0.0 + ws[0] * t for t in per_block[0]]
        for w, t in zip(ws[1:], per_block[1:]):
            total = [a + w * b for a, b in zip(total, t)]
    root = 1.0 / p
    norms = [t**root for t in total]
    floor = _TRACE_FLOOR * max(ws) if traced else _VALUES_FLOOR
    if sum(total) < math.inf and min(total or [floor]) >= floor:  # NaN fails the sum
        return norms
    refused = [r for r, t in enumerate(total) if not floor <= t < math.inf]
    if not refused:
        return norms
    again = _reread(groups, np.array(refused), len(total))
    if traced:  # the plain sums of the singular values, under their own floor
        fresh = _grouped_norms(again, p, weights)
    else:  # the plain sums are the refused totals: factor the top value out
        svals = _block_values(again)
        top = np.max([s[:, 0] for s in svals], axis=0)
        fresh = [norms[r] for r in refused]
        for i, s_max in enumerate(top):  # a row whose top value is inf keeps the norm inf
            if 0.0 < s_max < math.inf:
                scaled = sum(w * float(np.sum((s[i] / s_max) ** p)) for w, s in zip(ws, svals))
                fresh[i] = float(s_max) * scaled**root
    for r, norm in zip(refused, fresh):
        norms[r] = norm
    return norms


@dataclass(frozen=True, eq=False)
class PolarData:
    """Polar decomposition h = w * modulus with support projections, kept
    as the blockwise SVDs (u, s, vh) of h, at exponent p, and the rank mask
    of each block.  Each part is built on its first read and kept; a support
    is checked as a projection when it is read.

    The partial isometry keeps only singular directions above the relative
    rank threshold, with its singular values snapped to one; the modulus is
    the full (h* h)^(1/2)."""

    algebra: Algebra
    p: float
    svds: tuple
    keeps: tuple

    @cached_property
    def w(self) -> AlgebraElement:
        blocks = [u[:, keep] @ vh[keep, :] for (u, _, vh), keep in zip(self.svds, self.keeps)]
        return AlgebraElement(self.algebra, blocks)

    @cached_property
    def modulus(self) -> LpVector:
        return LpVector(self.algebra, self.p, [(vh.conj().T * s) @ vh for _, s, vh in self.svds])

    @cached_property
    def s_left(self) -> Projection:
        blocks = [_support_stack(u.conj().T, keep) for (u, _, _), keep in zip(self.svds, self.keeps)]
        return Projection(self.algebra, blocks)

    @cached_property
    def s_right(self) -> Projection:
        blocks = [_support_stack(vh, keep) for (_, _, vh), keep in zip(self.svds, self.keeps)]
        return Projection(self.algebra, blocks)


def _support_stack(vh: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """vr vr* on the kept rows of vh, as (vh keep)* (vh keep) with the rows
    that are not kept zeroed: one product for a matrix, or for each matrix of
    a stack of them with a mask per matrix."""
    kept = vh * keep[..., None]
    return kept.conj().swapaxes(-1, -2) @ kept


def _rank_masks(svals: list[np.ndarray]) -> list[np.ndarray]:
    """Per block, which singular values count as nonzero: those above
    RANK_REL_TOL times the top one across all blocks, none when every one
    vanishes.  Each array holds descending singular values on its last
    axis; leading axes index stacked vectors, each with its own top."""
    top = np.max([s[..., 0] for s in svals], axis=0)[..., None]
    return [(s > RANK_REL_TOL * top) & (top > 0) for s in svals]


def polar_decompose(h: LpVector) -> PolarData:
    """Polar-decompose blockwise via SVD, under the rank rule of
    `_rank_masks`, the parts built as read; NaN or inf raises NonFinite."""
    _require_finite(h.data, "vector")
    svds = tuple(np.linalg.svd(b) for b in h.data)
    return PolarData(h.algebra, h.p, svds, tuple(_rank_masks([s for _, s, _ in svds])))


def right_supports(algebra: Algebra, rows: np.ndarray) -> np.ndarray:
    """Right support projections of the rows of an N x total_dim array, as
    rows, each bitwise `polar_decompose(h).s_right` of its row h.

    One stacked SVD per block and the rank rule of `polar_decompose`; the
    supports of a block are one stacked product on the kept right singular
    vectors of each row (`_support_stack`).  They are checked as
    projections, in row order, within the algebra's tolerance.
    """
    svds = [
        np.linalg.svd(rows[:, off : off + n * n].reshape(-1, n, n))
        for off, n in zip(algebra.offsets(), algebra.blocks)
    ]
    keeps = _rank_masks([s for _, s, _ in svds])
    stacks = [_support_stack(vh, keep) for (_, _, vh), keep in zip(svds, keeps)]
    require_projections(stacks, algebra.atol)
    return np.hstack([stack.reshape(len(stack), -1) for stack in stacks])


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
    rows = [np.array([a + b, a - b, a, b]) for a, b in zip(h.data, k.data)]
    groups = _stack_groups(rows, p)
    n_sum, n_diff, n_h, n_k = _grouped_norms(groups, p)
    # at large p the powers overflow and inf - inf is NaN; then each p-th power
    # is a sum of s^p with the top singular value factored out, as in lp_norms,
    # so that an exact cancellation gives 0 and only a nonzero excess overflows;
    # the singular values are the groups' own, or the SVD of the rows at p in
    # {2, 4}
    try:
        defect = abs(n_sum**p + n_diff**p - 2.0 * (n_h**p + n_k**p))
    except OverflowError:
        defect = np.inf
    if not math.isfinite(defect):
        svals = _block_values(_reread(groups, np.arange(4), 4))
        with np.errstate(over="ignore", invalid="ignore"):
            top = max(s.max() for s in svals)
            powers = sum(np.sum((s / top) ** p, axis=-1) for s in svals)
            excess = abs(powers[0] + powers[1] - 2.0 * (powers[2] + powers[3]))
            defect = 0.0 if excess == 0.0 else float(excess * top**p)
    # ||h k*||_F <= ||h||_F ||k||_F <= N^{max(0, 1 - 2/p)} n_h n_k, N the
    # matrix size; above 1e150 a square might overflow, so the witness is
    # measured on h and k scaled by the powers of two 2^-e near 1 / n_h and
    # 1 / n_k, exactly, and scaled back
    pairs, shift = list(zip(h.data, k.data)), 0
    if not h.algebra.matrix_dim ** max(0.0, 1.0 - 2.0 / p) * n_h * n_k <= 1e150:
        e_h, e_k = math.frexp(n_h)[1], math.frexp(n_k)[1]
        pairs, shift = [(a * 2.0**-e_h, b * 2.0**-e_k) for a, b in pairs], e_h + e_k
    witness = max(
        _frobenius([a @ b.conj().T for a, b in pairs]),
        _frobenius([a.conj().T @ b for a, b in pairs]),
    )
    try:
        witness = math.ldexp(witness, shift)
    except OverflowError:
        witness = math.inf
    return ClarksonResult(defect=defect, orthogonal=bool(witness < h.algebra.atol), witness=witness)


def mazur_map(h: LpVector, q: float) -> LpVector:
    """Send a positive vector h in L_p to h^(p/q) in L_q; NaN or inf raises NonFinite."""
    q = _lp_exponent(q, "q")
    _require_finite(h.data, "vector")
    spectra, floor = _hermitian_spectra(h)
    return _spectral_power(h, spectra, floor, q)


def _hermitian_spectra(h: LpVector) -> tuple[list, float]:
    """The eigendecomposition (w, v) of each block's Hermitian part, and the
    least eigenvalue a positive h may have, -100 atol max(1, ||h||_2).
    Raise NotPositive unless h is Hermitian within 100 atol max(1, ||h||_2)."""
    scale = max(1.0, h.frobenius())
    if (h - h.adjoint()).frobenius() > 100 * h.algebra.atol * scale:
        raise NotPositive("vector is not Hermitian")
    return [np.linalg.eigh((b + b.conj().T) / 2) for b in h.data], -100 * h.algebra.atol * scale


def _spectral_power(h: LpVector, spectra: list, floor: float, q: float) -> LpVector:
    """h^(p/q) in L_q from `_hermitian_spectra` of h: NotPositive on the
    first block with an eigenvalue below the floor, the others clipped at 0."""
    exponent = h.p / q
    blocks = []
    for w, v in spectra:
        if w.size and float(w.min()) < floor:
            raise NotPositive(f"negative eigenvalue {w.min():.3e}")
        w = np.clip(w, 0.0, None)
        blocks.append((v * w**exponent) @ v.conj().T)
    return LpVector(h.algebra, q, blocks)


def _spectral_support(algebra: Algebra, spectra: list) -> AlgebraElement:
    """The support of a Hermitian element from the eigh pairs (w, v) of its
    blocks, as `_hermitian_spectra` gives them: the singular values are the
    |eigenvalues|, so the eigenvectors are kept whose |eigenvalue| passes
    the rank rule of `_rank_masks`.  The eigenvectors are orthonormal, so
    the sum of their projections is one by construction and is not checked
    again as a `Projection`."""
    orders = [np.argsort(-np.abs(w), kind="stable") for w, _ in spectra]
    keeps = _rank_masks([np.abs(w)[order] for (w, _), order in zip(spectra, orders)])
    vhs = [v[:, order].conj().T for (_, v), order in zip(spectra, orders)]
    return AlgebraElement(algebra, [_support_stack(vh, keep) for vh, keep in zip(vhs, keeps)])


# -- dense maps on L_p ---------------------------------------------------------


class LpMap(AlgebraMap):
    """A dense linear map between L_p spaces in vectorized coordinates: the
    `AlgebraMap` of the matrix, at an exponent."""

    def __init__(self, source: Algebra, target: Algebra, p: float, matrix: np.ndarray):
        p = _lp_exponent(p)
        super().__init__(source, target, matrix)
        object.__setattr__(self, "p", p)

    @classmethod
    def identity(cls, algebra: Algebra, p: float) -> "LpMap":
        return cls(algebra, algebra, p, np.eye(algebra.total_dim, dtype=complex))

    def __call__(self, h: LpVector) -> LpVector:
        image = AlgebraMap.__call__(self, h)
        if isinstance(h, LpVector) and h.p != self.p:
            raise ExponentMismatch(f"a vector at p = {h.p} given to a map at p = {self.p}")
        return LpVector.from_element(image, self.p)

    def at_exponent(self, p: float) -> "LpMap":
        """The same matrix acting between L_p spaces at another exponent; the
        map itself at its own exponent, so what it keeps is found once."""
        if float(p) == self.p:
            return self
        return LpMap(self.source, self.target, p, self.matrix)

    def __repr__(self):
        return f"LpMap({self.source.blocks} -> {self.target.blocks}, p={self.p})"


# -- amplification --------------------------------------------------------------


def amplified_algebra(algebra: Algebra, n: int) -> Algebra:
    """The algebra of the n-fold matrix amplification M_n (x) A."""
    if n < 1:
        raise ShapeMismatch("amplification order must be >= 1")
    return Algebra(tuple(n * nb for nb in algebra.blocks))


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
    src_big = amplified_algebra(T.source, n)
    tgt_big = amplified_algebra(T.target, n)
    matrix = np.zeros((tgt_big.total_dim, src_big.total_dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            rows = _amplified_positions(T.target, n, i, j)
            cols = _amplified_positions(T.source, n, i, j)
            matrix[np.ix_(rows, cols)] = T.matrix
    return LpMap(src_big, tgt_big, T.p, matrix)
