"""Canonical 2-isometries between L_p spaces and their classification.

A canonical map is assembled from a triple: an injective *-homomorphism pi
into the target algebra, a state-preserving conditional expectation E onto
its image, and a partial isometry w whose initial projection is pi(1).  With
a faithful reference state phi on the source, the map sends phi^{1/p} x to
w phibar^{1/p} pi(x) where phibar extends phi through pi and E.

Classification runs the reverse direction: right supports of the images of
a basis of projections recover pi, the polar data of one image recovers w
and phibar, modular invariance recovers E, and the canonical form on a
basis closes the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (
    _CACHE_SIZE,
    INJECTIVITY_TOL,
    _require_finite,
    Algebra,
    AlgebraElement,
    AlgebraMap,
    State,
    apply_left,
    homomorphism_kind,
    sandwich,
    trace_row,
    unit_system_defect,
)
from .errors import (
    DataInvalid,
    ExponentUnsupported,
    NonFaithful,
    NotAnIsometry,
    NotInvariant,
    ShapeMismatch,
    ZeroImage,
)
from .expectation import (
    ConditionalExpectation,
    Subalgebra,
    construct_expectation,
)
from .lp import (
    LpMap,
    LpVector,
    _amplified_positions,
    _grouped_norms,
    _lp_exponent,
    _pair_route,
    _rank_masks,
    _reads_pairs,
    _singular_values,
    _stack_groups,
    amplified_algebra,
    conjugate_exponent,
    lp_norms,
    polar_decompose,
    right_supports,
)

METRIC_TOL = 1e-7  # accept threshold for sampled metric defects
# largest bound on the relative change of a sampled norm that measuring the
# images on their supports may cause (`_compressed_blocks`)
SUPPORT_ALLOWANCE = 1e-12
WARN_TOL = 1e-4  # defects between these two are reported as a warn band
DATA_TOL = 1e-6  # w* w = pi(1) and the state restriction, in validate and stage 6
_FOREIGN_STATE = "state lives on a different algebra than the map source"


@dataclass(frozen=True, eq=False)
class IsometryData:
    """The classification data of a canonical 2-isometry."""

    source: Algebra
    target: Algebra
    pi: AlgebraMap
    w: AlgebraElement
    expectation: ConditionalExpectation
    reference_state: State

    @property
    def phibar(self) -> State:
        return self.expectation.state

    def validate(self) -> None:
        """Raise unless pi is an injective *-homomorphism between the declared
        algebras, the reference state is faithful, w* w = pi(1) and phibar
        restricts through pi to the reference state, the last two within
        DATA_TOL.

        pi passes by `_is_injective_star_homomorphism`, the rule of stage 2
        of `classify`; `homomorphism_kind` only names the kind of a pi that
        fails.  Every input is immutable, so a pass is kept on the instance
        and a later call returns at once; a failure keeps nothing."""
        if self.__dict__.get("_validated"):
            return
        if self.pi.source != self.source or self.pi.target != self.target:
            raise DataInvalid("homomorphism does not match the declared algebras")
        if not self.reference_state.faithful:
            raise NonFaithful("reference state must be faithful")
        if not _is_injective_star_homomorphism(self.pi):
            kind = homomorphism_kind(self.pi).kind
            raise DataInvalid(f"pi is not an injective *-homomorphism ({kind})")
        if not _support_defect(self.w, self.pi) <= DATA_TOL:
            raise DataInvalid("w* w differs from pi(1)")
        # the preserved state must restrict through pi to the reference state
        defect = verify_state_restriction(self.phibar, self.pi, self.reference_state)
        if not defect <= DATA_TOL:
            raise DataInvalid(f"state restriction defect {defect:.3e}")
        self.__dict__["_validated"] = True


def _is_injective_star_homomorphism(pi: AlgebraMap) -> bool:
    """pi passes as an injective *-homomorphism: its Glimm defect
    (`unit_system_defect`, kept on pi) is within max(source.atol,
    target.atol) and its smallest singular value exceeds INJECTIVITY_TOL.
    A NaN defect fails."""
    tol = max(pi.source.atol, pi.target.atol)
    return unit_system_defect(pi) <= tol and pi.min_singular_value() > INJECTIVITY_TOL


def _support_defect(w: AlgebraElement, pi: AlgebraMap) -> float:
    """How far the initial projection w* w is from pi(1)."""
    return (w.adjoint() @ w - pi(AlgebraElement.identity(pi.source))).frobenius()


def build_isometry(data: IsometryData, p: float) -> LpMap:
    """Assemble the canonical map phi^{1/p} x -> w phibar^{1/p} pi(x).

    The matrix is the composition of left multiplication by w phibar^{1/p},
    the homomorphism, and the inverse of left multiplication by phi^{1/p}.
    The module property T(h x) = T(h) pi(x) holds by construction.
    """
    p = _lp_exponent(p)
    data.validate()
    out = data.w @ data.phibar.power_element(1.0 / p)
    matrix = sandwich(out, data.pi.matrix, data.reference_state.power_element(-1.0 / p))
    return LpMap(data.source, data.target, p, matrix)


# -- extraction ----------------------------------------------------------------


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=_CACHE_SIZE)
def _polarization(algebra: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """A basis of projections P_r as rows vec(P_r), and the square, exactly
    dyadic matrix C with e_u = sum_r C[r, u] P_r, read-only.  The projections
    are each e_ii and, for i < j, P_1 = (D + e_ij + e_ji) / 2 and
    P_i = (D + i e_ij - i e_ji) / 2 with D = e_ii + e_jj; then
    e_ij = P_1 - i P_i + (i - 1) D / 2 and e_ji = P_1 + i P_i - (1 + i) D / 2."""
    eye = np.eye(algebra.total_dim, dtype=complex)
    P, C = [], []
    for off, n in zip(algebra.offsets(), algebra.blocks):
        e = eye[off : off + n * n].reshape(n, n, -1)  # e[i, j] = vec(e_ij)
        P += [e[i, i] for i in range(n)]
        C += [e[i, i] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                D = e[i, i] + e[j, j]
                P += [(D + e[i, j] + e[j, i]) / 2, (D + 1j * e[i, j] - 1j * e[j, i]) / 2]
                C += [e[i, j] + e[j, i], 1j * e[j, i] - 1j * e[i, j]]
                # the D parts of e_ij and e_ji, on the rows of e_ii and e_jj
                half = ((1j - 1) * e[i, j] - (1 + 1j) * e[j, i]) / 2
                C[off + i] = C[off + i] + half
                C[off + j] = C[off + j] + half
    return _read_only(np.array(P), np.array(C))


def _support_map(source: Algebra, target: Algebra, matrix_t: np.ndarray) -> AlgebraMap:
    """The map sending each projection P_r of `_polarization` to the right
    support of M vec(P_r), extended linearly: supports^T C.  matrix_t is the
    transpose of M, so row r of P matrix_t is M vec(P_r), and `right_supports`
    takes one stacked SVD and one stacked product per target block.  Rows
    that overflow raise NonFinite before the SVD."""
    P, C = _polarization(source)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = P @ matrix_t
    _require_finite([rows], "image of the polarization")
    return AlgebraMap(source, target, right_supports(target, rows).T @ C)


def extract_pi(T: LpMap, phi: State) -> AlgebraMap:
    """Recover the underlying homomorphism from right supports.

    The d projections P_r of `_polarization` are a basis of the source, and
    e_u = sum_r C[r, u] P_r with C square.  Each P_r is sent to the right
    support of T(phi^{1/p} P_r), p = T.p, and pi extends linearly
    (`_support_map` of T L, L the left multiplication by phi^{1/p}).  The
    module relation T(phi^{1/p} x) = T(phi^{1/p}) pi(x) is verified on the
    basis afterwards.  (T L)^T = L_{rho^T} T^T, whose row u is
    T(phi^{1/p} u), is applied blockwise, and so is L_{T(rho^{1/p})} in the
    module relation.
    """
    p = T.p
    if p == 2.0:
        raise ExponentUnsupported("extraction is undefined at p = 2")
    if not phi.faithful:
        raise NonFaithful("extraction needs a faithful reference state")
    src, tgt = T.source, T.target
    if phi.algebra != src:
        raise DataInvalid(_FOREIGN_STATE)
    rho_pow = phi.power_element(1.0 / p)
    TLt = apply_left(rho_pow.transpose(), T.matrix.T)
    pi = _support_map(src, tgt, TLt)

    # the module relation T L_{rho^{1/p}} = L_{T(rho^{1/p})} pi, one column per unit
    base_image = AlgebraElement.from_vec(tgt, T.matrix @ rho_pow.vec())
    residual = TLt.T - apply_left(base_image, pi.matrix)
    defect = float(np.max(np.linalg.norm(residual, axis=0)))
    if not defect <= WARN_TOL:
        raise NotAnIsometry(f"module relation fails on the basis (defect {defect:.3e})")
    return pi


def extract_polar_data(T: LpMap, phi: State):
    """Polar data of the image h of the reference vector phi^{1/p}, p = T.p:
    the partial isometry and the state carried by the modulus' p-th power.
    With h = U S V* blockwise, |h|^p = V S^p V*, read off the SVD of h."""
    p = T.p
    h = T(LpVector.from_element(phi.power_element(1.0 / p), p))
    if h.frobenius() < 1e-12:
        raise ZeroImage("the image of the reference vector vanished")
    pol = polar_decompose(h)
    return pol.w, State(T.target, _modulus_power(pol), normalize=True)


def _modulus_power(pol) -> list[np.ndarray]:
    """The blocks of |h|^p = V S^p V*, p = pol.p, from the SVDs h = U S V*."""
    return [(vh.conj().T * s**pol.p) @ vh for _, s, vh in pol.svds]


def verify_state_restriction(phibar: State, pi: AlgebraMap, phi: State) -> float:
    """Largest deviation of phibar(pi(u)) from phi(u) over the matrix units
    u, as one row identity: the trace row of phibar times pi.matrix against
    the trace row of phi.  A NaN deviation gives NaN."""
    gaps = trace_row(phibar.density) @ pi.matrix - trace_row(phi.density)
    return float(np.max(np.abs(gaps)))


# -- metric defects --------------------------------------------------------------


def _sample_rows(algebra: Algebra, count: int, rng) -> np.ndarray:
    """count seeded Gaussian vectors as rows.  One draw in C order is the
    same stream as drawing per sample and block, real part then imaginary
    part."""
    draws = rng.standard_normal((count, 2 * algebra.total_dim))
    parts = []
    for off, n in zip(algebra.offsets(), algebra.blocks):
        pair = draws[:, 2 * off : 2 * (off + n * n)].reshape(count, 2, n * n)
        parts.append(pair[:, 0] + 1j * pair[:, 1])
    return np.hstack(parts)


@lru_cache(maxsize=_CACHE_SIZE)
def _slice_positions(algebra: Algebra, n: int) -> np.ndarray:
    """Row i n + j: the positions of e_ij (x) u in the n-fold amplification."""
    pos = [_amplified_positions(algebra, n, i, j) for i in range(n) for j in range(n)]
    return _read_only(np.array(pos))[0]


class _ImageSupport:
    """The joint supports of the images T(u)_b of the d matrix units u in a
    target block b of size m: the left support, the column space of the
    m x (m d) concatenation L = [T(u_1)_b ... T(u_d)_b], and the right
    support, the row space of the (m d) x m stack R of the same images.

    Their ranks (k_l, k_r) follow the rank rule of `polar_decompose` on a
    values-only SVD of each side, and `tail` is s_{k_l+1}(L) + s_{k_r+1}(R),
    the largest singular values left out.  A block whose SVD fails or reads
    a non-finite value keeps rank m on both sides.  `compressed` holds the
    rows of the compressed block, vec(Q_l* T(u)_b Q_r) over u, with Q_l and
    Q_r the leading singular vectors; they are taken on its first read."""

    def __init__(self, block: np.ndarray, m: int):
        self.block, self.size = block, m  # block: the m^2 rows of T.matrix
        self.left = self.right = m
        self.tail = 0.0
        try:
            values = np.linalg.svd(self._sides(), compute_uv=False)
        except np.linalg.LinAlgError:
            return
        if not np.isfinite(values).all():
            return
        self.left, self.right = np.maximum(_rank_masks([values])[0].sum(axis=1), 1).tolist()
        self.tail = sum(float(v[k]) for v, k in zip(values, (self.left, self.right)) if k < m)

    def _sides(self) -> np.ndarray:
        """L and the transpose of R, stacked: R^T's column space is the right
        support conjugated."""
        m = self.size
        X = self.block.reshape(m, m, -1)  # X[r, s, u] = T(u)_b[r, s]
        return np.stack([X.reshape(m, -1), X.transpose(1, 0, 2).reshape(m, -1)])

    @property
    def compresses(self) -> bool:
        return (self.left, self.right) != (self.size, self.size)

    @cached_property
    def compressed(self) -> np.ndarray:
        m, kl, kr = self.size, self.left, self.right
        u = np.linalg.svd(self._sides(), full_matrices=False)[0]
        ql, qr = u[0][:, :kl], u[1][:, :kr].conj()
        # Q_l* T(u)_b as (k_l, m, d), then its columns against Q_r
        half = (ql.conj().T @ self.block.reshape(m, -1)).reshape(kl, m, -1)
        return (half.transpose(0, 2, 1) @ qr).transpose(0, 2, 1).reshape(kl * kr, -1)


def _image_supports(T: LpMap) -> tuple:
    """The `_ImageSupport` of each target block of T, found on the first call
    and kept on the map."""
    supports = T.__dict__.get("_image_supports")
    if supports is None:
        cuts = zip(T.target.offsets(), T.target.blocks)
        supports = tuple(_ImageSupport(T.matrix[o : o + m * m], m) for o, m in cuts)
        T.__dict__["_image_supports"] = supports
    return supports


def _compressed_blocks(T: LpMap, plan: _Plan, norms: np.ndarray) -> set:
    """The target blocks whose slices the defect over the rows of the plan,
    with norms ||h||_p, measures on the image supports.  Compressing block b
    changes a norm ||(id_n (x) T) h||_p by at most ||h||_l1 tail_b m_b^{1/p}
    (the plan's l1 norm of h's coefficients), so the candidates are taken in
    increasing order of tail_b m_b^{1/p} while that bound summed over them,
    divided by ||h||_p, stays within SUPPORT_ALLOWANCE on every row with a
    norm of at least 1e-14; a NaN norm admits none."""
    supports = enumerate(_image_supports(T))
    terms = sorted((s.tail * s.size ** (1.0 / T.p), b) for b, s in supports if s.compresses)
    if not terms:
        return set()
    keep = ~(norms < 1e-14)
    ratio = np.max(plan.l1[keep] / norms[keep], initial=0.0)
    chosen, bound = set(), 0.0
    for term, b in terms:
        bound += term
        if not ratio * bound <= SUPPORT_ALLOWANCE:
            break
        chosen.add(b)
    return chosen


def _norm_defect(T: LpMap, plan: _Plan, norms: np.ndarray, relative: bool) -> float:
    """Largest |  ||(id_n (x) T) h||_p - ||h||_p  | over the rows h of the
    plan, with norms ||h||_p, divided by ||h||_p when relative, skipping
    norms below 1e-14; a NaN gives NaN.  The image norms come from
    `_image_norms`."""
    image_norms = _image_norms(T, plan, norms)
    keep = ~(norms < 1e-14)
    d = np.abs(image_norms[keep] - norms[keep])
    if relative:
        d = d / norms[keep]
    return float(np.max(d, initial=0.0))


def _measured_matrix(T: LpMap, plan: _Plan, norms: np.ndarray) -> tuple:
    """The rows that the images of a defect over the rows of the plan, with
    norms ||h||_p, are read from, and each target block's (k_l, k_r) in them.

    The image of h is measured blockwise on the joint supports of T's images
    (`_ImageSupport`): block b of (id_n (x) T) h is the (n m) x (n m) matrix
    sum_ij e_ij (x) T(h_ij)_b, and its range and row space lie in those of
    the images, so in exact arithmetic the (n k_l) x (n k_r) matrix with
    slices Q_l* T(h_ij)_b Q_r drops only zero singular values.  A block
    outside `_compressed_blocks` keeps its m^2 rows (Q = I, (k_l, k_r) =
    (m, m)); when no block compresses, the rows are T.matrix itself."""
    supports, chosen = _image_supports(T), _compressed_blocks(T, plan, norms)
    shapes = [(s.left, s.right) if b in chosen else (s.size, s.size) for b, s in enumerate(supports)]
    if not chosen:
        return T.matrix, shapes
    parts = [s.compressed if b in chosen else s.block for b, s in enumerate(supports)]
    return np.vstack(parts), shapes


def _slice_images(matrix: np.ndarray, units: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """The images under the matrix of the slices of the structured rows with
    these `_Plan` units, then of these sliced samples, as (rows, slices,
    len(matrix)): a slice e_u reads column u of the matrix and a zero slice
    zeros, which for a finite matrix is its matvec up to the sign of a zero;
    the samples go through one stacked matvec, bitwise the map call (the
    GEMM form is not)."""
    count = len(units)
    images = np.zeros((count + len(samples), units.shape[1], len(matrix)), dtype=complex)
    hot = units >= 0
    images[:count][hot] = matrix[:, units[hot]].T
    images[count:] = np.matmul(matrix, samples[..., None])[..., 0]
    return images


def _block_stacks(images: np.ndarray, shapes: list, n: int) -> list[np.ndarray]:
    """Per target block of (k_l, k_r), the stack of the (n k_l) x (n k_r)
    blocks of the images of the rows, from their `_slice_images`."""
    stacks, start = [], 0
    for kl, kr in shapes:
        # slice (i, j) of row h is the (kl, kr) block (i, j) of the image
        part = images[:, :, start : start + kl * kr].reshape(-1, n, n, kl, kr)
        stacks.append(part.transpose(0, 1, 3, 2, 4).reshape(-1, n * kl, n * kr))
        start += kl * kr
    return stacks


def _image_stacks(T: LpMap, plan: _Plan, norms: np.ndarray) -> list[np.ndarray]:
    """Per target block, the stack of the blocks of (id_n (x) T) h over the
    rows h of the plan, with norms ||h||_p, measured on the rows of
    `_measured_matrix`.  When no block compresses, the stacks are the blocks
    of the full images, bitwise up to the sign of a zero."""
    matrix, shapes = _measured_matrix(T, plan, norms)
    return _block_stacks(_slice_images(matrix, plan.units, plan.samples), shapes, plan.n)


def _image_norms(T: LpMap, plan: _Plan, norms: np.ndarray) -> np.ndarray:
    """The p-norms ||(id_n (x) T) h||_p, p = T.p, of the rows h of the plan,
    with norms ||h||_p, measured on the rows of `_measured_matrix`: the row
    and column witnesses through `_gram_sum_norms` where `lp._reads_pairs`,
    every other row through the image route of `lp._stack_groups` on its
    stacks, as `_image_stacks` builds them."""
    matrix, shapes = _measured_matrix(T, plan, norms)
    if not (plan.witnesses.size and _reads_pairs(T.p)):
        stacks = _block_stacks(_slice_images(matrix, plan.units, plan.samples), shapes, plan.n)
        return np.array(_grouped_norms(_stack_groups(stacks, T.p, images=True), T.p))
    out = np.empty(len(plan.l1))
    out[plan.witnesses] = _gram_sum_norms(T, matrix, shapes, plan)
    # the witnesses close the structured rows: the others are the rows
    # before them, then the samples
    before = plan.units[: len(plan.units) - len(plan.witnesses)]
    stacks = _block_stacks(_slice_images(matrix, before, plan.samples), shapes, plan.n)
    out[plan.others] = _grouped_norms(_stack_groups(stacks, T.p, images=True), T.p)
    return out


def _gram_sum_norms(T: LpMap, matrix, shapes, plan: _Plan) -> list[float]:
    """The image norms of the row and column witnesses of the plan, in its
    order: per target block of (k_l, k_r), `lp._pair_route` of the images
    of the units they name (those columns of the block's rows of the
    matrix), whose fallbacks read the witnesses' stacks, built once."""
    p = T.p

    @lru_cache(maxsize=None)
    def stacks():
        witnesses = _slice_images(matrix, plan.units[plan.witnesses], plan.samples[:0])
        return _block_stacks(witnesses, shapes, plan.n)

    groups, start, used = [], 0, plan.used
    for b, (kl, kr) in enumerate(shapes):
        images = matrix[start : start + kl * kr, used].T.reshape(-1, kl, kr)
        values = _pair_route(images, plan.pairs, p, lambda rows, b=b: stacks()[b][rows])
        groups.append((values, (b,)))
        start += kl * kr
    return _grouped_norms(groups, p)


_EMPTY = _read_only(np.zeros(0, dtype=int))[0]


class _Plan(NamedTuple):
    """The rows h of a sampled defect of id_n (x) T, read-only: structured
    rows, each of whose slices h_ij (at the positions of e_ij (x) u) is one
    unit u with coefficient 1 or zero, then seeded samples.

    `units[r, i n + j]` is the unit of slice h_ij of structured row r, or -1
    for a zero slice; `samples` holds the samples' slices as (count, n^2, d).
    `l1` is each row's ||h||_l1, `others` the indices of the rows that are
    not row or column witnesses, and `groups` the rows' `_singular_values`.
    The row witnesses e_00 (x) u_i + e_01 (x) u_j and the column witnesses
    e_00 (x) u_i + e_10 (x) u_j close the structured rows: their indices
    `witnesses`, row witnesses first, and the units (i, j) of each pair,
    `pairs`, one row witness and one column witness each.  `grids` indexes
    the first grid witness of each block of size >= 2."""

    n: int
    units: np.ndarray
    samples: np.ndarray
    l1: np.ndarray
    others: np.ndarray
    groups: list | None = None
    witnesses: np.ndarray = _EMPTY
    pairs: np.ndarray = _EMPTY.reshape(0, 2)
    grids: np.ndarray = _EMPTY

    @property
    def used(self) -> np.ndarray:
        """The units 0 .. max(pairs) that the pairs name, as indices: the
        pairs run over the first min(d, 12) units, so each holds its own."""
        return np.arange(self.pairs.max(initial=-1) + 1)

    def norms(self, p: float, weights=None) -> np.ndarray:
        """Each row's ||h||_p, with the blocks weighted by weights."""
        return np.array(_grouped_norms(self.groups, p, weights))


@lru_cache(maxsize=_CACHE_SIZE)
def _plan(algebra: Algebra, n: int, sample_count: int, seed: int) -> _Plan:
    """The `_Plan` of a sampled defect of id_n (x) T on this source: for
    n = 1 the unit basis; else the grid witnesses Sigma_{a,c} e_ac (x)
    u_{q_a q_c}, q = (k, l), of every block, then the row and column
    witnesses of each pair i < j of the first min(d, 12) units, which reach
    across blocks for abelian parts; then the seeded samples.  The rows are
    written out densely only here, to take their singular values and l1
    norms."""
    big, cap = amplified_algebra(algebra, n), min(algebra.total_dim, 12)
    table, grids, pairs = [], [], []
    if n == 1:
        table = [[u] for u in range(algebra.total_dim)]
    else:
        for off, nb in zip(algebra.offsets(), algebra.blocks):
            grids += [len(table)] if nb > 1 else []
            for k in range(nb):
                for l in range(k + 1, nb):
                    row = [-1] * (n * n)
                    for a, qa in enumerate((k, l)):
                        for c, qc in enumerate((k, l)):
                            row[a * n + c] = off + qa * nb + qc
                    table.append(row)
        pairs = [(i, j) for i in range(cap) for j in range(i + 1, cap)]
        for i, j in pairs:
            on_row, on_column = [-1] * (n * n), [-1] * (n * n)
            on_row[0] = on_column[0] = i
            on_row[1] = on_column[n] = j
            table += [on_row, on_column]
    units = np.array(table, dtype=int).reshape(-1, n * n)
    positions = _slice_positions(algebra, n)
    rows = np.zeros((len(units) + sample_count, big.total_dim), dtype=complex)
    r, s = np.nonzero(units >= 0)
    rows[r, positions[s, units[r, s]]] = 1.0
    rows[len(units) :] = _sample_rows(big, sample_count, np.random.default_rng(seed))
    groups = _singular_values(big, rows)
    start = len(units) - 2 * len(pairs)
    witnesses = np.r_[start : len(units) : 2, start + 1 : len(units) : 2]
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    plan = _Plan(
        n=n,
        units=units,
        samples=rows[len(units) :][:, positions],
        l1=np.abs(rows).sum(axis=1),
        others=np.r_[:start, len(units) : len(rows)],
        groups=groups,
        witnesses=witnesses,
        pairs=pairs,
        grids=np.array(grids, dtype=int),
    )
    _read_only(*(a for a in plan if isinstance(a, np.ndarray)), *(v for v, _ in groups))
    return plan


def _plan_key(n: int, sample_count: int, seed: int) -> tuple:
    """(n, sample_count, seed), refused with ShapeMismatch before any plan
    is looked up unless n is an integer >= 1 and sample_count and seed are
    integers >= 0."""
    for name, value, least in (("n", n, 1), ("sample_count", sample_count, 0), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ShapeMismatch(f"{name} must be an integer >= {least}, got {value!r}")
    return n, sample_count, seed


def isometry_defect(
    T: LpMap,
    *,
    sample_count: int = 60,
    seed: int = 0,
    source_weights: Sequence[float] | None = None,
    relative: bool = True,
) -> float:
    """Largest deviation |  ||T h||_p - ||h||_p  |, p = T.p, over the unit
    basis and a seeded sample of vectors."""
    plan = _plan(T.source, *_plan_key(1, sample_count, seed))
    return _norm_defect(T, plan, plan.norms(T.p, source_weights), relative)


def _grid_witness_defect(T: LpMap, weights) -> float:
    """The norm defect of id_2 (x) T at the first grid witness
    Sigma_{a,c} e_ac (x) u_{q_a q_c}, q = (0, 1), of each block of size at
    least 2: the plan of those rows of the plan of `two_isometry_defect` at
    its defaults, with that plan's norms; a transpose on the block changes
    its L_p norm for p != 2, so it detects maps that are Jordan but not
    multiplicative."""
    plan = _plan(T.source, 2, 60, 0)
    ids = plan.grids
    grid = _Plan(2, plan.units[ids], plan.samples[:0], plan.l1[ids], np.arange(len(ids)))
    return _norm_defect(T, grid, plan.norms(T.p, weights)[ids], relative=False)


def two_isometry_defect(
    T: LpMap,
    *,
    n: int = 2,
    sample_count: int = 60,
    seed: int = 0,
    source_weights: Sequence[float] | None = None,
    relative: bool = False,
) -> float:
    """Largest norm defect of id_n (x) T over the structured matrix-unit
    witnesses (for n = 1 the unit basis, as in `isometry_defect`) and a
    seeded sample, at p = T.p."""
    plan = _plan(T.source, *_plan_key(n, sample_count, seed))
    return _norm_defect(T, plan, plan.norms(T.p, source_weights), relative)


# -- star adjoint duals -----------------------------------------------------------


def star_adjoint_dual(T: LpMap) -> LpMap:
    """The star adjoint of the trace dual, k -> T'(k*)*, as a map at the
    exponent conjugate to T.p.  In the fixed vectorization this is the
    Hermitian adjoint of the matrix."""
    if T.p <= 1.0:
        raise ExponentUnsupported("the dual at p = 1 lands in the algebra, not in an L_p space")
    return LpMap(T.target, T.source, conjugate_exponent(T.p), T.matrix.conj().T)


# -- classification ---------------------------------------------------------------


@dataclass
class ClassificationReport:
    """Result of the classification pipeline with its named defects."""

    verdict: str  # accept | reject
    defects: dict
    data: IsometryData | None = None
    failing_stage: str | None = None
    warnings: list = dataclass_field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


def classify(T: LpMap, phi: State, p: float) -> ClassificationReport:
    """Decide whether a map is a canonical 2-isometry and recover its data.

    Pipeline: sampled isometry and amplified-isometry defects; homomorphism
    extraction and certification; polar data; state restriction; modular
    invariance and the expectation on the image; the canonical form on the
    reference basis.
    The verdict is accept exactly when every defect clears its threshold.
    The matrix of T is read at the exponent p, whatever T.p is.

    The reported multiplicativity is pi's Glimm defect delta
    (`unit_system_defect`, kept on pi), and pi passes when delta is within
    max(source.atol, target.atol) and pi is injective
    (`_is_injective_star_homomorphism`), as in `IsometryData.validate`.  A
    pi that `extract_pi` refuses reports inf.
    """
    p = float(p)
    if p == 2.0:
        raise ExponentUnsupported("classification is undefined at p = 2")
    if not phi.faithful:
        raise NonFaithful("classification needs a faithful reference state")
    if phi.algebra != T.source:
        raise DataInvalid(_FOREIGN_STATE)
    T = T.at_exponent(p)
    defects: dict = {}
    warnings: list = []

    def reject(stage: str) -> ClassificationReport:
        return ClassificationReport(
            verdict="reject", defects=defects, data=None, failing_stage=stage, warnings=warnings
        )

    def within_metric_tol(name: str) -> bool:
        """Whether defects[name] is within METRIC_TOL; a failure below WARN_TOL warns."""
        if defects[name] <= METRIC_TOL:
            return True
        if defects[name] < WARN_TOL:
            warnings.append(f"{name} defect {defects[name]:.3e} in the warn band")
        return False

    # stage 1: metric defects; only a failed base isometry rejects here, so
    # the amplified defect is measured after it and an isometry-stage reject
    # never pays for it.  A reject at stages 2-6 has paid for it: the defect
    # is measured here and read last.  A bad amplified defect is diagnosed
    # by the multiplicativity certificate.  Both defects measure the images
    # on their supports, found once for T (`_norm_defect`)
    defects["isometry"] = isometry_defect(T)
    if not within_metric_tol("isometry"):
        return reject("isometry")
    defects["two_isometry"] = two_isometry_defect(T, n=2, relative=True)
    algebraic_tol = max(T.source.atol, T.target.atol) * 10

    # stage 2: homomorphism extraction and certification; the Glimm defect
    # kept on pi is read again by the image certificate of stage 5
    try:
        pi = extract_pi(T, phi)
    except NotAnIsometry:
        defects["multiplicativity"] = float("inf")
        return reject("multiplicativity")
    defects["multiplicativity"] = unit_system_defect(pi)
    if not _is_injective_star_homomorphism(pi):
        return reject("multiplicativity")

    # stage 3: polar data
    try:
        w, phibar = extract_polar_data(T, phi)
    except ZeroImage:
        return reject("polar")

    # stage 4: state restriction
    defects["state_restriction"] = verify_state_restriction(phibar, pi, phi)
    if not defects["state_restriction"] <= algebraic_tol:
        return reject("state_restriction")

    # stage 5: the image, pi its certified decomposition, and the expectation
    try:
        E = construct_expectation(Subalgebra.from_map_image(pi), phibar)
    except NotInvariant as exc:
        defects["invariance"] = exc.defect
        return reject("expectation")
    except (NonFaithful, DataInvalid):
        return reject("expectation")
    defects["invariance"] = E.invariance_defect

    # stage 6: the canonical form on the reference basis, T(rho^{1/p} u) =
    # w phibar^{1/p} pi(u).  Stages 2 and 4 have certified pi and the state
    # restriction, so of the checks of IsometryData.validate only
    # w* w = pi(1) is new; the restriction is held to validate's tolerance,
    # which is tighter than algebraic_tol for D > 100
    if not (_support_defect(w, pi) <= DATA_TOL and defects["state_restriction"] <= DATA_TOL):
        return reject("reconstruction")
    data = IsometryData(
        source=T.source,
        target=T.target,
        pi=pi,
        w=w,
        expectation=E,
        reference_state=phi,
    )
    # row u of both is the image of rho^{1/p} u, the first (T L_rho)^T as
    # `extract_pi` forms it, taking the gaps in place; that vector has rank
    # one, and its p-norm is the 2-norm of column i of rho^{1/p} for every
    # unit u = e_ij of a block
    rho_pow = phi.power_element(1.0 / p)
    gaps = apply_left(rho_pow.transpose(), T.matrix.T)
    gaps -= apply_left(w @ E.state.power_element(1.0 / p), pi.matrix).T
    columns = [np.repeat(np.linalg.norm(b, axis=0), len(b)) for b in rho_pow.data]
    scales = np.maximum(np.concatenate(columns), 1e-14)
    defects["reconstruction"] = float(np.max(lp_norms(T.target, p, gaps) / scales))
    if not within_metric_tol("reconstruction"):
        return reject("reconstruction")

    if not within_metric_tol("two_isometry"):
        return reject("two_isometry")

    return ClassificationReport(
        verdict="accept", defects=defects, data=data, failing_stage=None, warnings=warnings
    )
