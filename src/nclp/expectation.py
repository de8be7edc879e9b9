"""State-preserving conditional expectations onto *-subalgebras.

Invariance of a subalgebra under the modular flow of a state is detected
through the flow generator: a linear subspace is stable under the group
rho^{it} . rho^{-it} exactly when commutators with log(rho) stay inside it.
When invariance holds, the expectation is the orthogonal projection for the
state's GNS inner product <x, y> = Tr(rho y* x); it is read off the matrix
units of the subalgebra as a weighted partial trace over the multiplicity
spaces, and certified by bounds derived from the units' Glimm defect.

To realize L_p of a subalgebra, the subalgebra is decomposed into a direct
sum of full matrix factors, giving an explicit embedding of a small block
algebra onto the subalgebra.  The decomposition is one deterministic pass
that sees only the span: the spectrum of sum_i q_i a q_i*, over an
orthonormal basis q_i and a positive element a of the subalgebra, gives the
minimal central projections; the spectrum of a inside each gives minimal
projections, and polar parts connect them into matrix units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    INJECTIVITY_TOL,
    _Immutable,
    _require_finite,
    Algebra,
    AlgebraElement,
    AlgebraMap,
    Projection,
    State,
    apply_left,
    apply_right,
    cluster_projection,
    pullback_density,
    sandwich,
    spectral_clusters,
    trace_row,
    unit_system_defect,
)
from .errors import (
    DataInvalid,
    NonFaithful,
    NotInvariant,
    ShapeMismatch,
)
from .lp import (
    LpMap,
    LpVector,
    _block_lp_norm,
    _lp_exponent,
    conjugate_exponent,
    polar_decompose,
)

_DECOMP_SEED = 20240711  # fixed draw for the generic elements used below
_POSITIVITY_SAMPLES = 5  # seeded g g* on which the expectation must stay positive
_EPS = float(np.finfo(float).eps)
_UNIT_TOL = 1e-7  # certified units: off a unit system, off the span; their sum off a projection


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """An explicit isomorphism of a *-subalgebra with a direct sum of full
    matrix blocks, as an embedding of the small algebra into the parent."""

    algebra: Algebra  # the factor sizes m_1..m_J
    embed: AlgebraMap  # injective *-homomorphism, image = the subalgebra
    multiplicities: tuple[int, ...]


class Subalgebra(_Immutable):
    """A unital *-subalgebra of a parent algebra, given by a spanning basis.

    The basis need not be orthonormal; it must be linearly independent and
    span a set closed under products and adjoints, which the factor
    decomposition of the span certifies (`validate`).  The unit is that of
    the subalgebra itself, read off the decomposition, a projection which
    may be smaller than the parent unit.  The basis is kept once, as
    `columns`, one read-only (D, dim) array of the vectorized elements (the
    map's matrix for the image of a map); a NaN or infinite entry raises
    NonFinite.
    """

    __slots__ = ("parent", "columns", "__dict__")

    def __init__(self, parent: Algebra, basis: Sequence[AlgebraElement], validate: bool = True):
        basis = tuple(basis)
        if not basis:
            raise DataInvalid("subalgebra needs a nonempty basis")
        if any(a.algebra != parent for a in basis):
            raise ShapeMismatch("basis element lives on a different algebra")
        columns = np.column_stack([a.vec() for a in basis])
        _require_finite([columns], "subalgebra basis")
        columns.setflags(write=False)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "columns", columns)
        if validate:
            self.validate()

    @classmethod
    def from_map_image(cls, pi: AlgebraMap) -> "Subalgebra":
        """Span of the image of an injective *-homomorphism pi: its matrix
        columns.  Its decomposition is pi, the multiplicity of a source block
        the trace of the projection pi(e_00), certified here: a pi that is no
        injective *-homomorphism raises DataInvalid; one trace-row identity."""
        image = object.__new__(cls)
        object.__setattr__(image, "parent", pi.target)
        object.__setattr__(image, "columns", pi.matrix)
        traces = trace_row(AlgebraElement.identity(pi.target)) @ pi.matrix[:, pi.source.offsets()]
        mu = tuple(int(round(t)) for t in traces.real.tolist())
        image.__dict__["decomposition"] = _certified(image, BlockDecomposition(pi.source, pi, mu))
        # Tr(f_ji f_kl) = delta_ik mu_b delta_jl for the units of block b, so
        # the columns over sqrt(mu_b) are orthonormal up to the Glimm defect
        scale = np.repeat(np.array(mu, dtype=float) ** -0.5, [n * n for n in pi.source.blocks])
        onb = pi.matrix * scale
        onb.setflags(write=False)
        image.__dict__["_onb"] = onb
        return image

    @cached_property
    def basis(self) -> tuple[AlgebraElement, ...]:
        """The basis elements, one per column."""
        return tuple(AlgebraElement.from_vec(self.parent, c) for c in self.columns.T)

    @cached_property
    def generator_columns(self) -> np.ndarray:
        """Star units that generate the subalgebra as a unital algebra, read
        from the decomposition, as read-only columns: per factor of size n,
        embed(e_i0) and embed(e_0i) for 1 <= i < n, in that order, then
        embed(1_k), so 2 sum(n_k - 1) + K columns in all.  As the units are
        certified, f_ij = f_i0 f_0j, and f_00 = f_01 f_10, or 1_k for n = 1."""
        dec = self.decomposition
        cols, U = [], dec.embed.matrix
        for off, n in zip(dec.algebra.offsets(), dec.algebra.blocks):
            for i in range(1, n):
                cols += [U[:, off + i * n], U[:, off + i]]
            cols.append(U[:, off : off + n * n : n + 1].sum(axis=1))
        G = np.column_stack(cols)
        G.setflags(write=False)
        return G

    @cached_property
    def generators(self) -> tuple[AlgebraElement, ...]:
        """The generator columns as elements."""
        return tuple(AlgebraElement.from_vec(self.parent, c) for c in self.generator_columns.T)

    @cached_property
    def dim(self) -> int:
        return self.columns.shape[1]

    @cached_property
    def _onb(self) -> np.ndarray:
        """Orthonormal (Frobenius) column basis of the span; for the image of
        a map, its columns scaled by the multiplicities, orthonormal up to
        the map's Glimm defect (`from_map_image`)."""
        u, s, _ = np.linalg.svd(self.columns, full_matrices=False)
        keep = s > 1e-12 * s[0]
        if int(keep.sum()) != self.dim:
            raise DataInvalid("subalgebra basis is linearly dependent")
        return u[:, keep]

    def span_residual(self, x: AlgebraElement) -> float:
        """Frobenius distance from x to the span of the basis."""
        v = x.vec()
        return float(np.linalg.norm(v - self._onb @ (self._onb.conj().T @ v)))

    @cached_property
    def unit(self) -> Projection:
        """embed(1), the sum of the diagonal units of the certified decomposition
        (pi(1) for the image of pi), a projection within _UNIT_TOL."""
        dec = self.decomposition
        one = dec.embed(AlgebraElement.identity(dec.algebra))
        return Projection(self.parent, one.data, _UNIT_TOL)

    def validate(self) -> None:
        """Raise DataInvalid unless the basis is independent and its span is a
        unital *-subalgebra, which the certified factor decomposition proves:
        its dim A independent units lie in the span, so they span it, and the
        span of a system of matrix units is closed under products and
        adjoints, with unit the sum of its diagonal units.  Conversely, every
        finite-dimensional *-algebra is the span of such a system (Davidson,
        C*-Algebras by Example, III.1), which the generic pass finds."""
        _ = self.decomposition

    @cached_property
    def decomposition(self) -> BlockDecomposition:
        """The generic pass, certified; its units must also lie in the span,
        which the image of a map has by construction."""
        dec = _certified(self, _block_decomposition(self))
        U, Q = dec.embed.matrix, self._onb
        if not np.all(np.linalg.norm(U - Q @ (Q.conj().T @ U), axis=0) <= _UNIT_TOL):
            raise DataInvalid("factor decomposition: a matrix unit left the span")
        return dec

    def __repr__(self):
        return f"Subalgebra(parent={self.parent.blocks}, dim={self.dim})"


# -- factor decomposition -------------------------------------------------------


def _gaussian(parent: Algebra, rng) -> list[np.ndarray]:
    """Blocks of a seeded complex Gaussian parent element."""
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in parent.blocks]


def _phi(Q: np.ndarray, a: AlgebraElement) -> list[np.ndarray]:
    """Blocks of sum_i q_i a q_i*, q_i the columns of Q as parent elements."""
    d, out = Q.shape[1], []
    for off, n, blk in zip(a.algebra.offsets(), a.algebra.blocks, a.data):
        qs = Q[off : off + n * n].T.reshape(d, n, n)
        out.append(np.tensordot(qs @ blk, qs.conj(), axes=([0, 2], [0, 2])))
    return out


def _block_decomposition(A: Subalgebra) -> BlockDecomposition:
    """Split a *-subalgebra into full matrix factors with explicit units.

    Q Q^H, Q the orthonormal basis of the span, is the trace-preserving
    expectation onto A, so a = Q Q^H (G G* + 1) is at least the unit e_A,
    and b = Q Q^H g is a generic element of A.  On a factor M_n (x) 1_mu of
    A, Phi(a) = sum_i q_i a q_i* is tr(a_k) / mu >= 1 / mu times the factor
    unit for every orthonormal basis q_i of the span, so the clusters of the
    nonzero spectrum of Phi(a) are the minimal central projections, in
    ascending order of value.  Inside one, the eigenvalue clusters of a are
    its n minimal projections e_1..e_n, and the polar parts v_j of e_j b e_1
    connect them: the matrix units are v_j v_l*.  Only the span enters, not
    its basis.  `Subalgebra.decomposition` certifies the result.
    """
    parent, Q = A.parent, A._onb
    rng = np.random.default_rng(_DECOMP_SEED)
    G, g = _gaussian(parent, rng), _gaussian(parent, rng)

    def project(blocks):
        vec = AlgebraElement(parent, blocks).vec()
        return AlgebraElement.from_vec(parent, Q @ (Q.conj().T @ vec))

    a = project([x @ x.conj().T + np.eye(len(x)) for x in G])
    b = project(g)

    def gap(top):
        return 1e-8 * (1.0 + top)

    # Phi(a) is at least 1 / mu >= 1 / D on the unit of A, roundoff off it
    central = [c for c in spectral_clusters(_phi(Q, a), gap) if c[0][0] > 0.5 / parent.total_dim]
    cols, dims, mults = [], [], []
    for cl in central:
        bases = [
            np.array([v for _, k, v in cl if k == bidx]).reshape(-1, n).T
            for bidx, n in enumerate(parent.blocks)
        ]
        corner = [V.conj().T @ blk @ V for V, blk in zip(bases, a.data)]
        groups = spectral_clusters(corner, gap, bases)
        mu = len(groups[0])
        if any(len(e) != mu for e in groups):
            raise DataInvalid("factor decomposition: a corner is not a full matrix factor")
        minimal = [cluster_projection(parent, e) for e in groups]
        v = [polar_decompose(LpVector.from_element(e @ b @ minimal[0], 2.0)).w for e in minimal]
        cols += [(vj @ vl.adjoint()).vec() for vj in v for vl in v]
        dims.append(len(minimal))
        mults.append(mu)

    if not dims:
        raise DataInvalid("factor decomposition: factor dimensions do not add up to the span")
    small = Algebra(tuple(dims))
    return BlockDecomposition(small, AlgebraMap(small, parent, np.column_stack(cols)), tuple(mults))


def _certified(A: Subalgebra, dec: BlockDecomposition) -> BlockDecomposition:
    """The decomposition, once certified as an isomorphism onto A, else
    DataInvalid: the factor dimensions add up to dim A, the unit images are
    a system of matrix units (`unit_system_defect`, kept on embed, within
    _UNIT_TOL) and embed is injective; with its units in the span, it is
    onto A (`Subalgebra.validate`)."""
    if dec.algebra.total_dim != A.dim:
        raise DataInvalid("factor decomposition: factor dimensions do not add up to the span")
    if not unit_system_defect(dec.embed) <= _UNIT_TOL:
        raise DataInvalid("factor decomposition: the units are not a system of matrix units")
    if not dec.embed.min_singular_value() > INJECTIVITY_TOL:
        raise DataInvalid("factor decomposition: the embedding is not injective")
    return dec


# -- invariance and the expectation --------------------------------------------


def _acts_as_identity(e: AlgebraElement, B: np.ndarray, tol: float) -> bool:
    """e x = x = x e on every column x of B, within tol in Frobenius norm; NaN fails."""
    sides = (apply_left, apply_right)
    return all(np.all(np.linalg.norm(apply(e, B) - B, axis=0) <= tol) for apply in sides)


@dataclass(frozen=True)
class TakesakiResult:
    invariant: bool
    defect: float


def takesaki_invariant(A: Subalgebra, state: State) -> TakesakiResult:
    """Check stability of the subalgebra under the modular flow of the state.

    The defect is the largest Frobenius distance of a generator commutator
    [log rho, a] from the span of the subalgebra: the largest column norm of
    (I - Q Q*)(L_log - R_log) B, B the basis columns and Q an orthonormal
    basis of their span.  For a state supported on a proper corner, the
    subalgebra must sit inside that corner, P B = B = B P for the support P
    on the basis columns, and log is taken on the support.  A NaN defect is
    kept, so it is not invariant.
    """
    if state.algebra != A.parent:
        raise ShapeMismatch("state lives on a different algebra")
    tol = A.parent.atol
    B = A.columns
    # the support, without a projection check
    if not (state.faithful or _acts_as_identity(state.power_element(0.0), B, 100 * tol)):
        raise NonFaithful("state is singular and the subalgebra leaves its support corner")
    L = state.log_pseudo()
    Q = A._onb
    comm = apply_left(L, B) - apply_right(L, B)
    defect = float(np.max(np.linalg.norm(comm - Q @ (Q.conj().T @ comm), axis=0)))
    return TakesakiResult(invariant=bool(defect < tol), defect=defect)


@dataclass(frozen=True, eq=False)
class ConditionalExpectation:
    """A state-preserving conditional expectation onto a subalgebra.

    The map acts on the parent algebra and projects onto the span of the
    subalgebra orthogonally for the GNS inner product of the state.
    """

    map: AlgebraMap
    state: State
    subalgebra: Subalgebra
    # the modular invariance defect measured by construct_expectation;
    # None for an expectation that was loaded rather than constructed
    invariance_defect: float | None = None

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.map(x)


def _certify_expectation(M: np.ndarray, A: Subalgebra, state: State, defect: float = 0.0) -> None:
    """Certify that the matrix M is a state-preserving conditional
    expectation onto the subalgebra, raising NotInvariant otherwise.

    The checks are matrix identities on M: idempotence, M B = B on the
    basis columns B, the state row identity omega M = omega with
    phi(x) = omega . vec(x), and the one-sided bimodule identities
    M L_a = L_a M and M R_a = R_a M for each generator a.  A conditional
    expectation is a bimodule map (Tomiyama), and the one-sided identities
    give E(a u b) = a E(u b) = a E(u) b.  They are multiplicative in a, as
    L_{ab} = L_a L_b and R_{ab} = R_b R_a, so holding on the generators of
    the certified decomposition (DataInvalid if it fails) they hold on A.
    Per generator, each side is one blockwise product over M and one over a
    contiguous M^T, as M L_a = (L_{a^T} M^T)^T and M R_a = (R_{a^T} M^T)^T,
    and each column norm of the difference meets the generator's tolerance.  Positivity is checked on
    seeded samples.  Every comparison is written so that a NaN rejects.
    """
    parent = A.parent
    check_tol = parent.certificate_tol
    G = A.generator_columns
    if not np.max(np.abs(M @ M - M)) <= check_tol:
        raise NotInvariant(defect, "expectation is not idempotent")
    _check_fixes(M, A, defect)
    _check_state(M, state, defect)
    gen_tol = check_tol * np.maximum(1.0, np.linalg.norm(G, axis=0))
    Mt = np.ascontiguousarray(M.T)
    for apply in (apply_left, apply_right):
        for a, tol in zip(A.generators, gen_tol):
            if not np.all(np.linalg.norm(apply(a.transpose(), Mt).T - apply(a, M), axis=0) <= tol):
                raise NotInvariant(defect, "expectation is not a module map")
    samples, scales = _positivity_samples(parent)
    pos, low = M @ samples, np.inf
    for off, n in zip(parent.offsets(), parent.blocks):
        blocks = pos[off : off + n * n].T.reshape(-1, n, n)
        herm = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
        low = np.minimum(low, np.linalg.eigvalsh(herm).min(axis=1))
    if not np.all(low >= -check_tol * scales):
        raise NotInvariant(defect, "expectation is not positive on samples")


def _check_fixes(M: np.ndarray, A: Subalgebra, defect: float) -> None:
    """M B = B on the basis columns B, each within the tolerance times
    max(1, |b|)."""
    B = A.columns
    col_tol = A.parent.certificate_tol * np.maximum(1.0, np.linalg.norm(B, axis=0))
    if not np.all(np.linalg.norm(M @ B - B, axis=0) <= col_tol):
        raise NotInvariant(defect, "expectation does not fix the subalgebra")


def _check_state(M: np.ndarray, state: State, defect: float) -> None:
    """The state row identity omega M = omega."""
    omega = trace_row(state.density)
    if not np.max(np.abs(omega @ M - omega)) <= state.algebra.certificate_tol:
        raise NotInvariant(defect, "expectation does not preserve the state")


def _positivity_samples(parent: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """The positivity samples of the expectation certificate:
    vec(g g*) for the seeded Gaussian g of one default_rng(_DECOMP_SEED)
    stream, in draw order, as columns, and each sample's scale
    max(1, largest Frobenius norm of a block of g g*)."""
    rng = np.random.default_rng(_DECOMP_SEED)
    cols, scales = [], []
    for _ in range(_POSITIVITY_SAMPLES):
        g_blocks = [g @ g.conj().T for g in _gaussian(parent, rng)]
        cols.append(AlgebraElement(parent, g_blocks).vec())
        scales.append(max(1.0, max(np.linalg.norm(b) for b in g_blocks)))
    return np.column_stack(cols), np.array(scales)


def _unit_product_bound(F: AlgebraMap) -> float:
    """The constant C with which Glimm's identities bound products of
    units: in exact arithmetic, with delta = unit_system_defect(F), every
    product f_ij f_kl of two unit images is within C delta of
    delta_jk f_il in one source block and of 0 across blocks, in Frobenius
    norm.

    With K the largest Frobenius norm of a unit image f_ij (a column norm of
    the matrix) and |x y| <= |x| |y|, let a_ij = f_i0 f_0j - f_ij and
    c_jk = f_0j f_k0 - delta_jk f_00, each at most delta.  Within a source
    block

        f_ij f_kl - delta_jk f_il = delta_jk (a_il + a_i0 f_0l)
                                    + f_i0 c_jk f_0l - f_i0 f_0j a_kl - a_ij f_kl,

    at most C_in delta with C_in = 1 + 2K + 2K^2.  Across source blocks
    b != c, with P = F(1_b), Q = F(1_c), |P| <= n_b K and |P Q| <= delta, the
    errors E_1 = f_ij P - f_ij and E_2 = Q f_kl - f_kl are sums of n_b and
    n_c defects within one block, and

        f_ij f_kl = f_ij (P Q) f_kl - f_ij P E_2 - E_1 f_kl

    is at most (K^2 + n_b K C_in (n_c K + 1)) delta: at most C_x delta with
    C_x = K^2 + N_1 K C_in (N_2 K + 1), N_1 >= N_2 the two largest block
    sizes.  C is the larger of C_in and C_x (C_x only with two blocks or
    more).  A non-finite K gives a non-finite C, which certifies nothing."""
    sizes = sorted(F.source.blocks, reverse=True)
    with np.errstate(over="ignore"):
        K = float(np.max(np.linalg.norm(F.matrix, axis=0)))
    # Python float products overflow to inf, where ** would raise
    c_in = 1 + 2 * K + 2 * K * K
    return c_in if len(sizes) == 1 else max(c_in, K * K + sizes[0] * K * c_in * (sizes[1] * K + 1))


def _closed_form(A: Subalgebra, state: State) -> tuple[np.ndarray, float, float]:
    """(M, epsilon, ratio): the matrix M = fl(Pi W) of the expectation in
    the units f_ij of the certified decomposition, Pi = its embedding's
    matrix, epsilon = |W Pi - I|_F and the largest ratio of a bound below
    to its tolerance.  Row (b, i, j) of W is trace_row(f_j0 rho f_0i) /
    tau_b, tau_b = Tr(rho f_00), the functional x -> Tr(rho f_0i x f_j0) /
    tau_b; per source and target block, the products f_j0 rho f_0i of all
    i, j are one batched product.  At a ratio of at most 1, M passes the
    idempotence, basis, module and positivity checks of
    `_certify_expectation`; NaN certifies nothing.

    Quantities, all computed:
    - p = (1 + eta) s_max(Pi), from the singular values kept on the
      embedding, which bounds |Pi|_2 and every unit's norm; P = |Pi|_F and
      w = |W|_F, which bound the 2-norms of W and of the entrywise moduli
      abs(Pi) and abs(W); a = p w, b = P w;
    - eta = 4 (D + 4) eps, four times the first-order rounding bound of a
      product or sum over at most D terms (Higham, Accuracy and Stability of
      Numerical Algorithms, 3.5 and 4.2); so
      M = Pi W + R with |R|_2 <= eta b, and |W Pi - I|_2 <= epsilon + eta b;
    - delta, the Glimm defect kept on the embedding, within
      theta = 4 (m + 4) eps (1 + L)^2 of its exact value (m the largest
      target block, L = p for one factor and n p for several, the norm of a
      factor unit in the cross identities), so the exact defect is at most
      delta' = delta + theta; C from `_unit_product_bound`, so each product
      f_u f_v of two units is within C delta' of f_{uv}; n the largest
      factor; a generator is a unit or a factor unit 1_b = sum_i f_ii, of
      norm at most alpha = n p, and its product with a unit is within
      g = n (C delta' + eta p^2) of the unit the small algebra gives;
    - r = |rho|_F for the density and tau the least tau_b.

    The bounds, each of what the certificate computes:
    - idempotence: M^2 - M = Pi (W Pi - I) W plus rounding, every entry at
      most a epsilon + 5 eta (1 + b)^2;
    - basis, when the basis columns are Pi: M Pi - Pi = Pi (W Pi - I) plus
      rounding, every column at most p (epsilon + 4 eta b);
    - module: with S_a the matrix of x -> a x on the small algebra,
      M L_a - L_a M = Pi G_a - D_a W + R L_a - L_a R, where
      D_a = L_a Pi - Pi S_a has d columns of norm at most g and
      G_a = W L_a - S_a W has d rows trace_row(f_l0 rho (f_0k a - f_0k a')
      + rounding) / tau_b, a' the unit S_a gives, of norm at most
      gamma = (p r g + eta p^2 r (alpha + 1)) / tau; the same holds for R_a
      with the residual on the other side.  So every column is at most
      sqrt(d) (p gamma + g w) + 5 eta alpha (1 + b);
    - positivity: for x >= 0 and v_i = f_i0, G = [Tr(rho v_i* x v_j)] / tau_b
      is a Gram matrix, so sum_ij G_ij v_i v_j* >= 0; the coefficients of E
      differ from G by the star residuals f_0i - v_i* and rounding, and
      f_ij from v_i v_j* by Glimm residuals, each within delta', so the
      least eigenvalue of the Hermitian part
      of E(x) is at least -|x|_F times
      d r p^2 ((2 + p) delta' + eta p) / tau + eta (4 (1 + b) + a sqrt(N)),
      N the matrix size (the rounding of the samples g g*, of M x and of
      eigvalsh), and a sample's scale is at least |x|_F over the square
      root of the number of blocks.

    The tolerance is the certificate's, and half of it for the module bound:
    a bound of the 2-norm for every unit a, it keeps the two-sided identity
    E(a x b) = a E(x) b within (|a| + |b|) times it.  The state row identity
    needs the invariance, not the units, and is checked directly."""
    dec = A.decomposition
    U, parent, small = dec.embed.matrix, A.parent, dec.algebra
    tau = (trace_row(state.density) @ U[:, small.offsets()]).real
    W = np.empty((small.total_dim, parent.total_dim), dtype=complex)
    for off, n, t in zip(small.offsets(), small.blocks, tau.tolist()):
        rows = W[off : off + n * n]
        for toff, m, r in zip(parent.offsets(), parent.blocks, state.density.data):
            S = U[toff : toff + m * m, off : off + n * n].T.reshape(n, n, m, m)
            Y = (S[:, 0] @ r)[:, None] @ S[0][None]  # Y[j, i] = f_j0 rho f_0i
            # trace_row reads each product transposed
            rows[:, toff : toff + m * m] = Y.transpose(1, 0, 3, 2).reshape(n * n, m * m)
        rows /= t
    M = U @ W
    X = W @ U
    X.ravel()[:: small.total_dim + 1] -= 1.0
    epsilon = float(np.linalg.norm(X))
    n, eta = max(small.blocks), 4 * (parent.total_dim + 4) * _EPS
    p, w = (1 + eta) * dec.embed.max_singular_value(), float(np.linalg.norm(W))
    a, b = p * w, float(np.linalg.norm(U)) * w
    L = p if len(small.blocks) == 1 else n * p
    theta = 4 * (max(parent.blocks) + 4) * _EPS * (1 + L) ** 2
    delta = unit_system_defect(dec.embed) + theta
    g = n * (_unit_product_bound(dec.embed) * delta + eta * p * p)
    alpha, r, tau = n * p, state.density.frobenius(), float(tau.min())
    gamma = (p * r * g + eta * p * p * r * (alpha + 1)) / tau
    positive = small.total_dim * r * p * p * ((2 + p) * delta + eta * p) / tau
    bounds = [
        a * epsilon + 5 * eta * (1 + b) ** 2,
        2 * (math.sqrt(small.total_dim) * (p * gamma + g * w) + 5 * eta * alpha * (1 + b)),
        math.sqrt(len(parent.blocks))
        * (positive + eta * (4 * (1 + b) + a * math.sqrt(parent.matrix_dim))),
    ]
    if A.columns is U:
        bounds.append(p * (epsilon + 4 * eta * b))
    return M, epsilon, float(np.max(bounds)) / parent.certificate_tol  # NaN stays NaN


def construct_expectation(A: Subalgebra, state: State) -> ConditionalExpectation:
    """Build the state-preserving expectation onto an invariant subalgebra.

    Modular invariance of the span is required and checked first; then the
    expectation exists (Takesaki 1972) and on each factor
    M_n (x) 1_mu of the subalgebra it is the weighted partial trace over the
    multiplicity space (Umegaki 1954),

        E(x) = sum_{b,i,j} Tr(rho f_0i x f_j0) / Tr(rho f_00) f_ij,

    over the units f_ij of the certified decomposition (`_closed_form`).  It
    needs no basis of the span and no solve.  When the bounds of
    `_closed_form` hold, the idempotence, basis, module and positivity
    checks follow from them, and only the state row identity and, for a
    subalgebra whose basis is not the embedding's own columns, M B = B are
    checked directly; otherwise the whole `_certify_expectation` runs.  For
    a state carried by a proper corner the result factors through
    compression to that corner.
    """
    inv = takesaki_invariant(A, state)
    if not inv.invariant:
        raise NotInvariant(inv.defect)
    parent = A.parent
    M, _, ratio = _closed_form(A, state)
    if ratio <= 1.0:
        if A.columns is not A.decomposition.embed.matrix:
            _check_fixes(M, A, inv.defect)
        _check_state(M, state, inv.defect)
    else:
        _certify_expectation(M, A, state, inv.defect)
    E = AlgebraMap(parent, parent, M)
    return ConditionalExpectation(map=E, state=state, subalgebra=A, invariance_defect=inv.defect)


# -- L_p inclusions and expectations ---------------------------------------------


def restrict_state(A: Subalgebra, state: State) -> State:
    """The state restricted to the subalgebra, as a density on its factors.

    The subalgebra keeps the last (state, restriction) pair, matched by
    identity, so callers that sample many x on one (A, state) restrict once;
    a state whose restriction fails is not kept and raises on every call."""
    kept = A.__dict__.get("_restriction")
    if kept is not None and kept[0] is state:
        return kept[1]
    dec = A.decomposition
    blocks = pullback_density(state, dec.embed)
    total = float(sum(np.trace(b).real for b in blocks))
    if abs(total - 1.0) > 1e-6:
        raise DataInvalid(
            f"state has mass {1 - total:.3e} outside the subalgebra unit; "
            "restriction is not a state"
        )
    restricted = State(dec.algebra, blocks, normalize=True)
    A.__dict__["_restriction"] = (state, restricted)
    return restricted


def lp_inclusion(A: Subalgebra, E: ConditionalExpectation, p: float) -> LpMap:
    """The inclusion of L_p of the subalgebra into L_p of the parent that
    sends phi_A^{1/p} x to phibar^{1/p} x, where phibar is the expectation's
    state and phi_A its restriction to the subalgebra."""
    p = _lp_exponent(p)
    dec = A.decomposition
    phibar = E.state
    rho_A = restrict_state(A, phibar)
    if not rho_A.faithful:
        raise NonFaithful("restricted state is not faithful on the subalgebra")
    out, inverse = phibar.power_element(1.0 / p), rho_A.power_element(-1.0 / p)
    return LpMap(dec.algebra, A.parent, p, sandwich(out, dec.embed.matrix, inverse))


def lp_expectation(E: ConditionalExpectation, p: float) -> LpMap:
    """The L_p extension of the expectation, defined through trace duality
    against the inclusion at the conjugate exponent and then the star
    adjoint; in vectorized coordinates this is the Hermitian adjoint."""
    A = E.subalgebra
    p = float(p)
    pp = conjugate_exponent(p)
    if np.isinf(pp):  # p = 1 pairs with the algebra embedding itself
        incl_matrix = A.decomposition.embed.matrix
    else:
        incl_matrix = lp_inclusion(A, E, pp).matrix
    M = incl_matrix.conj().T
    Ep = LpMap(A.parent, A.decomposition.algebra, p, M)
    iota_p = lp_inclusion(A, E, p)
    resid = np.max(np.abs(Ep.matrix @ iota_p.matrix - np.eye(iota_p.source.total_dim)))
    if resid > 1e-7:
        raise DataInvalid(f"L_p expectation does not retract the inclusion ({resid:.3e})")
    return Ep


def complement_projection(data, p: float) -> LpMap:
    """The idempotent contraction h -> w iota_p(E_p(w* h)) onto the range of
    the isometry built from the bundled data."""
    E = data.expectation
    A = E.subalgebra
    Ep = lp_expectation(E, p)
    iota = lp_inclusion(A, E, p)
    M = sandwich(data.w, iota.matrix @ Ep.matrix, data.w.adjoint())
    return LpMap(A.parent, A.parent, p, M)


def _power_product_norm(state: State, x: AlgebraElement, p: float) -> float:
    """||rho^{1/p} x||_p from the blockwise products of the kept power of
    the state's density with x."""
    p = _lp_exponent(p)
    if x.algebra != state.algebra:
        raise ShapeMismatch("elements live on different algebras")
    power = state.power_element(1.0 / p)
    return _block_lp_norm([a @ b for a, b in zip(power.data, x.data)], p)


def interpolation_gap(A: Subalgebra, phibar: State, x_small: AlgebraElement, p: float) -> float:
    """Difference between the subalgebra L_p norm and the parent L_p norm of
    the corresponding vectors; nonnegative for p >= 2, and zero for every x
    exactly when a state-preserving expectation exists.  The subalgebra norm
    is that of phi_A^{1/p} x in L_p of the factor realization."""
    small_norm = _power_product_norm(restrict_state(A, phibar), x_small, p)
    return small_norm - _power_product_norm(phibar, A.decomposition.embed(x_small), p)
