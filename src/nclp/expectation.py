"""State-preserving conditional expectations onto *-subalgebras.

Invariance of a subalgebra under the modular flow of a state is detected
through the flow generator: a linear subspace is stable under the group
rho^{it} . rho^{-it} exactly when commutators with log(rho) stay inside it.
When invariance holds, the expectation is the orthogonal projection for the
state's GNS inner product <x, y> = Tr(rho y* x).

To realize L_p of a subalgebra, the subalgebra is decomposed into a direct
sum of full matrix factors (diagonalize the center, split minimal central
projections, build matrix units), giving an explicit embedding of a small
block algebra onto the subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    Algebra,
    AlgebraElement,
    AlgebraMap,
    Projection,
    State,
    cluster_projection,
    homomorphism_kind,
    left_mult_matrix,
    pullback_density,
    right_mult_matrix,
    spectral_clusters,
)
from .errors import (
    DataInvalid,
    ExponentMismatch,
    NonFaithful,
    NotInvariant,
    ShapeMismatch,
)
from .lp import LpMap, conjugate_exponent, lp_norm, state_power

_DECOMP_SEED = 20240711  # fixed draw for the generic elements used below


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """An explicit isomorphism of a *-subalgebra with a direct sum of full
    matrix blocks, as an embedding of the small algebra into the parent."""

    algebra: Algebra  # the factor sizes m_1..m_J
    embed: AlgebraMap  # injective *-homomorphism, image = the subalgebra
    multiplicities: tuple[int, ...]

    @cached_property
    def _embed_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.embed.matrix)

    def coordinates(self, x: AlgebraElement) -> AlgebraElement:
        """Coefficients of a subalgebra element in the factor realization."""
        if x.algebra != self.embed.target:
            raise ShapeMismatch("element does not live on the parent algebra")
        return AlgebraElement.from_vec(self.algebra, self._embed_pinv @ x.vec())


class Subalgebra:
    """A unital *-subalgebra of a parent algebra, given by a spanning basis.

    The basis need not be orthonormal; it must be linearly independent and
    span a set closed under products and adjoints.  The unit here is the unit
    of the subalgebra itself, a projection of the parent which may be smaller
    than the parent unit.
    """

    __slots__ = ("parent", "basis", "__dict__")

    def __init__(self, parent: Algebra, basis: Sequence[AlgebraElement], validate: bool = True):
        basis = tuple(basis)
        if not basis:
            raise DataInvalid("subalgebra needs a nonempty basis")
        for a in basis:
            if a.algebra != parent:
                raise ShapeMismatch("basis element lives on a different algebra")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "basis", basis)
        if validate:
            self.validate()

    @classmethod
    def from_map_image(cls, pi: AlgebraMap, validate: bool = False) -> "Subalgebra":
        """Span of the image of an injective homomorphism: its matrix columns."""
        basis = [AlgebraElement.from_vec(pi.target, col) for col in pi.matrix.T]
        return cls(pi.target, basis, validate=validate)

    @cached_property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _onb(self) -> np.ndarray:
        """Orthonormal (Frobenius) column basis of the span."""
        B = np.column_stack([a.vec() for a in self.basis])
        u, s, _ = np.linalg.svd(B, full_matrices=False)
        keep = s > 1e-12 * s[0]
        if int(keep.sum()) != len(self.basis):
            raise DataInvalid("subalgebra basis is linearly dependent")
        return u[:, keep]

    def span_residual(self, x: AlgebraElement) -> float:
        """Frobenius distance from x to the span of the basis."""
        v = x.vec()
        return float(np.linalg.norm(v - self._onb @ (self._onb.conj().T @ v)))

    @cached_property
    def unit(self) -> Projection:
        """The unit of the subalgebra: the support projection of the span."""
        S = AlgebraElement.zero(self.parent)
        for a in self.basis:
            S = S + a @ a.adjoint() + a.adjoint() @ a
        blocks = []
        top = max(float(np.linalg.norm(b, 2)) for b in S.data)
        for b in S.data:
            w, v = np.linalg.eigh((b + b.conj().T) / 2)
            keep = w > 1e-10 * max(top, 1e-300)
            blocks.append(v[:, keep] @ v[:, keep].conj().T)
        e = Projection(self.parent, blocks)
        tol = 1000 * self.parent.atol
        if self.span_residual(e) > tol:
            raise DataInvalid("support projection of the span is not in the span")
        return e

    def validate(self) -> None:
        tol = 1000 * self.parent.atol
        _ = self._onb  # independence
        scale = max(1.0, max(a.frobenius() for a in self.basis))
        for a in self.basis:
            if self.span_residual(a.adjoint()) > tol * scale:
                raise DataInvalid("basis span is not closed under adjoints")
        for a in self.basis:
            for b in self.basis:
                if self.span_residual(a @ b) > tol * scale * scale:
                    raise DataInvalid("basis span is not closed under products")
        e = self.unit
        for a in self.basis:
            if (e @ a - a).frobenius() > tol * scale or (a @ e - a).frobenius() > tol * scale:
                raise DataInvalid("unit of the span does not act as an identity on it")

    @cached_property
    def decomposition(self) -> BlockDecomposition:
        return _block_decomposition(self)

    def __repr__(self):
        return f"Subalgebra(parent={self.parent.blocks}, dim={self.dim})"


# -- factor decomposition -------------------------------------------------------


def _center_coefficients(onb: np.ndarray, A: Subalgebra) -> list[AlgebraElement]:
    """Basis of the center of the subalgebra, as parent elements."""
    parent = A.parent
    d = onb.shape[1]
    basis_elts = [AlgebraElement.from_vec(parent, onb[:, i]) for i in range(d)]
    rows = []
    for b in basis_elts:
        comm = left_mult_matrix(b) - right_mult_matrix(b)
        rows.append(comm @ onb)
    K = np.vstack(rows)  # (d * D) x d, kernel = central coefficient vectors
    _, s, vh = np.linalg.svd(K)
    tol = 1e-9 * max(1.0, s[0] if s.size else 0.0)
    kernel = [vh[i].conj() for i in range(len(s)) if s[i] <= tol]
    kernel += [vh[i].conj() for i in range(len(s), vh.shape[0])]
    return [AlgebraElement.from_vec(parent, onb @ c) for c in kernel]


def _block_decomposition(A: Subalgebra) -> BlockDecomposition:
    """Split a *-subalgebra into full matrix factors with explicit units.

    Strategy: diagonalize a generic Hermitian element of the center to get
    the minimal central projections, then inside each factor corner use a
    generic Hermitian element to produce minimal projections and connect
    them with partial isometries from polar decompositions.
    """
    rng = np.random.default_rng(_DECOMP_SEED)
    center = _center_coefficients(A._onb, A)
    last_err = None
    for _ in range(12):
        try:
            return _attempt_decomposition(A, center, rng)
        except _RetryDecomposition as err:
            last_err = err
            continue
    raise DataInvalid(f"factor decomposition did not stabilize: {last_err}")


class _RetryDecomposition(Exception):
    pass


def _attempt_decomposition(A: Subalgebra, center, rng) -> BlockDecomposition:
    parent = A.parent
    span_tol = 1e-7

    # generic Hermitian central element
    coeff = rng.standard_normal(len(center)) + 1j * rng.standard_normal(len(center))
    z = AlgebraElement.zero(parent)
    for c, elt in zip(coeff, center):
        z = z + c * elt
    z = (z + z.adjoint()) * 0.5
    if z.frobenius() < 1e-12:
        z = A.unit
    ztol = 1e-8 * (1.0 + z.sup_norm())
    clusters = [c for c in spectral_clusters(z.data, lambda _: ztol) if abs(c[0][0]) > ztol]
    if len(clusters) != len(center):
        raise _RetryDecomposition(f"{len(clusters)} central values for a {len(center)}-dim center")

    factor_units: list[list[AlgebraElement]] = []
    factor_dims: list[int] = []
    mults: list[int] = []
    order = []
    for cl in clusters:
        P = cluster_projection(parent, cl)
        if A.span_residual(P) > span_tol:
            raise _RetryDecomposition("central spectral projection left the span")
        rank = len(cl)
        # corner basis and its dimension
        corner_vecs = []
        for i in range(A.dim):
            a = AlgebraElement.from_vec(parent, A._onb[:, i])
            corner_vecs.append((P @ a @ P).vec())
        C = np.column_stack(corner_vecs)
        u, s, _ = np.linalg.svd(C, full_matrices=False)
        dj = int(np.sum(s > 1e-9 * max(1.0, s[0])))
        mj = int(round(np.sqrt(dj)))
        if mj * mj != dj or rank % mj != 0:
            raise _RetryDecomposition("corner is not a full matrix factor")
        mu = rank // mj
        corner_onb = [AlgebraElement.from_vec(parent, u[:, i]) for i in range(dj)]

        # minimal projections from a generic Hermitian corner element,
        # diagonalized on the range of the central projection only
        h = AlgebraElement.zero(parent)
        hc = rng.standard_normal(dj) + 1j * rng.standard_normal(dj)
        for c, elt in zip(hc, corner_onb):
            h = h + c * elt
        h = (h + h.adjoint()) * 0.5
        Q_blocks = []
        for blk in P.data:
            w, v = np.linalg.eigh((blk + blk.conj().T) / 2)
            Q_blocks.append(v[:, w > 0.5])
        compressed = [Q.conj().T @ hb @ Q for Q, hb in zip(Q_blocks, h.data)]
        groups = spectral_clusters(compressed, lambda top: 1e-8 * (1.0 + top), Q_blocks)
        if len(groups) != mj or any(len(g) != mu for g in groups):
            raise _RetryDecomposition("corner spectrum did not split into minimal projections")
        minimal = [cluster_projection(parent, g) for g in groups]
        for e in minimal:
            if A.span_residual(e) > span_tol:
                raise _RetryDecomposition("minimal projection left the span")

        # connecting partial isometries e_k <- e_1 through a generic element
        gc = rng.standard_normal(dj) + 1j * rng.standard_normal(dj)
        g = AlgebraElement.zero(parent)
        for c, elt in zip(gc, corner_onb):
            g = g + c * elt
        v_list = []
        for k in range(mj):
            x = minimal[k] @ g @ minimal[0]
            if x.frobenius() < 1e-10:
                raise _RetryDecomposition("connecting element vanished")
            vk_blocks = []
            for blk in x.data:
                uu, ss, vvh = np.linalg.svd(blk)
                keep = ss > 1e-10 * max(1.0, float(ss[0]) if ss.size else 0.0)
                vk_blocks.append(uu[:, keep] @ vvh[keep, :])
            vk = AlgebraElement(parent, vk_blocks)
            if (vk.adjoint() @ vk - minimal[0]).frobenius() > 1e-7 or (
                vk @ vk.adjoint() - minimal[k]
            ).frobenius() > 1e-7:
                raise _RetryDecomposition("connecting isometry has wrong supports")
            v_list.append(vk)
        units = []
        for k in range(mj):
            for l in range(mj):
                units.append(v_list[k] @ v_list[l].adjoint())
        factor_units.append(units)
        factor_dims.append(mj)
        mults.append(mu)
        order.append(cl[0][0])

    # deterministic factor order: ascending central eigenvalue
    perm = np.argsort(order, kind="stable")
    factor_units = [factor_units[i] for i in perm]
    factor_dims = [factor_dims[i] for i in perm]
    mults = [mults[i] for i in perm]

    small = Algebra(tuple(factor_dims))
    cols = []
    for units in factor_units:
        for u in units:
            cols.append(u.vec())
    embed = AlgebraMap(small, parent, np.column_stack(cols))
    report = homomorphism_kind(embed, tol=1e-7)
    if report.kind != "star_homomorphism" or not report.injective:
        raise _RetryDecomposition(f"embedding failed certification: {report.kind}")
    for units in factor_units:
        for u in units:
            if A.span_residual(u) > span_tol:
                raise _RetryDecomposition("matrix unit left the span")
    if sum(m * m for m in factor_dims) != A.dim:
        raise _RetryDecomposition("factor dimensions do not add up to the span dimension")
    return BlockDecomposition(small, embed, tuple(mults))


# -- invariance and the expectation --------------------------------------------


@dataclass(frozen=True)
class TakesakiResult:
    invariant: bool
    defect: float


def takesaki_invariant(A: Subalgebra, state: State) -> TakesakiResult:
    """Check stability of the subalgebra under the modular flow of the state.

    The defect is the largest Frobenius distance of a generator commutator
    [log rho, a] from the span of the subalgebra.  For a state supported on
    a proper corner, the subalgebra must sit inside that corner and log is
    taken on the support.
    """
    if state.algebra != A.parent:
        raise ShapeMismatch("state lives on a different algebra")
    tol = A.parent.atol
    if not state.faithful:
        P = state.support()
        for a in A.basis:
            if (P @ a - a).frobenius() > 100 * tol or (a @ P - a).frobenius() > 100 * tol:
                raise NonFaithful(
                    "state is singular and the subalgebra leaves its support corner"
                )
    L = state.log_pseudo()
    defect = 0.0
    for a in A.basis:
        comm = L @ a - a @ L
        defect = max(defect, A.span_residual(comm))
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

    The checks are matrix identities on M: idempotence, M B = B on the basis
    columns B, the state row identity omega M = omega with
    phi(x) = omega . vec(x), and the one-sided bimodule identities
    M L_a = L_a M and M R_a = R_a M for each basis element a.  A
    conditional expectation is a bimodule map (Tomiyama), and the one-sided
    identities give E(a u b) = a E(u b) = a E(u) b.  Positivity is checked on
    seeded samples.  Every comparison is written so that a NaN rejects.
    """
    parent = A.parent
    check_tol = 1e-7 * max(1, parent.total_dim)
    if not np.max(np.abs(M @ M - M)) <= check_tol:
        raise NotInvariant(defect, "expectation is not idempotent")
    B = np.column_stack([a.vec() for a in A.basis])
    col_tol = check_tol * np.maximum(1.0, np.linalg.norm(B, axis=0))
    if not np.all(np.linalg.norm(M @ B - B, axis=0) <= col_tol):
        raise NotInvariant(defect, "expectation does not fix the subalgebra")
    omega = np.concatenate([r.T.reshape(-1) for r in state._data])
    if not np.max(np.abs(omega @ M - omega)) <= check_tol:
        raise NotInvariant(defect, "expectation does not preserve the state")
    # one basis element at a time, so only two D x D multiplication
    # matrices are alive at once
    for a, tol in zip(A.basis, col_tol):
        for mult in (left_mult_matrix(a), right_mult_matrix(a)):
            if not np.all(np.linalg.norm(M @ mult - mult @ M, axis=0) <= tol):
                raise NotInvariant(defect, "expectation is not a module map")
    rng = np.random.default_rng(_DECOMP_SEED)
    for _ in range(5):
        g_blocks = []
        for n in parent.blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g_blocks.append(g @ g.conj().T)
        pos = AlgebraElement.from_vec(parent, M @ AlgebraElement(parent, g_blocks).vec())
        low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in pos.data)
        if not low >= -check_tol * max(1.0, max(np.linalg.norm(b) for b in g_blocks)):
            raise NotInvariant(defect, "expectation is not positive on samples")


def construct_expectation(A: Subalgebra, state: State) -> ConditionalExpectation:
    """Build the state-preserving expectation onto an invariant subalgebra.

    The expectation is the GNS-orthogonal projection onto the span; modular
    invariance of the span is required and checked first.  For a state
    carried by a proper corner the result automatically factors through
    compression to that corner.
    """
    inv = takesaki_invariant(A, state)
    if not inv.invariant:
        raise NotInvariant(inv.defect)
    parent = A.parent
    Q = A._onb
    W = right_mult_matrix(state.density)  # Tr(rho y* x) = vec(y)^H W vec(x)
    gram = Q.conj().T @ W @ Q
    gram = (gram + gram.conj().T) / 2
    rhs = Q.conj().T @ W
    coeff = np.linalg.solve(gram, rhs)
    M = Q @ coeff
    # structural post-checks; failures mean the instance is numerically
    # outside the invariant regime
    _certify_expectation(M, A, state, inv.defect)
    E = AlgebraMap(parent, parent, M)
    return ConditionalExpectation(map=E, state=state, subalgebra=A, invariance_defect=inv.defect)


# -- L_p inclusions and expectations ---------------------------------------------


def restrict_state(A: Subalgebra, state: State) -> State:
    """The state restricted to the subalgebra, as a density on its factors."""
    dec = A.decomposition
    blocks = pullback_density(state, dec.embed)
    total = float(sum(np.trace(b).real for b in blocks))
    if abs(total - 1.0) > 1e-6:
        raise DataInvalid(
            f"state has mass {1 - total:.3e} outside the subalgebra unit; "
            "restriction is not a state"
        )
    return State(dec.algebra, blocks, normalize=True)


def lp_inclusion(
    A: Subalgebra,
    E: ConditionalExpectation,
    p: float,
    phi_A: State | None = None,
) -> LpMap:
    """The inclusion of L_p of the subalgebra into L_p of the parent that
    sends phi_A^{1/p} x to phibar^{1/p} x, where phibar extends phi_A through
    the expectation."""
    p = float(p)
    if not (1.0 <= p < np.inf):
        raise ExponentMismatch(f"p must lie in [1, inf), got {p}")
    dec = A.decomposition
    phibar = E.state
    rho_A = restrict_state(A, phibar)
    if phi_A is not None:
        if (phi_A.density - rho_A.density).frobenius() > 1e-7:
            raise DataInvalid("phi_A is not the restriction of the expectation's state")
        rho_A = phi_A
    if not rho_A.faithful:
        raise NonFaithful("restricted state is not faithful on the subalgebra")
    left_big = left_mult_matrix(phibar.power_element(1.0 / p))
    left_small_inv = left_mult_matrix(rho_A.power_element(-1.0 / p))
    return LpMap(dec.algebra, A.parent, p, left_big @ dec.embed.matrix @ left_small_inv)


def lp_expectation(E: ConditionalExpectation, phibar: State, p: float) -> LpMap:
    """The L_p extension of the expectation, defined through trace duality
    against the inclusion at the conjugate exponent and then the star
    adjoint; in vectorized coordinates this is the Hermitian adjoint."""
    A = E.subalgebra
    if (phibar.density - E.state.density).frobenius() > 1e-7:
        raise DataInvalid("phibar does not match the expectation's state")
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
    Ep = lp_expectation(E, E.state, p)
    iota = lp_inclusion(A, E, p)
    Lw = left_mult_matrix(data.w)
    Lws = left_mult_matrix(data.w.adjoint())
    M = Lw @ iota.matrix @ Ep.matrix @ Lws
    return LpMap(A.parent, A.parent, p, M)


def subalgebra_lp_norm(A: Subalgebra, phibar: State, x_small: AlgebraElement, p: float) -> float:
    """Norm of phi_A^{1/p} x inside L_p of the subalgebra's factor realization."""
    rho_A = restrict_state(A, phibar)
    return lp_norm(state_power(rho_A, 1.0 / p) @ x_small)


def interpolation_gap(A: Subalgebra, phibar: State, x_small: AlgebraElement, p: float) -> float:
    """Difference between the subalgebra L_p norm and the parent L_p norm of
    the corresponding vectors; nonnegative for p >= 2, and zero for every x
    exactly when a state-preserving expectation exists."""
    dec = A.decomposition
    small_norm = subalgebra_lp_norm(A, phibar, x_small, p)
    big = state_power(phibar, 1.0 / p) @ dec.embed(x_small)
    return small_norm - lp_norm(big)
