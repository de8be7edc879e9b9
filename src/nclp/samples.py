"""Seeded generators for test instances: random elements, structured
embeddings with invariant states, subalgebra inclusions, and tracial-source
triples.

Everything is driven by an integer seed through numpy Generators, so any
instance can be reproduced exactly from its seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    Algebra,
    AlgebraElement,
    AlgebraMap,
    State,
    pullback_density,
    transpose_permutation,
)
from .errors import DataInvalid
from .expectation import Subalgebra, construct_expectation, takesaki_invariant
from .isometry import IsometryData
from .lp import LpVector
from .yeadon import YeadonTriple


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_element(algebra: Algebra, rng, hermitian: bool = False) -> AlgebraElement:
    blocks = []
    for n in algebra.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if hermitian:
            g = (g + g.conj().T) / 2
        blocks.append(g)
    return AlgebraElement(algebra, blocks)


def random_lp_vector(algebra: Algebra, p: float, rng) -> LpVector:
    return LpVector.from_element(random_element(algebra, rng), p)


def random_unitary_element(algebra: Algebra, rng) -> AlgebraElement:
    return AlgebraElement(algebra, [haar_unitary(n, rng) for n in algebra.blocks])


def _positive_factor(n: int, rng) -> np.ndarray:
    """v diag(e) v* with v a Haar unitary and e uniform on [0.35, 1.8), drawn
    in that order."""
    v = haar_unitary(n, rng)
    eigs = rng.uniform(0.35, 1.8, size=n)
    return (v * eigs) @ v.conj().T


def well_conditioned_state(algebra: Algebra, rng) -> State:
    """Faithful state with moderate condition number, for tight tolerances."""
    return State(algebra, [_positive_factor(n, rng) for n in algebra.blocks], normalize=True)


# -- structured embeddings with invariant corner states --------------------------

# plans: (source blocks, [per target block: ([(source index, multiplicity)...], pad)])
_EMBED_MENU: list[tuple[tuple[int, ...], list]] = [
    ((2,), [([(0, 1)], 0)]),
    ((2,), [([(0, 1)], 1)]),
    ((2,), [([(0, 2)], 0)]),
    ((2,), [([(0, 1)], 0), ([(0, 1)], 1)]),
    ((1, 1), [([(0, 1), (1, 1)], 0)]),
    ((1, 1), [([(0, 1), (1, 2)], 1)]),
    ((2, 1), [([(0, 1)], 0), ([(1, 1)], 1)]),
    ((3,), [([(0, 1)], 1)]),
    ((2, 1), [([(0, 1), (1, 1)], 1)]),
    ((1, 1, 2), [([(2, 1)], 0), ([(0, 1), (1, 1)], 0)]),
    ((2,), [([(0, 1)], 0), ([(0, 1)], 0)]),
    ((2, 2), [([(0, 1)], 0), ([(1, 1)], 2)]),
]


def _placed(plan, conjugators, piece) -> list[np.ndarray]:
    """Per target block c of a plan, u_c X u_c* with u_c = conjugators[c] and
    X block diagonal: the pieces piece(b, mult) of its assignments at running
    offsets, then its zero pad.  A piece is one (mult n_b) square or a stack
    of them, conjugated as one batched product; the pieces are asked for in
    plan order."""
    blocks = []
    for (assignments, _), u in zip(plan, conjugators):
        pieces = [piece(b, mult) for b, mult in assignments]
        m = u.shape[0]
        mats = np.zeros((*pieces[0].shape[:-2], m, m), dtype=complex)
        off = 0
        for part in pieces:
            k = part.shape[-1]
            mats[..., off : off + k, off : off + k] = part
            off += k
        blocks.append(u @ mats @ u.conj().T)
    return blocks


def _unit_stacks(source: Algebra) -> list[np.ndarray]:
    """Per source block b, the (d, n_b, n_b) stack whose u-th matrix is the
    matrix unit u of the source when u lies in b, else zero."""
    eye = np.eye(source.total_dim, dtype=complex)
    cuts = zip(source.offsets(), source.blocks)
    return [eye[:, off : off + n * n].reshape(-1, n, n) for off, n in cuts]


def _placed_map(source: Algebra, target: Algebra, stacks: list[np.ndarray]) -> AlgebraMap:
    """The map whose image of the u-th matrix unit has the u-th matrix of
    each target block's (d, m, m) stack as that block; the matrix is
    C-ordered, as a column stack of the images is, since its layout moves the
    last bits of the products that read it (`pullback_density`)."""
    columns = np.hstack([stack.reshape(source.total_dim, -1) for stack in stacks])
    return AlgebraMap(source, target, np.ascontiguousarray(columns.T))


def _target_blocks(source: Algebra, plan):
    """The target block sizes of a plan: per target block, the sum of its
    assigned source block sizes times their multiplicities, plus its pad."""
    sizes = []
    for assignments, pad in plan:
        m = sum(source.blocks[b] * mult for b, mult in assignments) + pad
        sizes.append(m)
    return tuple(sizes)


def random_isometry_data(
    seed: int,
    source_blocks: tuple[int, ...] | None = None,
    *,
    plan=None,
) -> IsometryData:
    """A seeded canonical-isometry instance.

    The embedding places each source block into target blocks with chosen
    multiplicities and optional unused corners, conjugated by Haar unitaries.
    The preserved state is assembled on the image's support so that the image
    is stable under its modular flow; the reference state is its restriction
    through the embedding.  w is pi(1) when seed % 3 == 0, else a Haar
    unitary times pi(1).
    """
    rng = rng_for(seed)
    if plan is None:
        menu_src, plan = _EMBED_MENU[seed % len(_EMBED_MENU)]
        if source_blocks is None:
            source_blocks = menu_src
    source = Algebra(tuple(source_blocks))
    target = Algebra(_target_blocks(source, plan))

    conjugators = [haar_unitary(m, rng) for m in target.blocks]
    # positive factors shared across every occurrence of a source block, so
    # that flow commutators land back in the image
    a_factors = [_positive_factor(n, rng) for n in source.blocks]
    units = _unit_stacks(source)
    pi = _placed_map(
        source, target, _placed(plan, conjugators, lambda b, mult: np.kron(np.eye(mult), units[b]))
    )
    density = _placed(
        plan, conjugators, lambda b, mult: np.kron(_positive_factor(mult, rng), a_factors[b])
    )
    phibar = State(target, density, normalize=True)

    image = Subalgebra.from_map_image(pi)
    expectation = construct_expectation(image, phibar)

    phi = State(source, pullback_density(phibar, pi), normalize=True)

    pi_one = pi(AlgebraElement.identity(source))
    if seed % 3 == 0:
        w = pi_one
    else:
        u0 = random_unitary_element(target, rng)
        w = u0 @ pi_one
    return IsometryData(
        source=source,
        target=target,
        pi=pi,
        w=w,
        expectation=expectation,
        reference_state=phi,
    )


# -- subalgebra inclusions ---------------------------------------------------------


def diagonal_subalgebra(parent: Algebra, conjugator: AlgebraElement | None = None) -> Subalgebra:
    basis = []
    for b, n in enumerate(parent.blocks):
        for k in range(n):
            blocks = parent.zero_blocks()
            blocks[b][k, k] = 1.0
            basis.append(AlgebraElement(parent, blocks))
    if conjugator is not None:
        basis = [conjugator @ a @ conjugator.adjoint() for a in basis]
    return Subalgebra(parent, basis, validate=False)


def _pattern_basis(m: int, pattern: str) -> list[np.ndarray]:
    """Unital *-subalgebra patterns inside one full block M_m."""
    mats = []
    if pattern == "diagonal":
        for k in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[k, k] = 1.0
            mats.append(e)
    elif pattern == "split":
        a = m // 2
        for block, (lo, hi) in enumerate(((0, a), (a, m))):
            for i in range(lo, hi):
                for j in range(lo, hi):
                    e = np.zeros((m, m), dtype=complex)
                    e[i, j] = 1.0
                    mats.append(e)
    elif pattern == "tensor":
        # x (x) identity over a divisor split m = a * k
        a = 2
        k = m // a
        if a * k != m:
            raise DataInvalid(f"tensor pattern needs an even dimension, got {m}")
        for i in range(a):
            for j in range(a):
                e = np.zeros((a, a), dtype=complex)
                e[i, j] = 1.0
                mats.append(np.kron(e, np.eye(k)))
    elif pattern == "scalars":
        mats.append(np.eye(m, dtype=complex))
    elif pattern == "full":
        for i in range(m):
            for j in range(m):
                e = np.zeros((m, m), dtype=complex)
                e[i, j] = 1.0
                mats.append(e)
    else:
        raise DataInvalid(f"unknown pattern {pattern!r}")
    return mats


_INCLUSION_MENU = [
    (2, "diagonal"),
    (3, "diagonal"),
    (4, "diagonal"),
    (3, "split"),
    (4, "split"),
    (4, "tensor"),
    (2, "scalars"),
    (3, "scalars"),
]


def patterned_inclusion(seed: int, pattern: str | None = None, m: int | None = None):
    """A unital subalgebra of one full block, conjugated by a Haar unitary.

    Returns (subalgebra, pattern, m, conjugator).
    """
    rng = rng_for(seed)
    if pattern is None or m is None:
        m, pattern = _INCLUSION_MENU[seed % len(_INCLUSION_MENU)]
    parent = Algebra((m,))
    u = AlgebraElement(parent, [haar_unitary(m, rng)])
    basis = [u @ AlgebraElement(parent, [mat]) @ u.adjoint() for mat in _pattern_basis(m, pattern)]
    return Subalgebra(parent, basis, validate=False), pattern, m, u


def random_invariant_inclusion(seed: int):
    """A unital inclusion together with a faithful state whose modular flow
    preserves it."""
    A, pattern, m, u = patterned_inclusion(seed)
    rng = rng_for(seed + 10_000)
    parent = A.parent
    if pattern == "diagonal":
        mat = np.diag(rng.uniform(0.35, 1.8, size=m)).astype(complex)
    elif pattern == "split":
        a = m // 2
        mat = np.zeros((m, m), dtype=complex)
        for lo, hi in ((0, a), (a, m)):
            mat[lo:hi, lo:hi] = _positive_factor(hi - lo, rng)
    elif pattern == "tensor":
        a, k = 2, m // 2
        va = haar_unitary(a, rng)
        vk = haar_unitary(k, rng)
        pa = (va * rng.uniform(0.35, 1.8, size=a)) @ va.conj().T
        pk = (vk * rng.uniform(0.35, 1.8, size=k)) @ vk.conj().T
        mat = np.kron(pa, pk)
    else:  # scalars or full: every faithful state works
        mat = _positive_factor(m, rng)
    rho = u.data[0] @ mat @ u.data[0].conj().T
    state = State(parent, [rho], normalize=True)
    check = takesaki_invariant(A, state)
    if not check.invariant:
        raise DataInvalid(f"constructed state failed invariance ({check.defect:.3e})")
    return A, state


_NONINVARIANT_ATTEMPTS = 32


def random_noninvariant_inclusion(seed: int):
    """A unital inclusion with a generic faithful state that moves it: its
    invariance defect exceeds 0.3.

    Attempt k draws menu entry seed + k; attempts run up to a fixed cap, so
    a seed keeps its inclusion as long as an earlier attempt succeeds.
    """
    for attempt in range(_NONINVARIANT_ATTEMPTS):
        idx = (seed + attempt) % len(_INCLUSION_MENU)
        m, pattern = _INCLUSION_MENU[idx]
        if pattern in ("scalars", "full"):
            continue  # always invariant
        A, _, m, _ = patterned_inclusion(seed + attempt, pattern, m)
        rng = rng_for(seed + 20_000 + attempt)
        state = well_conditioned_state(A.parent, rng)
        check = takesaki_invariant(A, state)
        if check.defect > 0.3:
            return A, state
    raise DataInvalid("could not find a noninvariant inclusion for this seed")


# -- tracial-source triples ----------------------------------------------------------


def transpose_triple(n: int = 2, seed: int | None = None) -> tuple[YeadonTriple, tuple]:
    """The transpose on one full block: Jordan but not multiplicative.

    Uses the plain trace (unit weights) and B = 1 so that amplified norm
    defects take their textbook values.
    """
    source = Algebra((n,))
    target = Algebra((n,))
    J = AlgebraMap(source, target, transpose_permutation(source))
    one = AlgebraElement.identity(target)
    w = one
    if seed is not None:
        w = random_unitary_element(target, rng_for(seed))
    B = LpVector.from_element(one, 1.0)
    return YeadonTriple(J=J, w=w, B=B), (1.0,)


_YEADON_MENU = [
    # per source block: (size, branch, multiplicity, pad)
    [(2, "mult", 1, 0)],
    [(2, "transpose", 1, 0)],
    [(2, "mult", 2, 0)],
    [(2, "transpose", 1, 1)],
    [(1, "mult", 2, 0), (2, "transpose", 1, 0)],
    [(2, "mult", 1, 1), (1, "mult", 1, 0)],
    [(3, "transpose", 1, 0)],
    [(2, "transpose", 2, 0)],
]


def random_yeadon_triple(seed: int, p: float, spec=None):
    """A seeded triple with one target block per source block.

    Each branch embeds the source block with a multiplicity (transposed or
    not), a commuting positive part acting on the multiplicity factor, and an
    optional unused corner.  Returns (triple, trace_weights) where the
    weights close the trace-matching condition at the given exponent.
    """
    rng = rng_for(seed)
    if spec is None:
        spec = _YEADON_MENU[seed % len(_YEADON_MENU)]
    source = Algebra(tuple(s[0] for s in spec))
    target = Algebra(tuple(s[0] * s[2] + s[3] for s in spec))
    conjugators = [haar_unitary(m, rng) for m in target.blocks]
    d_factors = [rng.uniform(0.5, 1.5, size=mult) for _, _, mult, _ in spec]

    plan = [([(b, mult)], pad) for b, (_, _, mult, pad) in enumerate(spec)]
    units = _unit_stacks(source)

    def unit_piece(b, mult):
        stack = units[b].transpose(0, 2, 1) if spec[b][1] == "transpose" else units[b]
        return np.kron(np.eye(mult), stack)

    J = _placed_map(source, target, _placed(plan, conjugators, unit_piece))
    b_blocks = _placed(
        plan, conjugators, lambda b, mult: np.kron(np.diag(d_factors[b]), np.eye(spec[b][0]))
    )
    B = LpVector.from_element(AlgebraElement(target, b_blocks), float(p))
    j_one = J(AlgebraElement.identity(source))
    u0 = random_unitary_element(target, rng)
    w = u0 @ j_one if seed % 2 else j_one
    weights = tuple(float(np.sum(d**p)) for d in d_factors)
    return YeadonTriple(J=J, w=w, B=B), weights
