"""Dense reference constructions, kept as oracles for the sliced forms the
package uses instead.

The multiplication matrices build the full D x D matrices of the blockwise
`apply_left` and `apply_right` of `nclp.algebra` on the row-major
vectorization; `tensor_embed` builds a (x) h by Kronecker products, and
`structured_witnesses` lists the witnesses that `two_isometry_defect`
reads, built from their positions in the amplification
(`witness_positions`), where `nclp.isometry._Plan` keeps each as its
matrix units; `plan_rows` writes a plan's rows out densely through those
positions; `validate_by_pairs` checks the closure of a subalgebra with one
element product per pair of basis elements, and `unit_by_elements` takes
its unit as the support of S = sum_a a a* + a* a, where
`Subalgebra.validate` and `Subalgebra.unit` read the certified factor
decomposition; `edge_bases` lists two spans that are not closed and one
whose faint element falls below that support's rank rule;
`lp_norms_per_block` and `clarkson_by_elements` take the L_p norms with one
SVD call per block and the Clarkson witness from element products, where
`nclp.lp` makes one SVD call per distinct block size and multiplies blocks;
`frobenius_by_norm` takes the Frobenius norm through np.linalg.norm of each
block, whose arithmetic `nclp.algebra` repeats without its wrapper.
`pair_table_kind` classifies a map by the all-pairs table of its unit
images, one row of pairs at a time, where `homomorphism_kind` reads Glimm's
identities of the map and of its Jordan split; `validate_by_pair_table`
checks isometry data with that table, where `IsometryData.validate` reads
Glimm's identities.  `glimm_defect_per_block` computes the Glimm defect one source
block at a time, where `nclp.algebra._glimm_defect` takes the blocks of one
size together.  `matrix_to_json_by_entries` and `matrix_from_json_by_entries`
convert a matrix to and from rows of [re, im] pairs one entry at a time,
where `nclp.serialize` converts the whole array at once.
`certify_expectation_by_generators` certifies an expectation matrix with
four blockwise products per generator and fresh positivity draws, where
`nclp.expectation` stacks the generators and keeps the draws per algebra;
`bad_idempotents` perturbs an expectation matrix so that each check of the
certificate fails in turn, the right module identity alone included, and
`support_corner_by_elements` is the support check of `takesaki_invariant`
one basis element at a time.
`expectation_by_gram_solve` and `construct_by_gram_solve` build the
expectation as the GNS-orthogonal projection onto the span, from a thin SVD
and a Gram solve, and certify it in full, where `nclp.expectation` reads the
weighted partial trace off the units and certifies it by derived bounds.
`polar_parts_eagerly` builds all four parts of a polar decomposition at
once, where `nclp.lp.PolarData` builds each on its first read.
`norm_defect_on_full_images` measures the norm defect of id_n (x) T on the
full (n m) x (n m) image blocks, where `nclp.isometry._norm_defect` measures
them on the joint supports of T's images through the SVD; `image_supports`
finds those supports from the images of the matrix units, one map call per
unit, `support_bound` and `rounding_room` bound what measuring on them, and
for p >= 2 reading the image norms off Gram eigenvalues
(`gram_norm_bounds`), and at p in {2, 4} off Gram traces
(`trace_bounds`), may change.
`pi_by_four_polarizations` recovers pi from the right supports of the
images of 2n^2 - n polarization projections per block, e_ii and four per
pair i < j, where `nclp.isometry.extract_pi` reads a basis of n^2.
`conditioned_isometry_data` moves the preserved state of isometry data to
a power of its density, which conditions the reference state, and
`conditioning_ladder` runs it over plans, seeds and powers.
`reconstruction_by_rebuild` is stage 6 of `classify` as the rebuilt map
R = L_{w phibar^{1/p}} pi L_{rho^{-1/p}} against T on the d x d rows
rho^{1/p} e_u, one matvec per row, with the source norms from `lp_norms`,
where `classify` compares T(rho^{1/p} u) with w phibar^{1/p} pi(u) and reads
the norms of the rank-one rows off the columns of rho^{1/p}.
`isometry_data_by_units` and `yeadon_triple_by_units` are the seeded
generators of `nclp.samples` with pi and J taken one matrix unit at a time
through `map_from_callable` and each block placed and conjugated
alone, where the generators place every unit of a source block as one
stack and conjugate it in one batched product; `grid_witness` builds one
grid witness as a vector, where `nclp.isometry` reads the grid witnesses
as rows of the cached n = 2 plan.
`map_from_callable`, `decomposition_coordinates`, `compose_maps` and
`compose_lp_maps` are test-only constructions: the map whose columns are
the images of the matrix units under a function, the coefficients of a
subalgebra element in the factor realization of a decomposition through
the pseudo-inverse of its embedding, and the composition of two algebra
maps or two L_p maps."""

import math

import numpy as np

from dataclasses import replace

from nclp.algebra import (
    Algebra,
    AlgebraElement,
    AlgebraMap,
    HomomorphismReport,
    State,
    _stacked_frobenius,
    apply_left,
    apply_right,
    matrix_units,
    pullback_density,
    trace_row,
    transpose_order,
)
from nclp.errors import (
    DataInvalid,
    ExponentMismatch,
    ExponentUnsupported,
    NonFaithful,
    NotAnIsometry,
    NotInvariant,
    ShapeMismatch,
)
from nclp.expectation import (
    _DECOMP_SEED,
    Subalgebra,
    _certify_expectation,
    _gaussian,
    construct_expectation,
    takesaki_invariant,
)
from nclp.isometry import (
    _FOREIGN_STATE,
    WARN_TOL,
    IsometryData,
    _slice_positions,
    _support_defect,
    build_isometry,
    extract_pi,
    extract_polar_data,
    verify_state_restriction,
)
from nclp.lp import (
    ClarksonResult,
    LpMap,
    LpVector,
    _rank_masks,
    amplified_algebra,
    lp_norm,
    lp_norms,
    right_supports,
)
from nclp.samples import (
    _EMBED_MENU,
    _YEADON_MENU,
    _target_blocks,
    haar_unitary,
    random_element,
    random_isometry_data,
    random_unitary_element,
    rng_for,
)
from nclp.yeadon import YeadonTriple


def glimm_defect_per_block(source, target, matrix: np.ndarray) -> float:
    """The Glimm defect of `unit_system_defect`, one source block at a time:
    per target block the unit images of a source block form an (n, n, m, m)
    stack S, read in place."""
    layout = list(zip(source.offsets(), source.blocks))
    units = [np.zeros((3, n, n)) for _, n in layout]  # squares summed over target blocks
    cross = np.zeros((len(layout), len(layout)))
    with np.errstate(all="ignore"):
        for toff, m in zip(target.offsets(), target.blocks):
            rows, ones = matrix[toff : toff + m * m], []
            for (off, n), sq in zip(layout, units):
                S = rows[:, off : off + n * n].T.reshape(n, n, m, m)
                want = np.stack([S, np.zeros_like(S)])
                want[1, range(n), range(n)] = S[0, 0]
                prod = np.stack([S[:, 0], S[0]])[:, :, None] @ np.stack([S[0], S[:, 0]])[:, None]
                star = S.conj().transpose(1, 0, 3, 2) - S
                sq += np.linalg.norm(np.concatenate([star[None], prod - want]), axis=(-2, -1)) ** 2
                ones.append(np.trace(S))
            U = np.stack(ones)
            cross += np.linalg.norm(U[:, None] @ U[None], axis=(-2, -1)) ** 2
        np.fill_diagonal(cross, 0.0)
        found = np.concatenate([sq.ravel() for sq in units] + [cross.ravel()])
    return float(np.sqrt(np.max(found)))


def pair_table_kind(F: AlgebraMap, tol: float | None = None) -> HomomorphismReport:
    """homomorphism_kind by the all-pairs table: the star defect, and the
    largest Frobenius defects of F(u v) = F(u) F(v) and of F(u v + v u) =
    F(u) F(v) + F(v) F(u) over all pairs of matrix units u, v, which decide
    multiplicativity and the Jordan identity on the whole algebra, since
    both are bilinear.  The table is computed one row at a time: per target
    block the unit images form a (d, m, m) stack S, and row u is fu S and
    S fu.  A NaN defect is kept, so it classifies as neither."""
    tol = max(F.source.atol, F.target.atol) if tol is None else tol
    d = F.source.total_dim
    stacks = [
        np.ascontiguousarray(F.matrix[off : off + m * m].T).reshape(d, m, m)
        for off, m in zip(F.target.offsets(), F.target.blocks)
    ]
    # unit u = (b, i, j) sits at off + i n + j; transpose[u] is (b, j, i)
    transpose = transpose_order(F.source)
    rows = []
    with np.errstate(all="ignore"):
        star = _stacked_frobenius([S[transpose] - S.conj().transpose(0, 2, 1) for S in stacks])
        for off, n in zip(F.source.offsets(), F.source.blocks):
            for i in range(n):
                for j in range(n):
                    tables = []
                    for S in stacks:
                        fu = S[off + i * n + j]
                        fuv = np.matmul(fu, S)
                        # the expected products F(u v) and F(u v + v u):
                        # F(e_ij e_jl) = F(e_il) and F(e_ki e_ij) = F(e_kj)
                        table = np.zeros((2,) + S.shape, dtype=complex)
                        table[:, off + j * n : off + j * n + n] = S[off + i * n : off + i * n + n]
                        table[1, off + i : off + n * n : n] += S[off + j : off + n * n : n]
                        table[0] -= fuv
                        table[1] -= fuv + np.matmul(S, fu)
                        tables.append(table.reshape((2 * d,) + S.shape[1:]))
                    rows.append(np.max(_stacked_frobenius(tables).reshape(2, d), axis=1))
    mult_defect, jordan_defect = (float(x) for x in np.max(rows, axis=0))
    report = HomomorphismReport(
        "", float(np.max(star)), jordan_defect, mult_defect, F.min_singular_value()
    )
    return replace(report, kind=report.kind_at(tol))


def validate_by_pair_table(data, tol: float = 1e-6) -> None:
    """IsometryData.validate with pi decided by the pair table alone: its
    checks, messages and order of checks, and nothing kept."""
    if data.pi.source != data.source or data.pi.target != data.target:
        raise DataInvalid("homomorphism does not match the declared algebras")
    if not data.reference_state.faithful:
        raise NonFaithful("reference state must be faithful")
    report = pair_table_kind(data.pi)
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


def map_from_callable(source: Algebra, target: Algebra, fn) -> AlgebraMap:
    """The map from source to target whose column u is vec(fn(u)), u the
    matrix units of the source in vectorization order."""
    return AlgebraMap(source, target, np.column_stack([fn(u).vec() for u in matrix_units(source)]))


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


def polar_parts_eagerly(h: LpVector) -> dict:
    """The parts w, modulus, s_left and s_right of the polar decomposition
    of h, each as its list of blocks, built together from one SVD per block
    under the rank rule of `nclp.lp._rank_masks`; each support by the formula
    of `nclp.lp._support_stack`, (x keep)* (x keep) for the rows x of u* or of vh
    with the rows that are not kept zeroed."""
    svds = [np.linalg.svd(b) for b in h.data]
    keeps = _rank_masks([s for _, s, _ in svds])
    parts = {"w": [], "modulus": [], "s_left": [], "s_right": []}
    for (u, s, vh), keep in zip(svds, keeps):
        ur = u[:, keep]
        vr = vh[keep, :].conj().T
        parts["w"].append(ur @ vr.conj().T)
        parts["modulus"].append((vh.conj().T * s) @ vh)
        for name, rows in (("s_left", u.conj().T), ("s_right", vh)):
            kept = rows * keep[:, None]
            parts[name].append(kept.conj().T @ kept)
    return parts


def four_polarizations(algebra) -> tuple[np.ndarray, np.ndarray]:
    """Projections P_r as rows vec(P_r), and the exact dyadic matrix C with
    e_u = sum_r C[r, u] P_r.  The projections are each e_ii and, for i < j,
    the four (e_ii + e_jj + c e_ij + conj(c) e_ji) / 2 with c in
    {1, -1, i, -i}; by polarization e_ij = sum_c conj(c) P_c / 2."""
    eye = np.eye(algebra.total_dim, dtype=complex)
    P, C = [], []
    for off, n in zip(algebra.offsets(), algebra.blocks):
        e = eye[off : off + n * n].reshape(n, n, -1)  # e[i, j] = vec(e_ij)
        P += [e[i, i] for i in range(n)]
        C += [e[i, i] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for c in (1, -1, 1j, -1j):
                    P.append((e[i, i] + e[j, j] + c * e[i, j] + np.conj(c) * e[j, i]) / 2)
                    C.append((np.conj(c) * e[i, j] + c * e[j, i]) / 2)
    return np.array(P), np.array(C)


def pi_by_four_polarizations(T: LpMap, phi) -> AlgebraMap:
    """`extract_pi` on the projections of `four_polarizations`: each P_r goes
    to the right support of T(phi^{1/p} P_r), pi.matrix is supports^T C, and
    the module relation T(phi^{1/p} x) = T(phi^{1/p}) pi(x) is checked on the
    basis, with the errors of `extract_pi`."""
    p = T.p
    if p == 2.0:
        raise ExponentUnsupported("extraction is undefined at p = 2")
    if not phi.faithful:
        raise NonFaithful("extraction needs a faithful reference state")
    if phi.algebra != T.source:
        raise DataInvalid(_FOREIGN_STATE)
    rho_pow = phi.power_element(1.0 / p)
    TLt = apply_left(rho_pow.transpose(), T.matrix.T)
    P, C = four_polarizations(T.source)
    pi = AlgebraMap(T.source, T.target, right_supports(T.target, P @ TLt).T @ C)
    base_image = AlgebraElement.from_vec(T.target, T.matrix @ rho_pow.vec())
    residual = TLt.T - apply_left(base_image, pi.matrix)
    defect = float(np.max(np.linalg.norm(residual, axis=0)))
    if not defect <= WARN_TOL:
        raise NotAnIsometry(f"module relation fails on the basis (defect {defect:.3e})")
    return pi


def conditioned_isometry_data(data, s: float):
    """The isometry data with phibar replaced by rhobar^s / Tr rhobar^s, E
    constructed again on the image of pi and the reference state pulled back
    through pi; the reference state's smallest eigenvalue falls like the
    s-th power.  Raises what `construct_expectation` or the faithfulness
    check of `IsometryData.validate` raise (NotInvariant, NonFaithful)."""
    blocks = data.phibar.power_element(float(s)).data
    phibar = State(data.target, blocks, normalize=True)
    expectation = construct_expectation(Subalgebra.from_map_image(data.pi), phibar)
    phi = State(data.source, pullback_density(phibar, data.pi), normalize=True)
    if not phi.faithful:
        raise NonFaithful("reference state must be faithful")
    return replace(data, expectation=expectation, reference_state=phi)


def conditioning_ladder(plans: dict, seeds=(0, 1), powers=(1.0, 8.0, 12.0, 16.0)):
    """(plan, seed, s, data) for `random_isometry_data` of each plan
    {name: (source blocks, target plan)} and seed, moved by
    `conditioned_isometry_data` to each power s; data is the error the
    set-up raised where it raised NonFaithful or NotInvariant."""
    for plan, (source, layout) in plans.items():
        for seed in seeds:
            base = random_isometry_data(seed, source, plan=layout)
            for s in powers:
                try:
                    data = conditioned_isometry_data(base, s)
                except (NonFaithful, NotInvariant) as exc:
                    data = exc
                yield plan, seed, s, data


def reconstruction_by_rebuild(T: LpMap, phi: State, p: float) -> float:
    """The reconstruction defect of T read at p, for a T whose
    classification reaches stage 6: the data recovered by stages 2, 3 and 5,
    the map `build_isometry` makes of it, and the largest
    ||T h - R h||_p / ||h||_p over the rows h = rho^{1/p} e_u."""
    T = T.at_exponent(p)
    pi = extract_pi(T, phi)
    w, phibar = extract_polar_data(T, phi)
    E = construct_expectation(Subalgebra.from_map_image(pi), phibar)
    rebuilt = build_isometry(IsometryData(T.source, T.target, pi, w, E, phi), p)
    rows = apply_left(phi.power_element(1.0 / p).transpose(), np.eye(T.source.total_dim))
    gaps = np.matmul(T.matrix, rows[:, :, None]) - np.matmul(rebuilt.matrix, rows[:, :, None])
    scales = np.maximum(lp_norms(T.source, p, rows), 1e-14)
    return float(np.max(lp_norms(T.target, p, gaps[:, :, 0]) / scales))


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


def amplified_indicator(algebra, n: int, p: float, positions) -> LpVector:
    """The vector of the n-fold amplification with ones at the given positions."""
    big = amplified_algebra(algebra, n)
    vec = np.zeros(big.total_dim, dtype=complex)
    vec[positions] = 1.0
    return LpVector.from_element(AlgebraElement.from_vec(big, vec), p)


def unit_positions(algebra, n: int) -> list:
    """The positions of e_ac (x) u for a, c in {0, 1}, as [a][c]."""
    if n < 2:
        raise ShapeMismatch(f"the witnesses need a two-fold amplification, got n = {n}")
    pos = _slice_positions(algebra, n)
    return [[pos[a * n + c] for c in (0, 1)] for a in (0, 1)]


def grid_positions(algebra, units: list, b: int, k: int, l: int) -> list:
    off, nb = algebra.offsets()[b], algebra.blocks[b]
    return [
        units[a][c][off + qa * nb + qc]
        for a, qa in enumerate((k, l))
        for c, qc in enumerate((k, l))
    ]


def witness_positions(algebra, n: int) -> list:
    """Positions of the ones of each structured witness in the n-fold
    amplification: the grid witnesses of every block, then row and column
    witnesses."""
    units = unit_positions(algebra, n)
    out = [
        grid_positions(algebra, units, b, k, l)
        for b, nb in enumerate(algebra.blocks)
        for k in range(nb)
        for l in range(k + 1, nb)
    ]
    # row and column witnesses e_11 (x) u_i + e_12 (x) u_j and
    # e_11 (x) u_i + e_21 (x) u_j across blocks, for abelian parts
    first, row, col = units[0][0], units[0][1], units[1][0]
    cap = min(algebra.total_dim, 12)
    for i in range(cap):
        for j in range(i + 1, cap):
            out += [[first[i], row[j]], [first[i], col[j]]]
    return out


def plan_rows(algebra, plan) -> np.ndarray:
    """The rows of a `nclp.isometry._Plan` on this source written out in the
    n-fold amplification: a one at the positions of each unit slice of the
    structured rows, then the samples, scattered through `_slice_positions`."""
    positions = _slice_positions(algebra, plan.n)
    rows = np.zeros((len(plan.l1), positions.size), dtype=complex)
    r, s = np.nonzero(plan.units >= 0)
    rows[r, positions[s, plan.units[r, s]]] = 1.0
    rows[len(plan.units) :, positions] = plan.samples
    return rows


def grid_witness(algebra, b: int, k: int, l: int, p: float, n: int = 2) -> LpVector:
    """The grid witness Sigma_{a,c} e_ac (x) u_{q_a q_c}, q = (k, l), of block
    b in the n-fold amplification, as one vector."""
    positions = grid_positions(algebra, unit_positions(algebra, n), b, k, l)
    return amplified_indicator(algebra, n, p, positions)


def structured_witnesses(algebra, p: float, n: int = 2) -> list[LpVector]:
    """Matrix-unit grid witnesses Sigma e_ij (x) u_ij in the n-fold
    amplification; these detect maps that preserve norms but not the
    multiplicative structure."""
    return [amplified_indicator(algebra, n, p, pos) for pos in witness_positions(algebra, n)]


def validate_by_pairs(A) -> None:
    """Closure of the span of a subalgebra's basis, element by element:
    adjoints, then products, within 1000 atol times the largest basis norm
    (its square for products), then the action of Subalgebra.unit."""
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


def unit_by_elements(A) -> list[np.ndarray]:
    """The blocks of the support of S = sum_a a a* + a* a, summed element by
    element, keeping the eigenvectors above 1e-10 of the largest 2-norm of a
    block of S: the unit of a span whose basis elements are of one scale."""
    S = AlgebraElement.zero(A.parent)
    for a in A.basis:
        S = S + a @ a.adjoint() + a.adjoint() @ a
    top = max(float(np.linalg.norm(b, 2)) for b in S.data)
    blocks = []
    for b in S.data:
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        keep = w > 1e-10 * max(top, 1e-300)
        blocks.append(v[:, keep] @ v[:, keep].conj().T)
    return blocks


def edge_bases() -> dict:
    """Unvalidated bases at the edge of subalgebra validation, by the
    element-wise check each fails: span{1, h} on M_3 for a seeded Hermitian
    h, not closed under products; the upper triangle of M_2, not closed
    under adjoints; and span{e_1, 5e-6 e_2} on C + C, all of C + C, whose
    second element falls below the rank rule of `unit_by_elements`, so that
    support misses e_2 and does not act as an identity."""
    herm = random_element(Algebra((3,)), rng_for(3))
    herm = herm + herm.adjoint()
    M3, M2, C2 = herm.algebra, Algebra((2,)), Algebra((1, 1))
    upper = [np.diag([1.0, 0.0]), np.array([[0, 1], [0, 0]]), np.diag([0.0, 1.0])]
    faint = [AlgebraElement(C2, [[[1.0]], [[0.0]]]), AlgebraElement(C2, [[[0.0]], [[5e-6]]])]
    return {
        "products": Subalgebra(M3, [AlgebraElement.identity(M3), herm], validate=False),
        "adjoints": Subalgebra(M2, [AlgebraElement(M2, [b]) for b in upper], validate=False),
        "an identity": Subalgebra(C2, faint, validate=False),
    }


def lp_norms_per_block(algebra, p: float, rows: np.ndarray, weights=None) -> np.ndarray:
    """`nclp.lp.lp_norms` with one stacked SVD per block, each row's sum of
    p-th powers rescaled by its top singular value where it overflows or
    underflows to zero.  A row with a NaN entry reads NaN and one with an
    infinite entry inf, as `nclp.lp._svdvals` reads them; the finite rows
    take the SVD."""
    rows = np.asarray(rows)
    finite = np.isfinite(rows).all(axis=1)
    svals = [
        np.linalg.svd(rows[finite, off : off + n * n].reshape(-1, n, n), compute_uv=False)
        for off, n in zip(algebra.offsets(), algebra.blocks)
    ]
    out = np.where(np.isnan(rows).any(axis=1), np.nan, np.inf)
    out[finite] = norms_of_values(svals, p, weights)
    return out


def norms_of_values(svals, p: float, weights=None) -> np.ndarray:
    """The p-norms of the rows whose blocks have these singular values, one
    (N, k) array of descending values per block: each row's weighted sum of
    p-th powers, rescaled by its top singular value where it overflows or
    underflows to zero, s_max (sum w (s / s_max)^p)^(1/p)."""
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


def frobenius_by_norm(blocks) -> float:
    """The Frobenius norm of the element with the given blocks, as
    sqrt(sum of np.linalg.norm(b) ** 2)."""
    return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks)))


def clarkson_by_elements(h: LpVector, k: LpVector) -> ClarksonResult:
    """`nclp.lp.clarkson_defect` on the rows h + k, h - k, h, k of the
    vectorization, its overflow fallback taking the SVDs again, and the
    witness from the elements h k* and h* k, scaled as that function scales
    them where their squares might overflow."""
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
    # above the overflow bound of `clarkson_defect`, the witness of h and k
    # scaled by the powers of two near 1 / n_h and 1 / n_k, scaled back
    e_h = e_k = 0
    if not h.algebra.matrix_dim ** max(0.0, 1.0 - 2.0 / p) * float(n_h) * float(n_k) <= 1e150:
        e_h, e_k = math.frexp(n_h)[1], math.frexp(n_k)[1]
    hs, ks = h * 2.0**-e_h, k * 2.0**-e_k
    witness = max((hs @ ks.adjoint()).frobenius(), (hs.adjoint() @ ks).frobenius())
    with np.errstate(over="ignore"):
        witness = float(np.ldexp(witness, e_h + e_k))
    return ClarksonResult(defect=defect, orthogonal=bool(witness < h.algebra.atol), witness=witness)


def certify_expectation_by_generators(M: np.ndarray, A, state, defect: float = 0.0) -> None:
    """`nclp.expectation._certify_expectation` one generator at a time: the
    same checks, tolerances, messages and order, each generator's module
    identities as four blockwise products over M, and the five positivity
    samples drawn afresh, one eigvalsh per block."""
    parent = A.parent
    check_tol = 1e-7 * max(1, parent.total_dim)
    B = np.column_stack([a.vec() for a in A.basis])
    G = np.column_stack([a.vec() for a in A.generators])
    if not np.max(np.abs(M @ M - M)) <= check_tol:
        raise NotInvariant(defect, "expectation is not idempotent")
    col_tol = check_tol * np.maximum(1.0, np.linalg.norm(B, axis=0))
    if not np.all(np.linalg.norm(M @ B - B, axis=0) <= col_tol):
        raise NotInvariant(defect, "expectation does not fix the subalgebra")
    omega = trace_row(state.density)
    if not np.max(np.abs(omega @ M - omega)) <= check_tol:
        raise NotInvariant(defect, "expectation does not preserve the state")
    # M L_a = (L_{a^T} M^T)^T and M R_a = (R_{a^T} M^T)^T
    Mt = np.ascontiguousarray(M.T)
    gen_tol = check_tol * np.maximum(1.0, np.linalg.norm(G, axis=0))
    for a, tol in zip(A.generators, gen_tol):
        for apply in (apply_left, apply_right):
            comm = apply(a.transpose(), Mt).T - apply(a, M)
            if not np.all(np.linalg.norm(comm, axis=0) <= tol):
                raise NotInvariant(defect, "expectation is not a module map")
    rng = np.random.default_rng(_DECOMP_SEED)
    for _ in range(5):
        g_blocks = [g @ g.conj().T for g in _gaussian(parent, rng)]
        pos = AlgebraElement.from_vec(parent, M @ AlgebraElement(parent, g_blocks).vec())
        low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in pos.data)
        if not low >= -check_tol * max(1.0, max(np.linalg.norm(b) for b in g_blocks)):
            raise NotInvariant(defect, "expectation is not positive on samples")


def expectation_by_gram_solve(A, state) -> np.ndarray:
    """The matrix of the state-preserving expectation onto A as the
    GNS-orthogonal projection onto the span: with Q an orthonormal basis of
    the span from a thin SVD of the basis columns and W = R_rho,
    Tr(rho y* x) = vec(y)^H W vec(x), it is Q (Q^H W Q)^{-1} Q^H W, where
    `nclp.expectation` reads the weighted partial trace off the units."""
    u, s, _ = np.linalg.svd(A.columns, full_matrices=False)
    Q = u[:, s > 1e-12 * s[0]]
    WQ = apply_right(state.density, Q)
    gram = Q.conj().T @ WQ
    gram = (gram + gram.conj().T) / 2
    return Q @ np.linalg.solve(gram, WQ.conj().T)


def construct_by_gram_solve(A, state) -> np.ndarray:
    """`nclp.expectation.construct_expectation` as the Gram solve: the
    Takesaki check on a copy of A whose orthonormal basis comes from a thin
    SVD of its columns, `expectation_by_gram_solve`, then the whole
    certificate; the matrix, or the exception either raises."""
    copy = object.__new__(type(A))
    object.__setattr__(copy, "parent", A.parent)
    object.__setattr__(copy, "columns", A.columns)
    copy.__dict__["decomposition"] = A.decomposition
    inv = takesaki_invariant(copy, state)
    if not inv.invariant:
        raise NotInvariant(inv.defect)
    M = expectation_by_gram_solve(A, state)
    _certify_expectation(M, A, state, inv.defect)
    return M


def bad_idempotents(M: np.ndarray, A, state, rng) -> dict:
    """Perturbations of the expectation matrix M, each breaking exactly one
    identity of the certificate, keyed by name, each with the message it
    must raise.  The module breaker needs a span of dimension at least 2.
    The right module breaker, last, draws nothing from rng; it needs a
    factor of size at least 2 and is left out where it does not move M."""
    D = M.shape[0]
    eye = np.eye(D)
    Q = A._onb  # orthonormal columns spanning the subalgebra
    omega = np.concatenate([r.T.reshape(-1) for r in state._data])
    # the part of the span that the state annihilates
    _, _, vh = np.linalg.svd((omega @ Q)[None, :])
    K = Q @ vh[1:].conj().T
    N = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    S = eye + 0.1 * N / np.linalg.norm(N, 2)
    module = "expectation is not a module map"
    out = {
        "expectation is not idempotent": (M + 1e-3 * N, "expectation is not idempotent"),
        "expectation does not fix the subalgebra": (
            S @ M @ np.linalg.inv(S),
            "expectation does not fix the subalgebra",
        ),
        # M + X N (I - M) with range(X) in the span stays an idempotent onto
        # the span; the state survives only when omega X = 0
        "expectation does not preserve the state": (
            M + Q @ Q.conj().T @ N @ (eye - M),
            "expectation does not preserve the state",
        ),
        module: (M + K @ K.conj().T @ N @ (eye - M), module),
    }
    # M + R_k (I - M), k = f_00 of a factor: an idempotent that fixes the
    # span and keeps the state, since phi((x - Ex) k) = phi(E(x - Ex) k) = 0,
    # and a left module map; a right module map only when k is central
    dec = A.decomposition
    wide = [off for off, n in zip(dec.algebra.offsets(), dec.algebra.blocks) if n >= 2]
    if wide:
        k = AlgebraElement.from_vec(A.parent, dec.embed.matrix[:, wide[0]])
        move = right_mult_matrix(k) @ (eye - M)
        if np.max(np.abs(move)) > 1e-6:
            out["expectation is not a right module map"] = (M + move, module)
    return out


def support_corner_by_elements(A, state) -> None:
    """The support check of `takesaki_invariant` for a singular state, one
    basis element at a time: NonFaithful unless P a = a = a P for every
    basis element a, P the support of the state."""
    tol = A.parent.atol
    P = state.support()
    for a in A.basis:
        if (P @ a - a).frobenius() > 100 * tol or (a @ P - a).frobenius() > 100 * tol:
            raise NonFaithful("state is singular and the subalgebra leaves its support corner")


NORM_ROUNDING = 32 * np.finfo(float).eps  # relative rounding of a computed L_p norm


def norm_defect_on_full_images(T: LpMap, n: int, rows, norms, relative: bool) -> float:
    """The norm defect of id_n (x) T over the rows with norms `norms`, each
    slice image T(h_ij) placed at e_ij (x) T(h_ij) in the full amplified
    target, one stacked matvec for all slices."""
    src, tgt = _slice_positions(T.source, n), _slice_positions(T.target, n)
    images = np.empty((len(rows), tgt.size), dtype=complex)
    images[:, tgt] = np.matmul(T.matrix, rows[:, src][..., None])[..., 0]
    keep = ~(norms < 1e-14)
    d = np.abs(lp_norms(amplified_algebra(T.target, n), T.p, images)[keep] - norms[keep])
    if relative:
        d = d / norms[keep]
    return float(np.max(d, initial=0.0))


def image_supports(T: LpMap) -> list[tuple]:
    """Per target block b of size m, (m, k_l, k_r, term): the ranks of the
    concatenation L = [T(u)_b ...] and the stack R of the block b of the
    images of the matrix units u, counted by the rank rule of `_rank_masks`,
    and m^{1/p} (s_{k_l+1}(L) + s_{k_r+1}(R)), where a side of full rank
    adds nothing."""
    images = [T(LpVector.from_element(u, T.p)).data for u in matrix_units(T.source)]
    out = []
    for b, m in enumerate(T.target.blocks):
        ranks, term = [], 0.0
        for side in (np.hstack([x[b] for x in images]), np.vstack([x[b] for x in images])):
            values = np.linalg.svd(side, compute_uv=False)
            ranks.append(max(1, int(_rank_masks([values])[0].sum())))
            term += float(values[ranks[-1]]) if ranks[-1] < m else 0.0
        out.append((m, *ranks, term * m ** (1.0 / T.p)))
    return out


def gram_norm_bounds(shapes, p: float) -> tuple[float, float]:
    """`gram_bounds` of a row whose blocks have the given (r, c) shapes, each
    read off its own smaller Gram matrix (`nclp.lp._gram_svdvals`): a
    min(r, c) square one of inner products of length max(r, c)."""
    return gram_bounds([(min(r, c), max(r, c)) for r, c in shapes], p)


def gram_bounds(grams, p: float) -> tuple[float, float]:
    """(relative, absolute) bounds, to first order in the unit roundoff u,
    on the error of the p-norm, p >= 2, of a row whose blocks read their
    singular values off the eigenvalues of a Gram matrix, given per block as
    (k, q): the matrix is k x k and its entries are complex inner products
    of length q.  A matrix's own Gram matrix has k = min(r, c) and
    q = max(r, c); the Gram sum G_i + G_j of a row [Y_i Y_j] of two r x c
    images (`nclp.lp._gram_sum_svdvals`) has k = r and q = 2 c, and that of
    a column k = c and q = 2 r.  Per block:
    - the inner products are each within sqrt(2) (q + 2) u |y_i| |y_j| in
      any order of summation (Higham, Accuracy and Stability, 3.5), so the
      Gram matrix is within sqrt(2) (q + 2) u ||Y||_F^2 <= sqrt(2) (q + 2) k
      u ||Y||_2^2 in the 2-norm, Y of rank at most k, plus at most 4 q tiny
      per entry where it underflows (tiny the smallest normal float);
    - eigvalsh is backward stable, taken as k u ||G||_2;
    - by Weyl's inequality every eigenvalue then moves by at most
      eta ||Y||_2^2 + 4 k q tiny, eta = k (sqrt(2) (q + 2) + 1) u, and the
      clip at 0 only brings a negative one closer;
    - ||Y||_p^2 is the l_{p/2} norm of the k eigenvalues (the other singular
      values of a row of images are exactly 0), a norm for p >= 2, so it
      moves by at most k^{2/p} times that, and ||Y||_2 <= ||Y||_p;
    - the square root halves the relative part, takes the root of the
      absolute part, and rounds each value by u.
    The relative part is the largest over the blocks, the absolute parts add
    (Minkowski), and the sum of the K values' p-th powers and its root in
    `nclp.lp._grouped_norms` add ((K + 1) / p + 1) u."""
    u, tiny = np.finfo(float).eps / 2, np.finfo(float).tiny
    relative, absolute, count = 0.0, 0.0, 0
    for k, q in grams:
        spread = k ** (2.0 / p)
        relative = max(relative, spread * k * (np.sqrt(2) * (q + 2) + 1) * u / 2 + u)
        absolute += 2 * np.sqrt(spread * k * q * tiny)
        count += k
    return relative + ((count + 1) / p + 1) * u, absolute


def trace_bounds(grams, p: float) -> float:
    """A relative bound, to first order in the unit roundoff u, on the error
    of the p-norm, p in {2, 4}, of a row whose blocks read their p-th power
    sums off Gram traces (`nclp.lp._gram_traces`,
    `nclp.lp._gram_sum_traces`), given per block as (k, q) as for
    `gram_bounds`: the Gram matrix G is k x k, its entries complex inner
    products of length q, and the block's rank r is at most k.  Per block,
    with S = ||Y||_p^p:
    - p = 2: S is one sum of the 2 k q squares of the real and imaginary
      parts of the entries, within 2 k q u S in any order of summation;
    - p = 4: S = ||G||_F^2, and the computed G is G + E with
      ||E||_F <= g ||Y||_F^2 = g tr G, g = sqrt(2) (q + 2) u (Higham,
      Accuracy and Stability, 3.5), and tr G <= sqrt(r) ||G||_F
      (Cauchy-Schwarz on the eigenvalues of G), so ||G||_F moves by at most
      g sqrt(r) relative and ||Y||_4 = ||G||_F^{1/2} by g sqrt(r) / 2; the
      sum of the 2 k^2 squares that make S is within 2 k^2 u S, which moves
      ||Y||_4 by k^2 u / 2.
    A row whose total of block sums lies below tiny / u times the largest
    weight goes to the SVD, so underflow adds at most u^2 per square.  The
    relative part is the largest over the blocks, and the weighted sum of
    the block sums and the root in `nclp.lp._grouped_norms` add
    (2 B / p + 1) u for B blocks."""
    u = np.finfo(float).eps / 2
    worst = 0.0
    for k, q in grams:
        if p == 2.0:
            relative = k * q * u
        else:
            relative = np.sqrt(2) * (q + 2) * u * np.sqrt(k) / 2 + k * k * u / 2
        worst = max(worst, relative)
    return worst + (2 * len(grams) / p + 1) * u


def image_rounding(T: LpMap, n: int) -> tuple[float, float]:
    """(relative, absolute) rounding of an image norm of id_n (x) T as the
    sampled defects compute it: NORM_ROUNDING for p < 2, where they read an
    SVD, and for p >= 2 `gram_norm_bounds` of the full (n m) x (n m) blocks,
    which bound the smaller compressed ones."""
    if T.p < 2.0:
        return NORM_ROUNDING, 0.0
    return gram_norm_bounds([(n * m, n * m) for m in T.target.blocks], T.p)


def rounding_room(T: LpMap, n: int, norms, want: float, relative: bool, allowance=0.0) -> float:
    """How far the norm defect of id_n (x) T over rows with norms `norms`
    may be from `want`, its value through the SVD of the full images, when
    measuring on the supports changes each image norm by at most `allowance`
    times the row's norm: that change, and the rounding of the two computed
    image norms, each at most ||h||_p + the defect of h; all divided by
    ||h||_p when relative, over the norms of at least 1e-14."""
    rounding, absolute = image_rounding(T, n)
    kept = norms[~(norms < 1e-14)]
    if not kept.size:
        return 0.0
    scale, floor = (1.0, float(kept.min())) if relative else (float(kept.max()), 1.0)
    both = NORM_ROUNDING + rounding
    return (allowance + both) * scale + both * want + absolute / floor


def support_bound(
    T: LpMap, samples, want: float, weights=None, relative=True, supports=None, n=1
):
    """How far the norm defect of id_n (x) T over the samples may move from
    `want`, its value through the SVD of the full images, when the images
    are measured on their supports (`supports`, default `image_supports(T)`)
    by the kernel of the sampled defects: 0 for p < 2 when every block of
    T's images has full rank on both sides, so the defect must be the same
    bit for bit.  Otherwise, per sample h, ||h||_l1 times the sum of the
    terms bounds the exact change of ||(id_n (x) T) h||_p, and the two
    computed image norms carry NORM_ROUNDING and `image_rounding` relative
    rounding, at most ||h||_p + the defect of h, and its absolute part; all
    divided by ||h||_p when relative, over the samples whose norm is at least
    1e-14."""
    supports = image_supports(T) if supports is None else supports
    if T.p < 2.0 and all(kl == kr == m for m, kl, kr, _ in supports):
        return 0.0
    total = sum(term for *_, term in supports)
    rounding, absolute = image_rounding(T, n)
    both = NORM_ROUNDING + rounding
    worst = 0.0
    for h in samples:
        nh = lp_norm(h, weights=weights)
        if nh >= 1e-14:
            change = float(np.abs(h.vec()).sum()) * total + both * nh + absolute
            worst = max(worst, change / (nh if relative else 1.0))
    return worst + both * want


def isometry_data_by_units(seed: int, source_blocks=None, *, plan=None):
    """`nclp.samples.random_isometry_data` with pi through `map_from_callable`,
    one matrix unit at a time, and each block of pi(u) and of the preserved
    density placed and conjugated alone, drawing from the seed's stream in
    the generator's order."""
    rng = rng_for(seed)
    if plan is None:
        menu_src, plan = _EMBED_MENU[seed % len(_EMBED_MENU)]
        if source_blocks is None:
            source_blocks = menu_src
    source = Algebra(tuple(source_blocks))
    target = Algebra(_target_blocks(source, plan))
    conjugators = [haar_unitary(m, rng) for m in target.blocks]
    a_factors = []
    for n in source.blocks:
        v = haar_unitary(n, rng)
        eigs = rng.uniform(0.35, 1.8, size=n)
        a_factors.append((v * eigs) @ v.conj().T)

    def embed_element(x: AlgebraElement) -> AlgebraElement:
        blocks = []
        for cidx, (assignments, pad) in enumerate(plan):
            m = target.blocks[cidx]
            mat = np.zeros((m, m), dtype=complex)
            off = 0
            for b, mult in assignments:
                n = source.blocks[b]
                mat[off : off + mult * n, off : off + mult * n] = np.kron(np.eye(mult), x.data[b])
                off += mult * n
            u = conjugators[cidx]
            blocks.append(u @ mat @ u.conj().T)
        return AlgebraElement(target, blocks)

    pi = map_from_callable(source, target, embed_element)
    density_blocks = []
    for cidx, (assignments, pad) in enumerate(plan):
        m = target.blocks[cidx]
        mat = np.zeros((m, m), dtype=complex)
        off = 0
        for b, mult in assignments:
            n = source.blocks[b]
            vd = haar_unitary(mult, rng)
            d_eigs = rng.uniform(0.35, 1.8, size=mult)
            d_factor = (vd * d_eigs) @ vd.conj().T
            mat[off : off + mult * n, off : off + mult * n] = np.kron(d_factor, a_factors[b])
            off += mult * n
        u = conjugators[cidx]
        density_blocks.append(u @ mat @ u.conj().T)
    phibar = State(target, density_blocks, normalize=True)
    expectation = construct_expectation(Subalgebra.from_map_image(pi), phibar)
    phi = State(source, pullback_density(phibar, pi), normalize=True)
    pi_one = pi(AlgebraElement.identity(source))
    w = pi_one if seed % 3 == 0 else random_unitary_element(target, rng) @ pi_one
    return IsometryData(
        source=source,
        target=target,
        pi=pi,
        w=w,
        expectation=expectation,
        reference_state=phi,
    )


def yeadon_triple_by_units(seed: int, p: float, spec=None):
    """`nclp.samples.random_yeadon_triple` with J through `map_from_callable`,
    one matrix unit at a time, and each block of J(u) and of B placed and
    conjugated alone."""
    rng = rng_for(seed)
    if spec is None:
        spec = _YEADON_MENU[seed % len(_YEADON_MENU)]
    source = Algebra(tuple(s[0] for s in spec))
    target = Algebra(tuple(s[0] * s[2] + s[3] for s in spec))
    conjugators = [haar_unitary(m, rng) for m in target.blocks]
    d_factors = [rng.uniform(0.5, 1.5, size=mult) for _, _, mult, _ in spec]

    def jmap(x: AlgebraElement) -> AlgebraElement:
        blocks = []
        for bidx, (size, branch, mult, pad) in enumerate(spec):
            m = target.blocks[bidx]
            mat = np.zeros((m, m), dtype=complex)
            piece = x.data[bidx].T if branch == "transpose" else x.data[bidx]
            mat[: size * mult, : size * mult] = np.kron(np.eye(mult), piece)
            u = conjugators[bidx]
            blocks.append(u @ mat @ u.conj().T)
        return AlgebraElement(target, blocks)

    J = map_from_callable(source, target, jmap)
    b_blocks = []
    for bidx, (size, branch, mult, pad) in enumerate(spec):
        m = target.blocks[bidx]
        mat = np.zeros((m, m), dtype=complex)
        mat[: size * mult, : size * mult] = np.kron(np.diag(d_factors[bidx]), np.eye(size))
        u = conjugators[bidx]
        b_blocks.append(u @ mat @ u.conj().T)
    B = LpVector.from_element(AlgebraElement(target, b_blocks), float(p))
    j_one = J(AlgebraElement.identity(source))
    u0 = random_unitary_element(target, rng)
    w = u0 @ j_one if seed % 2 else j_one
    weights = tuple(float(np.sum(d**p)) for d in d_factors)
    return YeadonTriple(J=J, w=w, B=B), weights
