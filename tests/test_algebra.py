import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nclp.algebra import (
    EPS_FAITHFUL,
    Algebra,
    AlgebraElement,
    AlgebraMap,
    HomomorphismReport,
    Projection,
    State,
    apply_left,
    apply_right,
    cluster_projection,
    homomorphism_kind,
    make_algebra,
    matrix_units,
    pullback_density,
    random_faithful_state,
    spectral_clusters,
    trace_row,
    transpose_permutation,
    unit_system_defect,
)
from dense_oracles import (
    compose_maps,
    conjugation_map,
    frobenius_by_norm,
    glimm_defect_per_block,
    left_mult_matrix,
    map_from_callable,
    pair_table_kind,
    right_mult_matrix,
)
from nclp.errors import EmptyBlocks, NonPositiveDim, ShapeMismatch
from nclp.lp import LpVector
from nclp.samples import haar_unitary, random_element, rng_for

# matrix identities against the per-unit loops they replace: equal up to the
# order of summation
ORACLE_TOL = 1e-12


def test_make_algebra_dimensions():
    assert make_algebra([2]).total_dim == 4
    assert make_algebra([1, 1]).total_dim == 2
    assert make_algebra([2, 3]).total_dim == 13


def test_make_algebra_errors():
    with pytest.raises(EmptyBlocks):
        make_algebra([])
    with pytest.raises(NonPositiveDim):
        make_algebra([2, 0])
    with pytest.raises(NonPositiveDim):
        make_algebra([-1])


def test_element_shape_checked():
    alg = make_algebra([2])
    with pytest.raises(ShapeMismatch):
        AlgebraElement(alg, [np.eye(3)])
    with pytest.raises(ShapeMismatch):
        AlgebraElement(alg, [np.eye(2), np.eye(2)])


def test_elements_immutable():
    alg = make_algebra([2])
    x = AlgebraElement.identity(alg)
    with pytest.raises(AttributeError):
        x.data = None
    with pytest.raises(ValueError):
        x.data[0][0, 0] = 5.0


def test_from_vec_builds_the_class_it_is_called_on():
    # a projection is checked as its constructor checks it, and an L_p
    # vector takes its exponent
    alg = make_algebra([2, 1])
    vec = np.array([1, 0, 0, 0, 1], dtype=complex)
    proj, h = Projection.from_vec(alg, vec), LpVector.from_vec(alg, 3.0, 2 * vec)
    assert type(proj) is Projection and np.array_equal(proj.vec(), vec)
    assert type(h) is LpVector and h.p == 3.0 and np.array_equal(h.vec(), 2 * vec)
    assert type(AlgebraElement.from_vec(alg, vec)) is AlgebraElement
    with pytest.raises(ShapeMismatch):
        Projection.from_vec(alg, 2 * vec)


def test_vectorization_is_row_major_block_concat():
    alg = make_algebra([2, 1])
    blocks = [np.array([[1, 2], [3, 4]], dtype=complex), np.array([[5]], dtype=complex)]
    x = AlgebraElement(alg, blocks)
    assert np.array_equal(x.vec(), np.array([1, 2, 3, 4, 5], dtype=complex))
    back = AlgebraElement.from_vec(alg, x.vec())
    assert (back - x).frobenius() == 0


def test_from_vec_never_aliases_the_callers_vector():
    alg = make_algebra([2, 1])
    vec = np.arange(5, dtype=complex)
    x = AlgebraElement.from_vec(alg, vec)
    vec[:] = -1.0
    assert np.array_equal(x.vec(), np.arange(5))
    assert not any(b.flags.writeable or np.shares_memory(b, vec) for b in x.data)
    for bad in (np.zeros(4), np.zeros(6)):
        with pytest.raises(ShapeMismatch):
            AlgebraElement.from_vec(alg, bad)


@pytest.mark.parametrize("seed", [7, 11])
def test_random_faithful_state_deterministic(seed):
    alg = make_algebra([2, 3])
    a = random_faithful_state(alg, seed)
    b = random_faithful_state(alg, seed)
    assert (a.density - b.density).frobenius() == 0


def test_random_faithful_state_invariants():
    for blocks in ([2], [1, 1], [2, 3]):
        alg = make_algebra(blocks)
        phi = random_faithful_state(alg, 3)
        rho = phi.density
        assert abs(rho.trace() - 1.0) < alg.atol
        assert (rho - rho.adjoint()).frobenius() < alg.atol
        assert phi.min_eig() > EPS_FAITHFUL
        assert phi.faithful


def _rank_one_state(alg):
    """A state whose kernel is nonzero, as a negative power needs."""
    blocks = [np.zeros((n, n)) for n in alg.blocks]
    blocks[-1][0, 0] = 1.0
    return State(alg, blocks)


@pytest.mark.parametrize("faithful", [True, False])
def test_powers_are_kept_per_exponent_and_match_a_fresh_state(faithful):
    alg = make_algebra([2, 3])

    def make():
        return random_faithful_state(alg, 3) if faithful else _rank_one_state(alg)

    phi = make()
    for alpha in (1 / 3, -1 / 3, 0.5, 2.0, -1.0, 1 / 8):
        first = phi.power_element(alpha)
        assert phi.power_element(alpha) is first
        assert np.array_equal(first.vec(), make().power_element(alpha).vec())
        for b in first.data:
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[0, 0] = 0.0


def test_state_rejects_bad_density():
    from nclp.errors import NonPositiveDensity

    alg = make_algebra([2])
    with pytest.raises(NonPositiveDensity):
        State(alg, [np.array([[1.0, 0], [0, -0.5]])], normalize=True)
    with pytest.raises(NonPositiveDensity):
        State(alg, [np.diag([0.7, 0.7])])  # trace 1.4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_and_map_reject_non_finite(bad):
    from nclp.algebra import AlgebraMap
    from nclp.errors import NonFinite

    alg = make_algebra([2])
    with pytest.raises(NonFinite):
        State(alg, [np.array([[0.5, 0], [0, bad]])])
    with pytest.raises(NonFinite):
        State(alg, [np.array([[0.5, bad], [bad, 0.5]])], normalize=True)
    matrix = np.eye(4, dtype=complex)
    matrix[1, 2] = bad
    with pytest.raises(NonFinite):
        AlgebraMap(alg, alg, matrix)


@pytest.mark.parametrize("blocks", [[2], [1, 1], [2, 3]])
def test_identity_is_star_homomorphism(blocks):
    alg = make_algebra(blocks)
    rep = homomorphism_kind(AlgebraMap.identity(alg))
    assert rep.kind == "star_homomorphism"
    assert rep.injective


def _transpose_map(alg):
    return AlgebraMap(alg, alg, transpose_permutation(alg))


def test_transpose_is_jordan_only():
    alg = make_algebra([2])
    rep = homomorphism_kind(_transpose_map(alg))
    assert rep.kind == "jordan_only"
    assert rep.star_defect < alg.atol
    assert rep.jordan_defect < alg.atol
    assert rep.mult_defect > 0.5


def test_normalized_trace_map_is_neither():
    # F(x) = Tr(x) I / 2 on M_2: the squares identity fails already at e_11,
    # since F(e_11^2) = I/2 while F(e_11)^2 = I/4
    alg = make_algebra([2])

    def fn(x):
        return AlgebraElement(alg, [np.trace(x.data[0]) * np.eye(2) / 2])

    F = map_from_callable(alg, alg, fn)
    e11 = matrix_units(alg)[0]
    jordan_witness = (F(e11 @ e11) - F(e11) @ F(e11)).frobenius()
    assert np.isclose(jordan_witness, np.linalg.norm(np.eye(2) / 4))
    rep = homomorphism_kind(F)
    assert rep.kind == "neither"
    assert not rep.injective


@pytest.mark.parametrize("case", ["identity", "transpose", "trace"])
def test_kind_invariant_under_target_conjugation(case):
    alg = make_algebra([2])
    if case == "identity":
        F = AlgebraMap.identity(alg)
    elif case == "transpose":
        F = _transpose_map(alg)
    else:
        F = map_from_callable(
            alg, alg, lambda x: AlgebraElement(alg, [np.trace(x.data[0]) * np.eye(2) / 2])
        )
    rng = rng_for(5)
    u = AlgebraElement(alg, [haar_unitary(2, rng)])
    conjugated = compose_maps(conjugation_map(u), F)
    assert homomorphism_kind(conjugated).kind == homomorphism_kind(F).kind


def test_block_embedding_certified_injective():
    src = make_algebra([2])
    tgt = make_algebra([3])

    def fn(x):
        out = np.zeros((3, 3), dtype=complex)
        out[:2, :2] = x.data[0]
        return AlgebraElement(tgt, [out])

    F = map_from_callable(src, tgt, fn)
    rep = homomorphism_kind(F)
    assert rep.kind == "star_homomorphism"
    assert rep.injective


def test_basis_pair_check_controls_random_pairs():
    # multiplicativity is bilinear, so a certificate on matrix-unit pairs
    # forces it on arbitrary pairs
    alg = make_algebra([2, 1])
    rng = rng_for(6)
    u = AlgebraElement(alg, [haar_unitary(2, rng), haar_unitary(1, rng)])
    F = conjugation_map(u)
    assert homomorphism_kind(F).kind == "star_homomorphism"
    from nclp.samples import random_element

    for _ in range(25):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        defect = (F(x @ y) - F(x) @ F(y)).frobenius()
        assert defect < 1e-10 * max(1.0, x.frobenius() * y.frobenius())


def test_spectral_clusters_chain_across_blocks():
    # runs chain through neighbours: steps of 0.9 g stay in one cluster even
    # when the run spans more than g, a step of 1.1 g starts a new one
    g = 1e-3
    rng = rng_for(8)
    values = [[0.0, 0.9 * g, 2.9 * g], [1.8 * g, 4.0 * g, 4.9 * g]]
    mats = []
    for vals in values:
        u = haar_unitary(len(vals), rng)
        mats.append((u * np.array(vals)) @ u.conj().T)
    clusters = spectral_clusters(mats, lambda _: g)
    assert [len(c) for c in clusters] == [3, 1, 2]
    assert [sorted(b for _, b, _ in c) for c in clusters] == [[0, 0, 1], [0], [1, 1]]
    for c in clusters:
        vals = [v for v, _, _ in c]
        assert vals == sorted(vals)


def test_cluster_projections_sum_to_identity():
    alg = make_algebra([2, 3])
    rng = rng_for(9)
    mats = []
    for n in alg.blocks:
        u = haar_unitary(n, rng)
        mats.append((u * rng.integers(0, 2, size=n)) @ u.conj().T)  # eigenvalues 0 and 1
    clusters = spectral_clusters(mats, lambda top: 1e-8 * max(1.0, top))
    total = AlgebraElement.zero(alg)
    for c in clusters:
        P = cluster_projection(alg, c)
        assert (P @ P - P).frobenius() < 1e-12
        total = total + P
    assert total.allclose(AlgebraElement.identity(alg), tol=1e-12)


def test_spectral_clusters_skip_empty_compressed_block():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    Q = np.eye(3, dtype=complex)[:, :2]
    empty = np.zeros((1, 0), dtype=complex)
    compressed = [empty.conj().T @ np.eye(1) @ empty, Q.conj().T @ h @ Q]
    clusters = spectral_clusters(compressed, lambda _: 1e-8, [empty, Q])
    assert [[(v, b) for v, b, _ in c] for c in clusters] == [[(1.0, 1)], [(2.0, 1)]]
    assert all(vec.shape == (3,) for c in clusters for _, _, vec in c)
    assert spectral_clusters([np.zeros((0, 0))], lambda _: 1e-8) == []


def _homomorphism_kind_per_unit(F):
    """Reference: the unit-by-unit map calls that homomorphism_kind replaces
    with matrix columns and structure constants."""
    tol = max(F.source.atol, F.target.atol)
    units = matrix_units(F.source)
    images = [F(u) for u in units]
    star_defect = 0.0
    for u, fu in zip(units, images):
        star_defect = max(star_defect, (F(u.adjoint()) - fu.adjoint()).frobenius())
    jordan_defect = 0.0
    mult_defect = 0.0
    for u, fu in zip(units, images):
        for v, fv in zip(units, images):
            prod = u @ v
            mult_defect = max(mult_defect, (F(prod) - fu @ fv).frobenius())
            sym = F(prod + v @ u)
            jordan_defect = max(jordan_defect, (sym - (fu @ fv + fv @ fu)).frobenius())
    if star_defect <= tol and mult_defect <= tol:
        kind = "star_homomorphism"
    elif star_defect <= tol and jordan_defect <= tol:
        kind = "jordan_only"
    else:
        kind = "neither"
    return HomomorphismReport(
        kind, star_defect, jordan_defect, mult_defect, F.min_singular_value()
    )


def _oracle_maps():
    from nclp.samples import random_isometry_data, random_yeadon_triple, transpose_triple

    for seed in range(12):
        yield pytest.param(random_isometry_data(seed).pi, "star_homomorphism", id=f"pi-{seed}")
    for seed in range(8):
        kind = "jordan_only" if seed in (1, 3, 4, 6, 7) else "star_homomorphism"
        yield pytest.param(random_yeadon_triple(seed, 3.0)[0].J, kind, id=f"J-{seed}")
    yield pytest.param(transpose_triple(3)[0].J, "jordan_only", id="transpose-3")
    rng = rng_for(21)
    src, tgt = make_algebra([2, 1]), make_algebra([1, 3])
    dense = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
    yield pytest.param(AlgebraMap(src, tgt, dense), "neither", id="dense")


def _check_against_the_table(F):
    """homomorphism_kind against the pair table: the same kind and
    injectivity, the star defect up to the order of summation, and the
    Glimm defect as mult_defect.  Returns the table's report."""
    report, table = homomorphism_kind(F), pair_table_kind(F)
    assert report.kind == table.kind and report.injectivity == table.injectivity
    assert abs(report.star_defect - table.star_defect) <= ORACLE_TOL * max(1.0, table.star_defect)
    assert report.mult_defect == unit_system_defect(F)
    return table


@pytest.mark.parametrize("F, kind", list(_oracle_maps()))
def test_homomorphism_kind_matches_per_unit_oracle(F, kind):
    assert _check_against_the_table(F) == _homomorphism_kind_per_unit(F)
    assert homomorphism_kind(F).kind == kind


@pytest.mark.parametrize("seed", [0, 5, 9])
@pytest.mark.parametrize("source", ["isometry", "inclusion"])
def test_pullback_density_matches_unit_calls(source, seed):
    from nclp.samples import random_invariant_inclusion, random_isometry_data

    if source == "isometry":
        data = random_isometry_data(seed)
        F, state = data.pi, data.phibar
    else:
        A, state = random_invariant_inclusion(seed)
        F = A.decomposition.embed
    want = F.source.zero_blocks()
    units = iter(matrix_units(F.source))
    for b, n in enumerate(F.source.blocks):
        for i in range(n):
            for j in range(n):
                want[b][j, i] = state(F(next(units)))
    got = pullback_density(state, F)
    # one row identity against d state calls: equal up to summation order
    assert all(np.max(np.abs(g - w)) <= ORACLE_TOL for g, w in zip(got, want))


def test_trace_row_pairs_with_vectorization():
    alg = make_algebra([2, 1, 3])
    rng = rng_for(4)
    x, y = random_element(alg, rng), random_element(alg, rng)
    assert abs(trace_row(x) @ y.vec() - (x @ y).trace()) <= ORACLE_TOL
    state = random_faithful_state(alg, 2)
    assert abs(trace_row(state.density) @ y.vec() - state(y)) <= ORACLE_TOL


def _homomorphism_kind_pairs(F, tol=None):
    """Reference: the all-pairs loop over unit images that the row-batched
    pair table of `pair_table_kind` replaces, one element product per pair."""
    tol = max(F.source.atol, F.target.atol) if tol is None else tol
    units = [(b, i, j) for b, n in enumerate(F.source.blocks) for i in range(n) for j in range(n)]
    images = dict(zip(units, (AlgebraElement.from_vec(F.target, col) for col in F.matrix.T)))
    zero = AlgebraElement.zero(F.target)
    star_defect = 0.0
    for (b, i, j), fu in images.items():
        star_defect = max(star_defect, (images[b, j, i] - fu.adjoint()).frobenius())
    jordan_defect = 0.0
    mult_defect = 0.0
    for (b, i, j), fu in images.items():
        for (c, k, l), fv in images.items():
            fprod = images[b, i, l] if (b, j) == (c, k) else zero
            fuv = fu @ fv
            mult_defect = max(mult_defect, (fprod - fuv).frobenius())
            sym = fprod + (images[c, k, j] if (c, l) == (b, i) else zero)
            jordan_defect = max(jordan_defect, (sym - (fuv + fv @ fu)).frobenius())
    if star_defect <= tol and mult_defect <= tol:
        kind = "star_homomorphism"
    elif star_defect <= tol and jordan_defect <= tol:
        kind = "jordan_only"
    else:
        kind = "neither"
    return HomomorphismReport(kind, star_defect, jordan_defect, mult_defect, F.min_singular_value())


# the instance plans of the benchmark: (source blocks, target plan)
BENCH_PLANS = {
    "P2": ((2,), [([(0, 1)], 2)]),
    "P3": ((3,), [([(0, 1)], 2)]),
    "P4": ((4,), [([(0, 1)], 2)]),
    "M1": ((2, 1), [([(0, 2), (1, 1)], 1), ([(0, 1)], 1)]),
    "M2": ((3,), [([(0, 2)], 0)]),
}


@pytest.mark.parametrize("plan", sorted(BENCH_PLANS))
def test_homomorphism_kind_matches_pair_loop_on_bench_plans(plan):
    from nclp.samples import random_isometry_data

    source, layout = BENCH_PLANS[plan]
    kinds = set()
    for seed in range(12):
        pi = random_isometry_data(seed, source, plan=layout).pi
        rng = rng_for(seed)
        noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
        for F in (
            pi,
            AlgebraMap(pi.source, pi.target, pi.matrix @ transpose_permutation(pi.source)),
            AlgebraMap(pi.source, pi.target, pi.matrix + 1e-5 * noise),
        ):
            assert _check_against_the_table(F) == _homomorphism_kind_pairs(F)
            kinds.add(homomorphism_kind(F).kind)
    assert kinds == {"star_homomorphism", "jordan_only", "neither"}


def _pair_loop_extra_maps():
    from nclp.samples import random_yeadon_triple

    yield pytest.param(random_yeadon_triple(1, 3.0)[0].J, "jordan_only", id="yeadon-J")
    rng = rng_for(22)
    src, tgt = make_algebra([2, 1]), make_algebra([2, 1, 3])
    dense = rng.standard_normal((14, 5)) + 1j * rng.standard_normal((14, 5))
    yield pytest.param(AlgebraMap(src, tgt, dense), "neither", id="multi-block")
    # star defects 2 x and 2 y in two blocks, where sqrt(0 + n0**2 + n1**2)
    # with libm squares differs in the last bit from the array square n * n
    x, y = 1.879658028534565, 2.894590643007236
    column = np.array([[1.0 + 1j * x], [1.0 + 1j * y]])
    yield pytest.param(
        AlgebraMap(make_algebra([1]), make_algebra([1, 1]), column), "neither", id="squares"
    )


@pytest.mark.parametrize("F, kind", list(_pair_loop_extra_maps()))
def test_homomorphism_kind_matches_pair_loop(F, kind):
    assert _check_against_the_table(F) == _homomorphism_kind_pairs(F)
    assert homomorphism_kind(F).kind == kind


def test_homomorphism_kind_keeps_nan_defects():
    # products of entries near 1e200 overflow, and inf - inf is NaN
    from nclp.samples import random_isometry_data

    F = random_isometry_data(0).pi
    report = homomorphism_kind(AlgebraMap(F.source, F.target, 1e200 * F.matrix))
    assert np.isnan(report.mult_defect)
    assert np.isnan(report.jordan_defect)
    assert report.kind == "neither"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projection_rejects_non_finite_blocks(bad):
    with pytest.raises(ShapeMismatch, match="not idempotent"):
        Projection(Algebra((2,)), [np.full((2, 2), bad)])


def test_kind_at_reclassifies_the_same_defects():
    from nclp.samples import random_yeadon_triple

    J = random_yeadon_triple(1, 3.0)[0].J
    report = homomorphism_kind(J)
    assert report.kind_at(max(J.source.atol, J.target.atol)) == report.kind == "jordan_only"
    assert report.kind_at(2 * report.mult_defect) == "star_homomorphism"
    assert report.kind_at(report.star_defect / 2) == "neither"
    assert homomorphism_kind(J, tol=1.0).kind == report.kind_at(1.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_blockwise_products_match_the_dense_matrices(blocks, N, seed):
    # L_a X, R_a X, and the row-side forms X L_a = (L_{a^T} X^T)^T and
    # X R_a = (R_{a^T} X^T)^T, against the dense multiplication matrices
    alg = make_algebra(blocks)
    rng = rng_for(seed)
    a = random_element(alg, rng)
    X, Y = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for shape in ((alg.total_dim, N), (N, alg.total_dim))
    )
    L, R = left_mult_matrix(a), right_mult_matrix(a)
    pairs = [
        (apply_left(a, X), L @ X),
        (apply_right(a, X), R @ X),
        (apply_left(a.transpose(), Y.T).T, Y @ L),
        (apply_right(a.transpose(), Y.T).T, Y @ R),
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_blockwise_products_check_the_row_count():
    a = AlgebraElement.identity(make_algebra([2, 1]))
    for apply in (apply_left, apply_right):
        with pytest.raises(ShapeMismatch):
            apply(a, np.zeros((4, 3)))
        with pytest.raises(ShapeMismatch):
            apply(a, np.zeros(5))


def _restricted(F, b):
    """F on source block b alone."""
    off, n = F.source.offsets()[b], F.source.blocks[b]
    return AlgebraMap(Algebra((n,)), F.target, F.matrix[:, off : off + n * n])


def _cross_block_defects(F):
    """Frobenius norms of F(1_b) F(1_c), b != c, by element products."""
    layout = list(zip(F.source.offsets(), F.source.blocks))
    ones = [
        AlgebraElement.from_vec(F.target, F.matrix[:, off : off + n * n : n + 1].sum(axis=1))
        for off, n in layout
    ]
    return {
        (b, c): (ones[b] @ ones[c]).frobenius()
        for b in range(len(layout))
        for c in range(len(layout))
        if b != c
    }


def _check_unit_system_defect(F):
    """The Glimm identities against the all-pairs table: each is one pair
    of it, or a sum of n_b n_c of its pairs across blocks.  Returns the
    defect and the table's report."""
    report = pair_table_kind(F)
    defect = unit_system_defect(F)
    units = max(unit_system_defect(_restricted(F, b)) for b in range(len(F.source.blocks)))
    assert units <= max(report.star_defect, report.mult_defect) + 1e-14
    cross = _cross_block_defects(F)
    for (b, c), value in cross.items():
        n_b, n_c = F.source.blocks[b], F.source.blocks[c]
        assert value <= n_b * n_c * report.mult_defect + 1e-14
    assert abs(defect - max([units, *cross.values()])) <= ORACLE_TOL * max(1.0, defect)
    return defect, report


def _unit_system_maps():
    from nclp.samples import random_isometry_data

    for blocks in ([2], [1, 1], [2, 3]):
        alg = make_algebra(blocks)
        yield pytest.param(AlgebraMap.identity(alg), id=f"identity-{blocks}")
        yield pytest.param(_transpose_map(alg), id=f"transpose-{blocks}")
    for seed in range(12):
        yield pytest.param(random_isometry_data(seed).pi, id=f"pi-{seed}")
    for name, (source, layout) in sorted(BENCH_PLANS.items()):
        for seed in range(3):
            pi = random_isometry_data(seed, source, plan=layout).pi
            rng = rng_for(seed)
            noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
            flip = pi.matrix @ transpose_permutation(pi.source)
            yield pytest.param(pi, id=f"{name}-{seed}")
            yield pytest.param(AlgebraMap(pi.source, pi.target, flip), id=f"{name}-{seed}-flip")
            noisy = AlgebraMap(pi.source, pi.target, pi.matrix + 1e-5 * noise)
            yield pytest.param(noisy, id=f"{name}-{seed}-noisy")
    alg = make_algebra([2, 1])
    rng = rng_for(6)
    u = AlgebraElement(alg, [haar_unitary(2, rng), haar_unitary(1, rng)])
    yield pytest.param(conjugation_map(u), id="conjugated")
    yield pytest.param(compose_maps(conjugation_map(u), _transpose_map(alg)), id="conjugated-flip")


@pytest.mark.parametrize("F", list(_unit_system_maps()))
def test_unit_system_defect_matches_the_pair_table(F):
    defect, report = _check_unit_system_defect(F)
    assert (defect <= 1e-7) == (report.kind == "star_homomorphism")


def test_unit_system_defect_keeps_nan():
    # products of entries near 1e200 overflow, and inf - inf is NaN
    from nclp.samples import random_isometry_data

    F = random_isometry_data(9).pi
    assert np.isnan(unit_system_defect(AlgebraMap(F.source, F.target, 1e200 * F.matrix)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=5),
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    st.sampled_from([1e-3, 1.0, 1e3, 1e200]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_the_glimm_defect_is_bitwise_the_per_block_kernel(blocks, targets, scale, nan, seed):
    # blocks of one size taken together give every value of the one-block
    # kernel bit for bit, overflow and NaN included
    from nclp.algebra import _glimm_defect

    source, target = make_algebra(blocks), make_algebra(targets)
    rng = rng_for(seed)
    shape = (target.total_dim, source.total_dim)
    matrix = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if nan:
        matrix[rng.integers(shape[0]), rng.integers(shape[1])] = np.nan
    got = _glimm_defect(source, target, matrix)
    want = glimm_defect_per_block(source, target, matrix)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _frame_embedding(blocks, mults, u):
    """The matrix of x -> u (x_1 (x) 1_mu_1 + ... + x_K (x) 1_mu_K) u* into
    M_N, N = sum n_b mu_b, the copies of x_b placed one after another."""
    N, cols, start = u.shape[0], [], 0
    for n, mu in zip(blocks, mults):
        for i in range(n):
            for j in range(n):
                e = np.zeros((N, N), dtype=complex)
                for r in range(mu):
                    e[start + r * n + i, start + r * n + j] = 1.0
                cols.append((u @ e @ u.conj().T).reshape(-1))
        start += n * mu
    return np.column_stack(cols)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.sampled_from(["exact", "transposed", "noisy"]),
    st.integers(0, 2**32 - 1),
)
def test_unit_system_defect_bounds_on_random_embeddings(blocks, variant, seed):
    # x -> u diag(x_1, .., x_K) u* into M_N, N = sum n_b, then transposed on
    # every source block or moved by seeded noise
    source = make_algebra(blocks)
    N = sum(blocks)
    target = make_algebra([N])
    rng = rng_for(seed)
    matrix = _frame_embedding(blocks, [1] * len(blocks), haar_unitary(N, rng))
    if variant == "transposed":
        matrix = matrix @ transpose_permutation(source)
    elif variant == "noisy":
        noise = rng.standard_normal(matrix.shape) + 1j * rng.standard_normal(matrix.shape)
        matrix = matrix + 1e-6 * noise
    defect, report = _check_unit_system_defect(AlgebraMap(source, target, matrix))
    if variant == "exact":
        assert defect <= 1e-13 and report.kind == "star_homomorphism"


def _layout_map(layout, variant, log_eps, seed):
    """x -> u (x_1 (x) 1_mu_1 + ...) u* into M_N for the (n, mu) layout,
    transposed on every block, or moved by seeded noise of size eps; several
    blocks give cross-block pairs."""
    blocks, mults = [n for n, _ in layout], [mu for _, mu in layout]
    source = make_algebra(blocks)
    N = sum(n * mu for n, mu in layout)
    rng = rng_for(seed)
    matrix = _frame_embedding(blocks, mults, haar_unitary(N, rng))
    if variant == "transposed":
        matrix = matrix @ transpose_permutation(source)
    elif variant == "noisy":
        noise = rng.standard_normal(matrix.shape) + 1j * rng.standard_normal(matrix.shape)
        matrix = matrix + 10.0**log_eps * noise
    return AlgebraMap(source, make_algebra([N]), matrix)


_LAYOUTS = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), min_size=1, max_size=3)
_VARIANTS = st.sampled_from(["exact", "transposed", "noisy"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_LAYOUTS, _VARIANTS, st.floats(-12.0, -4.0), st.integers(0, 2**32 - 1))
def test_the_reverse_bound_holds_against_the_pair_table(layout, variant, log_eps, seed):
    # stage 5's constant C bounds every product of two units by C times the
    # Glimm defect, in exact arithmetic; the computed table and defect each
    # carry rounding, within (D + 4) eps (1 + L)^2 of their exact values by
    # first-order bounds (Higham 3.5 and 4.2), every factor of norm at most
    # L = N_1 K: the allowance rho is four times that
    from nclp.expectation import _unit_product_bound

    F = _layout_map(layout, variant, log_eps, seed)
    table, delta, C = pair_table_kind(F), unit_system_defect(F), _unit_product_bound(F)
    K = float(np.max(np.linalg.norm(F.matrix, axis=0)))
    L = max(F.source.blocks) * K
    D = max(F.source.total_dim, F.target.total_dim)
    rho = 4 * (D + 4) * np.finfo(float).eps * (1 + L) ** 2
    assert table.mult_defect <= C * (delta + rho) + rho
    assert table.star_defect <= delta + 2 * rho
    if variant == "exact":
        assert homomorphism_kind(F).kind == "star_homomorphism"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_LAYOUTS, _VARIANTS, st.floats(-12.0, -4.0), st.integers(0, 2**32 - 1))
def test_the_certificate_decides_as_the_pair_table(layout, variant, log_eps, seed):
    # pi passes stage 2 of classify and IsometryData.validate when its
    # Glimm defect is within the tolerance and it is injective; the table
    # passes it when its mult_defect is.  By the reverse bound the two can
    # differ only where both defects lie within a factor C of the tolerance
    from nclp.expectation import _unit_product_bound
    from nclp.isometry import _is_injective_star_homomorphism

    F = _layout_map(layout, variant, log_eps, seed)
    table, delta, C = pair_table_kind(F), unit_system_defect(F), _unit_product_bound(F)
    tol = max(F.source.atol, F.target.atol)

    def near(x):
        return tol / C <= x <= C * tol

    if not (near(delta) and near(table.mult_defect)):
        passes = _is_injective_star_homomorphism(F)
        assert passes == (table.kind == "star_homomorphism" and table.injective)
    fresh = unit_system_defect(AlgebraMap(F.source, F.target, F.matrix))
    assert np.float64(delta).tobytes() == np.float64(fresh).tobytes()


def test_the_reverse_bound_names_its_constants():
    # one block of M_2 with multiplicity 2: K = sqrt(2), C = 1 + 2K + 2K^2;
    # with a second block of M_1, C_x = K^2 + 2 K C_in (K + 1) is larger
    from nclp.expectation import _unit_product_bound

    u = np.eye(4)
    F = AlgebraMap(make_algebra([2]), make_algebra([4]), _frame_embedding([2], [2], u))
    K = np.sqrt(2.0)
    assert _unit_product_bound(F) == pytest.approx(1 + 2 * K + 2 * K * K)
    F = AlgebraMap(make_algebra([2, 1]), make_algebra([5]), _frame_embedding([2, 1], [2, 1], np.eye(5)))
    c_in = 1 + 2 * K + 2 * K * K
    assert _unit_product_bound(F) == pytest.approx(K * K + 2 * K * c_in * (K + 1))


def test_the_glimm_defect_is_kept(monkeypatch):
    import nclp.algebra as algebra_module
    from nclp.samples import random_isometry_data

    pi = random_isometry_data(3).pi
    matrices = (pi.matrix, 1e200 * pi.matrix)  # the second overflows to NaN
    maps = [AlgebraMap(pi.source, pi.target, m) for m in matrices]
    expected = [algebra_module._glimm_defect(F.source, F.target, F.matrix) for F in maps]
    calls = []
    real = algebra_module._glimm_defect
    monkeypatch.setattr(algebra_module, "_glimm_defect", lambda *a: calls.append(a[2]) or real(*a))
    for F, want in zip(maps, expected):
        got = [unit_system_defect(F) for _ in range(3)]
        assert np.array_equal(got, [want] * 3, equal_nan=True)
    assert [id(m) for m in calls] == [id(F.matrix) for F in maps]
    # a fresh map of the same matrix computes it again
    unit_system_defect(AlgebraMap(pi.source, pi.target, pi.matrix))
    assert len(calls) == 3


def test_the_smallest_singular_value_is_kept(monkeypatch):
    from nclp.samples import random_isometry_data

    pi = random_isometry_data(3).pi
    F = AlgebraMap(pi.source, pi.target, pi.matrix)  # a fresh map, nothing kept yet
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    values = real(F.matrix, compute_uv=False)
    expected, top = float(values[-1]), float(values[0])
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert [F.min_singular_value() for _ in range(3)] == [expected] * 3
    # the largest singular value comes from the same kept SVD
    assert [F.max_singular_value() for _ in range(3)] == [top] * 3
    assert len(calls) == 1 and pi.min_singular_value() == expected
    assert pi.max_singular_value() == top and len(calls) == 1


def _report_bits(report):
    values = (report.star_defect, report.jordan_defect, report.mult_defect, report.injectivity)
    return (report.kind,) + tuple(float(x).hex() for x in values)


def test_the_kind_defects_are_kept_per_map():
    import itertools

    from nclp.samples import random_isometry_data

    pi = random_isometry_data(3).pi
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
    matrices = {
        "exact": pi.matrix,
        "transposed": pi.matrix @ transpose_permutation(pi.source),
        "noisy": pi.matrix + 1e-9 * np.linalg.norm(pi.matrix) / np.linalg.norm(noise) * noise,
    }
    tolerances = (None, 1e-13, 1e3)
    seen = set()
    for name, matrix in matrices.items():
        fresh = {
            tol: _report_bits(homomorphism_kind(AlgebraMap(pi.source, pi.target, matrix), tol))
            for tol in tolerances
        }
        seen |= {bits[0] for bits in fresh.values()}
        for order in itertools.permutations(tolerances):
            F = AlgebraMap(pi.source, pi.target, matrix)
            for tol in order + order:
                assert _report_bits(homomorphism_kind(F, tol)) == fresh[tol], (name, order, tol)
    assert seen == {"star_homomorphism", "jordan_only", "neither"}


def test_the_split_runs_once_per_map(monkeypatch):
    import nclp.algebra as algebra_module
    from nclp.errors import DataInvalid
    from nclp.isometry import IsometryData
    from nclp.samples import transpose_triple
    from nclp.yeadon import build_yeadon_map, jordan_dichotomy_report

    calls = []
    real = algebra_module._split_defects
    monkeypatch.setattr(algebra_module, "_split_defects", lambda F: calls.append(F) or real(F))
    triple, weights = transpose_triple(2)
    J = triple.J
    build_yeadon_map(triple, 3.0, weights)
    assert jordan_dichotomy_report(triple, 3.0, weights).kind == "jordan_only"
    # IsometryData.validate rejects the transpose by its Glimm defect and
    # names the kind from the defects J keeps
    data = IsometryData(J.source, J.target, J, triple.w, None, random_faithful_state(J.source, 0))
    with pytest.raises(DataInvalid, match=r"\(jordan_only\)"):
        data.validate()
    assert calls == [J]
    # a fresh map of the same matrix computes its own
    assert homomorphism_kind(AlgebraMap(J.source, J.target, J.matrix)) == homomorphism_kind(J)
    assert len(calls) == 2


def test_a_nan_split_defect_is_kept(monkeypatch):
    import nclp.algebra as algebra_module
    from nclp.samples import random_isometry_data

    pi = random_isometry_data(0).pi
    F = AlgebraMap(pi.source, pi.target, 1e200 * pi.matrix)  # products overflow to NaN
    calls = []
    real = algebra_module._split_defects
    monkeypatch.setattr(algebra_module, "_split_defects", lambda F: calls.append(F) or real(F))
    for tol in (None, 1e-9, 1.0, np.inf):
        report = homomorphism_kind(F, tol)
        assert np.isnan(report.mult_defect) and np.isnan(report.jordan_defect)
        assert report.kind == report.kind_at(np.inf) == "neither"
    assert calls == [F]


def _jordan_layout(blocks, copies, corner, seed):
    """x -> u (sum over the copies of x_b or x_b^T) u* into M_N, one list
    of flags per source block b (True for a transposed copy), with a zero
    corner of size `corner`; u is a Haar frame."""
    N = sum(n * len(flags) for n, flags in zip(blocks, copies)) + corner
    u = haar_unitary(N, rng_for(seed))
    cols, start = [], 0
    starts = []
    for n, flags in zip(blocks, copies):
        starts.append([start + r * n for r in range(len(flags))])
        start += n * len(flags)
    for n, flags, offsets in zip(blocks, copies, starts):
        for i in range(n):
            for j in range(n):
                e = np.zeros((N, N), dtype=complex)
                for flip, o in zip(flags, offsets):
                    r, c = (j, i) if flip else (i, j)
                    e[o + r, o + c] = 1.0
                cols.append((u @ e @ u.conj().T).reshape(-1))
    return AlgebraMap(make_algebra(blocks), make_algebra([N]), np.column_stack(cols))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.lists(st.booleans(), min_size=1, max_size=2)),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_the_jordan_split_decides_as_the_pair_table(layout, corner, seed):
    # a *-homomorphism plus a *-anti-homomorphism with orthogonal ranges,
    # copy by copy in a Haar frame: the split passes, and the kind is the
    # table's (jordan_only when a block of size 2 or more has a transposed
    # copy, a *-homomorphism otherwise)
    blocks, copies = [n for n, _ in layout], [flags for _, flags in layout]
    F = _jordan_layout(blocks, copies, corner, seed)
    report = homomorphism_kind(F)
    assert report.jordan_defect <= 1e-12
    assert report.kind == pair_table_kind(F).kind
    flipped = any(n >= 2 and any(flags) for n, flags in zip(blocks, copies))
    assert report.kind == ("jordan_only" if flipped else "star_homomorphism")


def test_the_split_defect_is_linear_in_the_noise():
    F = _jordan_layout([3], [[False, True, False]], 0, 4)
    noise = rng_for(5).standard_normal(F.matrix.shape) * (1 + 1j)
    ratios = []
    for eps in (1e-10, 1e-8, 1e-6):
        moved = AlgebraMap(F.source, F.target, F.matrix + eps * noise)
        ratios.append(homomorphism_kind(moved).jordan_defect / eps)
    assert max(ratios) <= 1.01 * min(ratios) and min(ratios) > 0.1


def test_positive_maps_that_are_not_jordan_are_neither():
    # the diagonal expectation on M_3 and the trace state fail the split
    alg = make_algebra([3])
    diag = map_from_callable(
        alg, alg, lambda x: AlgebraElement(alg, [np.diag(np.diag(x.data[0]))])
    )
    trace = map_from_callable(
        alg, make_algebra([1]), lambda x: AlgebraElement(make_algebra([1]), [[[x.trace() / 3]]])
    )
    for F in (diag, trace):
        report = homomorphism_kind(F)
        assert report.kind == pair_table_kind(F).kind == "neither"
        assert report.jordan_defect > 0.1


_VIEWS = {
    "c": lambda b: b,
    "transposed": lambda b: b.T,
    "adjoint": lambda b: b.conj().T,
    "strided": lambda b: np.repeat(b, 2, axis=1)[:, ::2],
}


@st.composite
def _frobenius_blocks(draw):
    """Blocks of a random layout filled with Gaussian entries, zeros, a NaN
    or an infinite entry, or entries whose squares sum near the float max,
    each with the view it is read through."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in sizes:
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fill = draw(st.sampled_from(["gaussian", "zero", "nan", "inf", "near_max"]))
        if fill == "zero":
            b[:] = 0.0
        elif fill in ("nan", "inf"):
            value = draw(st.sampled_from([1.0, -1.0, 1j, -1j])) * {"nan": np.nan, "inf": np.inf}[fill]
            b[rng.integers(n), rng.integers(n)] = value
        elif fill == "near_max":
            b *= 2.0 ** draw(st.integers(505, 512)) / n
        blocks.append((b, draw(st.sampled_from(sorted(_VIEWS)))))
    return blocks


def _same_float(got, want) -> bool:
    """Equal bytes, or both NaN."""
    return np.isnan(got) and np.isnan(want) or np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_frobenius_blocks())
def test_the_frobenius_norm_is_bitwise_the_norm_oracle(drawn):
    """_frobenius, AlgebraElement.frobenius and the stacked form repeat
    np.linalg.norm's arithmetic: its dots in memory order, its root, the
    square by libm pow (which differs from x * x about once in a thousand
    squares, hence the scaled copies), the sum over blocks from 0; inf and
    NaN included."""
    from nclp.algebra import _frobenius, _stacked_frobenius

    alg = make_algebra([b.shape[0] for b, _ in drawn])
    scales = 1.0 + np.arange(32) / 8
    with np.errstate(over="ignore", invalid="ignore"):
        for c in scales:
            blocks = [_VIEWS[view](c * b) for b, view in drawn]
            want = frobenius_by_norm(blocks)
            assert _same_float(_frobenius(blocks), want)
            # an element keeps an F-ordered block F-ordered, and its adjoint
            # and transpose are views of the other order
            x = AlgebraElement(alg, blocks)
            assert _same_float(x.frobenius(), want)
            for y in (x.adjoint(), x.transpose(), AlgebraElement._raw(alg, blocks)):
                assert _same_float(y.frobenius(), frobenius_by_norm(y.data))
        stacks = [np.array([c * b for c in scales]) for b, _ in drawn]
        for r, got in enumerate(_stacked_frobenius(stacks)):
            assert _same_float(got, frobenius_by_norm([S[r] for S in stacks]))
