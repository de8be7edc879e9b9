import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nclp.expectation as expectation_module
from nclp.algebra import (
    AlgebraElement,
    AlgebraMap,
    State,
    apply_left,
    make_algebra,
    matrix_units,
    random_faithful_state,
    transpose_order,
)
from dense_oracles import (
    bad_idempotents as _bad_idempotents,
    certify_expectation_by_generators,
    construct_by_gram_solve,
    decomposition_coordinates,
    edge_bases,
    support_corner_by_elements,
    unit_by_elements,
    validate_by_pairs,
)
from nclp.errors import DataInvalid, ExponentUnsupported, NonFaithful, NotInvariant
from nclp.expectation import (
    BlockDecomposition,
    Subalgebra,
    _certify_expectation,
    _closed_form,
    _gaussian,
    _positivity_samples,
    _power_product_norm,
    complement_projection,
    construct_expectation,
    interpolation_gap,
    lp_expectation,
    lp_inclusion,
    restrict_state,
    takesaki_invariant,
)
from nclp.isometry import build_isometry, classify
from nclp.lp import LpVector, amplify_map, lp_norm, state_power, trace_pairing
from nclp.samples import (
    diagonal_subalgebra,
    random_element,
    random_invariant_inclusion,
    random_isometry_data,
    random_lp_vector,
    random_noninvariant_inclusion,
    rng_for,
)

M2 = make_algebra([2])

# the instance plans of the benchmark workloads: (source blocks, target plan)
BENCH_PLANS = {
    "P2": ((2,), [([(0, 1)], 2)]),
    "P3": ((3,), [([(0, 1)], 2)]),
    "P4": ((4,), [([(0, 1)], 2)]),
    "M1": ((2, 1), [([(0, 2), (1, 1)], 1), ([(0, 1)], 1)]),
    "M2": ((3,), [([(0, 2)], 0)]),
}


def _plan_data(name, seed=0):
    source, plan = BENCH_PLANS[name]
    return random_isometry_data(seed, source, plan=plan)


def _full_subalgebra(alg):
    return Subalgebra(alg, matrix_units(alg), validate=False)


def test_takesaki_diagonal_cases():
    A = diagonal_subalgebra(M2)
    diag_state = State(M2, [np.diag([0.6, 0.4])])
    res = takesaki_invariant(A, diag_state)
    assert res.invariant and res.defect < 1e-12

    off = np.array([[0.6, 0.2], [0.2, 0.4]])
    res_off = takesaki_invariant(A, State(M2, [off]))
    assert not res_off.invariant
    assert res_off.defect > 1e-3

    full = _full_subalgebra(M2)
    assert takesaki_invariant(full, State(M2, [off])).invariant


def test_construct_expectation_diagonal_oracle():
    A = diagonal_subalgebra(M2)
    phibar = State(M2, [np.diag([0.6, 0.4])])
    E = construct_expectation(A, phibar)
    rng = rng_for(2)
    for _ in range(10):
        x = random_element(M2, rng)
        expected = np.diag(np.diag(x.data[0]))
        assert np.allclose(E(x).data[0], expected, atol=1e-12)


def test_construct_expectation_trivial_cases():
    phibar = random_faithful_state(M2, 3)
    E_full = construct_expectation(_full_subalgebra(M2), phibar)
    assert np.allclose(E_full.map.matrix, np.eye(4), atol=1e-10)

    scalars = Subalgebra(M2, [AlgebraElement.identity(M2)], validate=False)
    E_sc = construct_expectation(scalars, phibar)
    rng = rng_for(4)
    for _ in range(10):
        x = random_element(M2, rng)
        expected = phibar(x) * np.eye(2)
        assert np.allclose(E_sc(x).data[0], expected, atol=1e-10)


def test_construct_expectation_requires_invariance():
    A = diagonal_subalgebra(M2)
    off = State(M2, [np.array([[0.6, 0.2], [0.2, 0.4]])])
    with pytest.raises(NotInvariant) as err:
        construct_expectation(A, off)
    assert err.value.defect > 1e-3


def test_singular_state_outside_corner_is_rejected():
    from nclp.errors import NonFaithful

    singular = State(M2, [np.diag([1.0, 0.0])])
    full = _full_subalgebra(M2)
    with pytest.raises(NonFaithful):
        takesaki_invariant(full, singular)
    with pytest.raises(NonFaithful):
        construct_expectation(full, singular)
    # a subalgebra inside the support corner is fine: scalars of the corner
    corner_unit = AlgebraElement(M2, [np.diag([1.0, 0.0])])
    corner = Subalgebra(M2, [corner_unit], validate=False)
    res = takesaki_invariant(corner, singular)
    assert res.invariant


def _takesaki_defect_per_element(A, state):
    """Reference: the largest span residual of [log rho, a], one basis
    element a at a time."""
    L = state.log_pseudo()
    return max(A.span_residual(L @ a - a @ L) for a in A.basis)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_takesaki_invariant_matches_the_per_element_loop(seed):
    moved = random_noninvariant_inclusion(seed)
    kept = random_invariant_inclusion(seed)
    for A, state in (moved, kept):
        got = takesaki_invariant(A, state).defect
        # one matrix identity against a loop: equal up to summation order
        assert abs(got - _takesaki_defect_per_element(A, state)) <= 1e-12
    assert not takesaki_invariant(*moved).invariant and takesaki_invariant(*kept).invariant


def test_takesaki_invariant_keeps_a_nan(monkeypatch):
    A, state = random_invariant_inclusion(0)
    real = State.log_pseudo
    monkeypatch.setattr(State, "log_pseudo", lambda self: real(self) * np.nan)
    res = takesaki_invariant(A, state)
    assert np.isnan(res.defect) and not res.invariant


def test_expectation_invariants_tight():
    for seed in range(6):
        A, phibar = random_invariant_inclusion(seed)
        E = construct_expectation(A, phibar)
        M = E.map.matrix
        assert np.max(np.abs(M @ M - M)) < 1e-9
        units = matrix_units(A.parent)
        for u in units:
            assert abs(phibar(E(u)) - phibar(u)) < 1e-9
        for a in A.basis:
            assert (E(a) - a).frobenius() < 1e-9
        rng = rng_for(seed + 1)
        for _ in range(5):
            g = random_element(A.parent, rng)
            pos = E(g @ g.adjoint())
            low = min(float(np.linalg.eigvalsh(b).min()) for b in pos.data)
            assert low > -1e-9
        one = AlgebraElement.identity(A.parent)
        assert (E(one) - A.unit).frobenius() < 1e-9
        for a in A.basis:
            for b in A.basis:
                x = random_element(A.parent, rng)
                assert (E(a @ x @ b) - a @ E(x) @ b).frobenius() < 1e-8


def _oracle_certificate(M, A, state):
    """The certificate as per-element loops: the first failing check's
    message, or None.  Kept as an independent oracle for the matrix
    identities of _certify_expectation."""
    parent = A.parent
    check_tol = 1e-7 * max(1, parent.total_dim)

    def E(x):
        return AlgebraElement.from_vec(parent, M @ x.vec())

    if not np.max(np.abs(M @ M - M)) <= check_tol:
        return "expectation is not idempotent"
    for a in A.basis:
        if not (E(a) - a).frobenius() <= check_tol * max(1.0, a.frobenius()):
            return "expectation does not fix the subalgebra"
    units = matrix_units(parent)
    for u in units:
        if not abs(state(E(u)) - state(u)) <= check_tol:
            return "expectation does not preserve the state"
    # a or b the parent's unit gives the one-sided identities, which the
    # two-sided one does not imply when the subalgebra's unit is not 1
    sides = (*A.basis, AlgebraElement.identity(parent))
    for a in sides:
        for b in sides:
            for u in units:
                defect = (E(a @ u @ b) - a @ E(u) @ b).frobenius()
                if not defect <= check_tol * max(1.0, a.frobenius() * b.frobenius()):
                    return "expectation is not a module map"
    return None


def _certificate_message(M, A, state):
    try:
        _certify_expectation(M, A, state)
    except NotInvariant as err:
        return str(err)
    return None


@pytest.mark.parametrize("seed", range(8))
def test_certificate_agrees_with_loop_oracle(seed):
    # one seed per random_invariant_inclusion menu layout
    A, phibar = random_invariant_inclusion(seed)
    E = construct_expectation(A, phibar)
    assert _oracle_certificate(E.map.matrix, A, phibar) is None
    if A.dim < 2:
        return  # scalars: the span has no state-free part to perturb along
    bad = _bad_idempotents(E.map.matrix, A, phibar, rng_for(seed + 300))
    for M, message in bad.values():
        assert _oracle_certificate(M, A, phibar) == message
        assert _certificate_message(M, A, phibar) == message


@pytest.mark.parametrize("name", sorted(BENCH_PLANS))
def test_generator_certificate_agrees_with_the_full_basis_oracle(name):
    # the module identities run on the star units of the pi image only; each
    # perturbation, the module breaker on the state-free part included, must
    # fail there with the message of the full-basis loop oracle
    E = _plan_data(name).expectation
    A, M = E.subalgebra, E.map.matrix
    blocks = A.decomposition.algebra.blocks
    assert len(A.generators) == 2 * sum(n - 1 for n in blocks) + len(blocks) < A.dim
    assert _oracle_certificate(M, A, E.state) is None
    assert _certificate_message(M, A, E.state) is None
    bad = _bad_idempotents(M, A, E.state, rng_for(sorted(BENCH_PLANS).index(name) + 500))
    for M_bad, message in bad.values():
        assert _oracle_certificate(M_bad, A, E.state) == message
        assert _certificate_message(M_bad, A, E.state) == message


def test_the_image_certificate_rejects_a_perturbed_non_generator():
    data = _plan_data("P3")
    P = np.array(data.pi.matrix)
    # column 5 is e_12 of M_3, no generator: it must be the product f_10 f_02
    rng = rng_for(41)
    P[:, 5] += 1e-3 * (rng.standard_normal(P.shape[0]) + 1j * rng.standard_normal(P.shape[0]))
    altered = AlgebraMap(data.pi.source, data.pi.target, P)
    kept = Subalgebra.from_map_image(data.pi)
    assert kept.decomposition.embed is data.pi
    with pytest.raises(DataInvalid, match="not a system of matrix units"):
        Subalgebra.from_map_image(altered)


def test_classify_rejects_an_image_that_fails_its_certificate(monkeypatch):
    data = _plan_data("P3")
    T = build_isometry(data, 3.0)
    assert classify(T, data.reference_state, 3.0).accepted
    monkeypatch.setattr(expectation_module, "unit_system_defect", lambda F: 1.0)
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "expectation"
    assert "invariance" not in report.defects


def test_the_module_identities_run_once_per_generator(monkeypatch):
    calls = []

    def counting(side, real):
        def apply(a, X):
            calls.append((side, a.vec(), X))
            return real(a, X)

        return apply

    for side in ("apply_left", "apply_right"):
        real = getattr(expectation_module, side)
        monkeypatch.setattr(expectation_module, side, counting(side, real))
    # each generator column enters each side's identity twice: as it is
    # against M for L_a M or R_a M, and transposed against M^T for M L_a or
    # M R_a; the left side for every generator first, then the right; never
    # the full basis.  pi images and general inclusions alike: the star
    # units of the factors
    cases = []
    for name in sorted(BENCH_PLANS):
        E = _plan_data(name).expectation
        cases.append((E.subalgebra, E.map.matrix, E.state))
    for seed in range(8):
        A, phibar = random_invariant_inclusion(seed)
        cases.append((A, construct_expectation(A, phibar).map.matrix, phibar))
    for A, M, state in cases:
        G, k = A.generator_columns, len(A.generators)
        calls.clear()
        _certify_expectation(M, A, state)
        assert [side for side, _, _ in calls] == ["apply_left"] * 2 * k + ["apply_right"] * 2 * k
        for side in ("apply_left", "apply_right"):
            plain = [v for s, v, X in calls if s == side and X is M]
            turned = [(v, X) for s, v, X in calls if s == side and X is not M]
            assert np.array_equal(np.column_stack(plain), G)
            flipped = np.column_stack([v for v, _ in turned])
            assert np.array_equal(flipped, G[transpose_order(A.parent)])
            assert all(np.array_equal(X, M.T) for _, X in turned)


def _certificate_cases():
    """The pi images of random_isometry_data seeds 0-11 and the
    random_invariant_inclusion layouts of seeds 0-7, each with its
    expectation matrix, state and a perturbation seed."""
    for seed in range(12):
        E = random_isometry_data(seed).expectation
        yield f"pi_image({seed})", E.subalgebra, E.map.matrix, E.state, seed + 700
    for seed in range(8):
        A, phibar = random_invariant_inclusion(seed)
        M = construct_expectation(A, phibar).map.matrix
        yield f"inclusion({seed})", A, M, phibar, seed + 300


def _oracle_message(M, A, state):
    try:
        certify_expectation_by_generators(M, A, state)
    except NotInvariant as err:
        return str(err)
    return None


def test_the_certificate_raises_the_generator_loops_message():
    # every perturbation, and NaN or inf entries, fail with the message of
    # the per-generator loop oracle
    for name, A, M, state, rng_seed in _certificate_cases():
        assert _oracle_message(M, A, state) is None, name
        assert _certificate_message(M, A, state) is None, name
        # scalars have no state-free part to perturb along, and for A the
        # whole algebra M = 1 is the only idempotent onto A
        perturb = 1 < A.dim < A.parent.total_dim
        variants = _bad_idempotents(M, A, state, rng_for(rng_seed)) if perturb else {}
        for key, (M_bad, message) in variants.items():
            assert _oracle_message(M_bad, A, state) == message, (name, key)
            assert _certificate_message(M_bad, A, state) == message, (name, key)
        for bad in (np.nan, np.inf):
            broken = np.array(M)
            broken[3 % M.shape[0], 5 % M.shape[0]] = bad
            with np.errstate(invalid="ignore"):
                want = _oracle_message(broken, A, state)
                assert want == "expectation is not idempotent", (name, bad)
                assert _certificate_message(broken, A, state) == want, (name, bad)


def test_positivity_samples_are_the_seeded_draws():
    A, _ = random_invariant_inclusion(5)
    parent = A.parent
    samples, scales = _positivity_samples(parent)
    # bitwise the draws of one fresh stream, in order
    rng = np.random.default_rng(expectation_module._DECOMP_SEED)
    for col, scale in zip(samples.T, scales):
        g_blocks = [g @ g.conj().T for g in _gaussian(parent, rng)]
        assert np.array_equal(col, AlgebraElement(parent, g_blocks).vec())
        assert scale == max(1.0, max(np.linalg.norm(b) for b in g_blocks))
    assert samples.shape == (parent.total_dim, 5)
    # an equal algebra, as read from JSON, draws the same samples again
    again, again_scales = _positivity_samples(make_algebra(list(parent.blocks)))
    assert np.array_equal(again, samples) and np.array_equal(again_scales, scales)


def test_the_positivity_check_reads_every_sample_and_block(monkeypatch):
    # no identity breaker reaches the positivity check, so feed it samples:
    # E = 1 onto the full algebra passes every identity, and a sample fails
    # exactly when it has a negative eigenvalue in some block, at any place
    # among the samples
    parent = make_algebra([2, 1])
    A, state = _full_subalgebra(parent), random_faithful_state(parent, 5)
    M = np.eye(parent.total_dim, dtype=complex)
    one = AlgebraElement.identity(parent).vec()
    last = one * np.where(np.arange(parent.total_dim) == parent.total_dim - 1, -1, 1)
    cases = [([one, one], False), ([one, -one], True), ([last, one], True), ([one, last], True)]
    for columns, fails in cases:
        samples = np.column_stack(columns)
        monkeypatch.setattr(
            expectation_module, "_positivity_samples", lambda algebra: (samples, np.ones(2))
        )
        message = _certificate_message(M, A, state)
        assert message == ("expectation is not positive on samples" if fails else None)


def test_the_support_check_matches_the_per_element_loop():
    # pi images with their expectation's state, often singular, pass; a
    # state of rank one in the first block cuts every image and inclusion
    images = (random_isometry_data(seed).expectation for seed in range(12))
    cases = [(E.subalgebra, E.state) for E in images]
    cases += [random_invariant_inclusion(seed) for seed in range(8)]
    outcomes = []
    for A, state in cases:
        rng = rng_for(A.dim)
        blocks = [b @ b.conj().T for b in random_element(A.parent, rng).data]
        blocks[0] = np.outer(blocks[0][:, 0], blocks[0][:, 0].conj())
        cut = State(A.parent, blocks, normalize=True)
        for st in (state, cut):
            if st.faithful:
                continue
            try:
                support_corner_by_elements(A, st)
            except NonFaithful as err:
                with pytest.raises(NonFaithful, match=str(err)):
                    takesaki_invariant(A, st)
                outcomes.append("cut")
            else:
                takesaki_invariant(A, st)
                outcomes.append("inside")
    assert outcomes.count("inside") == 7 and outcomes.count("cut") == 20
    # spans not closed under adjoints leave the corner on one side only
    corner = State(M2, [np.diag([1.0, 0.0])])
    for unit in ([[0, 1], [0, 0]], [[0, 0], [1, 0]]):
        A = Subalgebra(M2, [AlgebraElement(M2, [np.array(unit, dtype=complex)])], validate=False)
        for check in (support_corner_by_elements, takesaki_invariant):
            with pytest.raises(NonFaithful, match="leaves its support corner"):
                check(A, corner)


@pytest.mark.parametrize("make", ["pi_image", "split_inclusion"])
def test_the_center_builds_no_full_svd(monkeypatch, make):
    # no SVD of the generic pass builds a U wider than the subalgebra
    if make == "pi_image":
        A = _plain_copy(Subalgebra.from_map_image(_plan_data("P3").pi))
    else:
        A, _ = random_invariant_inclusion(4)
    real = np.linalg.svd

    def refusing(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        if kwargs.get("compute_uv", True) and out[0].shape[-1] > A.dim:
            raise AssertionError(f"an SVD built a U with {out[0].shape[-1]} columns")
        return out

    monkeypatch.setattr(np.linalg, "svd", refusing)
    dec = A.decomposition
    assert sum(m * m for m in dec.algebra.blocks) == A.dim


def test_returned_map_matrices_are_c_contiguous():
    data = random_isometry_data(1)  # a non-positive w
    E = data.expectation
    maps = [
        build_isometry(data, 3.0),
        lp_inclusion(E.subalgebra, E, 3.0),
        complement_projection(data, 3.0),
    ]
    for T in maps:
        assert T.matrix.flags.c_contiguous


def test_certificate_rejects_nan():
    A, phibar = random_invariant_inclusion(4)
    M = np.array(construct_expectation(A, phibar).map.matrix)
    assert _certificate_message(M, A, phibar) is None
    for bad in (np.nan, np.inf):
        M[3, 5] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NotInvariant):
            _certify_expectation(M, A, phibar)


def test_expectation_unique_under_basis_order():
    A, phibar = random_invariant_inclusion(3)
    E1 = construct_expectation(A, phibar)
    reordered = Subalgebra(A.parent, list(A.basis)[::-1], validate=False)
    E2 = construct_expectation(reordered, phibar)
    assert np.max(np.abs(E1.map.matrix - E2.map.matrix)) < 1e-10


def test_subalgebra_validation_rejects_non_closed_span():
    e12 = AlgebraElement(M2, [np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(DataInvalid):
        Subalgebra(M2, [AlgebraElement.identity(M2), e12], validate=True)


@pytest.mark.parametrize(
    "seed,factors,mults",
    [(0, (1, 1), (1, 1)), (4, (2, 2), (1, 1)), (5, (2,), (2,)), (6, (1,), (2,))],
)
def test_block_decomposition_shapes(seed, factors, mults):
    A, _ = random_invariant_inclusion(seed)
    dec = A.decomposition
    assert dec.algebra.blocks == factors
    assert dec.multiplicities == mults


def test_block_decomposition_coordinates_roundtrip():
    A, _ = random_invariant_inclusion(4)
    dec = A.decomposition
    rng = rng_for(11)
    x_small = random_element(dec.algebra, rng)
    back = decomposition_coordinates(dec, dec.embed(x_small))
    assert (back - x_small).frobenius() < 1e-10


def _rebased(A, seed):
    """A with its basis reversed, and with a seeded invertible mix of it."""
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((A.dim, A.dim)) + 1j * rng.standard_normal((A.dim, A.dim))
    B = np.column_stack([a.vec() for a in A.basis]) @ mix
    yield Subalgebra(A.parent, list(A.basis)[::-1], validate=False)
    yield Subalgebra(A.parent, [AlgebraElement.from_vec(A.parent, c) for c in B.T], validate=False)


def _plain_copy(A):
    """A with its basis alone, so its decomposition is the generic pass."""
    return Subalgebra(A.parent, A.basis, validate=False)


def _assert_same_decomposition(A, B):
    want, got = A.decomposition, B.decomposition
    assert got.algebra == want.algebra and got.multiplicities == want.multiplicities
    assert np.max(np.abs(got.embed.matrix - want.embed.matrix)) < 1e-10


@pytest.mark.parametrize(
    "make",
    [random_invariant_inclusion, random_noninvariant_inclusion],
    ids=["invariant", "noninvariant"],
)
def test_decomposition_depends_only_on_the_span(make):
    for seed in range(16):
        A = make(seed)[0]
        for B in _rebased(A, seed):
            _assert_same_decomposition(A, B)


def _central_projections(dec):
    """The columns embed(1_k), one per factor."""
    layout = zip(dec.algebra.offsets(), dec.algebra.blocks)
    return [dec.embed.matrix[:, off : off + n * n : n + 1].sum(axis=1) for off, n in layout]


@pytest.mark.parametrize("seed", range(12))
def test_the_generic_pass_agrees_with_pi_on_images(seed):
    # the image carries pi as its decomposition; a plain-basis copy runs the
    # generic pass, which may order the factors differently but must find
    # the same factors, multiplicities and central projections
    data = random_isometry_data(seed)
    image = data.expectation.subalgebra
    plain = _plain_copy(image)
    dec, generic = image.decomposition, plain.decomposition
    assert dec.embed is data.pi
    assert sorted(zip(dec.algebra.blocks, dec.multiplicities)) == sorted(
        zip(generic.algebra.blocks, generic.multiplicities)
    )
    centers = _central_projections(generic)
    for c in _central_projections(dec):
        assert sum(np.max(np.abs(c - g)) < 1e-10 for g in centers) == 1
    expectation = dataclasses.replace(data.expectation, subalgebra=plain)
    plain_data = dataclasses.replace(data, expectation=expectation)
    for p in (1.0, 3.0):
        P, Q = complement_projection(data, p).matrix, complement_projection(plain_data, p).matrix
        assert np.max(np.abs(P - Q)) < 1e-10
    for B in _rebased(plain, seed):
        _assert_same_decomposition(plain, B)


def test_decomposition_rejects_a_span_that_is_no_algebra():
    e12 = AlgebraElement(M2, [np.array([[0, 1], [0, 0]], dtype=complex)])
    A = Subalgebra(M2, [AlgebraElement.identity(M2), e12], validate=False)
    with pytest.raises(DataInvalid, match="factor decomposition"):
        A.decomposition


LADDER_144 = ((10,), [([(0, 1)], 2)])  # M_10 into M_12, D = 144


def test_ladder_decomposition_takes_no_svd_taller_than_the_parent(monkeypatch):
    source, plan = LADDER_144
    data = random_isometry_data(0, source, plan=plan)
    A = _plain_copy(Subalgebra.from_map_image(data.pi))
    D, real = A.parent.total_dim, np.linalg.svd

    def refusing(a, *args, **kwargs):
        if np.shape(a)[-2] > D:
            raise AssertionError(f"an SVD of {np.shape(a)[-2]} rows, above D = {D}")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refusing)
    dec = A.decomposition
    assert dec.algebra.blocks == (10,) and dec.multiplicities == (1,)


def test_ladder_complement_projection_is_a_projection_onto_the_range():
    source, plan = LADDER_144
    data = random_isometry_data(0, source, plan=plan)
    P = complement_projection(data, 3).matrix
    T = build_isometry(data, 3).matrix
    assert np.max(np.abs(P @ P - P)) < 1e-9
    assert np.max(np.abs(P @ T - T)) < 1e-9


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_ladder_complement_projection_runs_no_generic_pass(monkeypatch):
    # the image carries pi as its decomposition, so no spectral pass runs
    source, plan = LADDER_144
    data = random_isometry_data(0, source, plan=plan)
    monkeypatch.setattr(expectation_module, "_block_decomposition", _refuse)
    P = complement_projection(data, 3).matrix
    assert np.max(np.abs(P @ P - P)) < 1e-9


def test_the_generic_pass_calls_no_homomorphism_kind(monkeypatch):
    # the decomposition is certified by Glimm's identities, not the pair table
    import nclp.algebra as algebra_module

    source, plan = LADDER_144
    A = _plain_copy(random_isometry_data(0, source, plan=plan).expectation.subalgebra)
    for module in (algebra_module, expectation_module):
        monkeypatch.setattr(module, "homomorphism_kind", _refuse, raising=False)
    dec = A.decomposition
    assert dec.algebra.blocks == (10,) and dec.multiplicities == (1,)


def _fidelity_cases():
    for name in sorted(BENCH_PLANS):
        yield pytest.param(name, 0, id=name)
    for seed in range(1, 6):
        yield pytest.param("M1", seed, id=f"M1-{seed}")


@pytest.mark.parametrize("name, seed", list(_fidelity_cases()))
def test_the_isometry_is_w_times_the_lp_inclusion(name, seed):
    # the paper's formula T = w iota_p, with iota_p the inclusion of L_p of
    # pi(M) at the reference state of M: it needs the image's factors in
    # the source order of pi
    data = _plan_data(name, seed)
    E = data.expectation
    rho_A = restrict_state(E.subalgebra, E.state)
    assert (rho_A.density - data.reference_state.density).frobenius() <= 1e-7
    for p in (1.0, 1.5, 3.0):
        iota = lp_inclusion(E.subalgebra, E, p)
        T = build_isometry(data, p).matrix
        assert np.max(np.abs(apply_left(data.w, iota.matrix) - T)) < 1e-10


def test_restrict_state_is_state():
    for seed in range(5):
        A, phibar = random_invariant_inclusion(seed)
        rho_A = restrict_state(A, phibar)
        assert abs(rho_A.density.trace() - 1.0) < 1e-10
        assert rho_A.faithful


def test_lp_inclusion_identity_case():
    A = _full_subalgebra(M2)
    phibar = random_faithful_state(M2, 5)
    E = construct_expectation(A, phibar)
    iota = lp_inclusion(A, E, 3.0)
    # the embedding of the full algebra onto itself only permutes factor
    # labels; norms and the reference vector are preserved exactly
    rho_A = restrict_state(A, phibar)
    assert (iota(state_power(rho_A, 1 / 3)) - state_power(phibar, 1 / 3)).frobenius() < 1e-9


def test_lp_inclusion_refuses_an_exponent_below_one():
    A = _full_subalgebra(M2)
    E = construct_expectation(A, random_faithful_state(M2, 5))
    for p in (0.5, np.inf):
        with pytest.raises(ExponentUnsupported):
            lp_inclusion(A, E, p)


def test_lp_inclusion_reference_vector_and_isometry():
    for seed in (0, 3, 5):
        A, phibar = random_invariant_inclusion(seed)
        E = construct_expectation(A, phibar)
        rho_A = restrict_state(A, phibar)
        for p in (1.0, 3.0):
            iota = lp_inclusion(A, E, p)
            assert (iota(state_power(rho_A, 1 / p)) - state_power(phibar, 1 / p)).frobenius() < 1e-9
            rng = rng_for(seed + 100)
            for _ in range(10):
                h = random_lp_vector(A.decomposition.algebra, p, rng)
                assert abs(lp_norm(iota(h)) - lp_norm(h)) < 1e-9 * max(1, lp_norm(h))


def test_lp_inclusion_completely_isometric_and_positive():
    A, phibar = random_invariant_inclusion(4)
    E = construct_expectation(A, phibar)
    iota = lp_inclusion(A, E, 3.0)
    big = amplify_map(iota, 2)
    rng = rng_for(42)
    for _ in range(10):
        H = random_lp_vector(big.source, 3.0, rng)
        assert abs(lp_norm(big(H)) - lp_norm(H)) < 1e-9 * max(1, lp_norm(H))
    for _ in range(5):
        g = random_element(A.decomposition.algebra, rng)
        pos = iota(LpVector.from_element(g @ g.adjoint(), 3.0))
        low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in pos.data)
        assert low > -1e-10


def test_lp_expectation_pairing_and_retraction():
    for seed in (1, 4):
        A, phibar = random_invariant_inclusion(seed)
        E = construct_expectation(A, phibar)
        for p in (1.5, 3.0):
            pp = p / (p - 1)
            Ep = lp_expectation(E, p)
            iota_p = lp_inclusion(A, E, p)
            iota_pp = lp_inclusion(A, E, pp)
            rng = rng_for(seed + 50)
            for _ in range(10):
                h = random_lp_vector(A.parent, p, rng)
                k = random_lp_vector(A.decomposition.algebra, pp, rng)
                lhs = trace_pairing(Ep(h), k)
                rhs = trace_pairing(h, iota_pp(k))
                assert abs(lhs - rhs) < 1e-9 * max(1, abs(lhs))
            # retraction and idempotence of the composite
            assert np.max(np.abs(Ep.matrix @ iota_p.matrix - np.eye(iota_p.source.total_dim))) < 1e-9
            comp = iota_p.matrix @ Ep.matrix
            assert np.max(np.abs(comp @ comp - comp)) < 1e-9


def test_lp_expectation_contraction_and_reference_vector():
    A, phibar = random_invariant_inclusion(2)
    E = construct_expectation(A, phibar)
    p = 3.0
    Ep = lp_expectation(E, p)
    rho_A = restrict_state(A, phibar)
    assert (Ep(state_power(phibar, 1 / p)) - state_power(rho_A, 1 / p)).frobenius() < 1e-9
    rng = rng_for(31)
    for _ in range(200):
        h = random_lp_vector(A.parent, p, rng)
        assert lp_norm(Ep(h)) <= lp_norm(h) * (1 + 1e-10)


def test_lp_expectation_identity_case():
    A = _full_subalgebra(M2)
    phibar = random_faithful_state(M2, 8)
    E = construct_expectation(A, phibar)
    Ep = lp_expectation(E, 3.0)
    iota = lp_inclusion(A, E, 3.0)
    assert np.max(np.abs((iota.matrix @ Ep.matrix) - np.eye(4))) < 1e-9


def test_complement_projection():
    from nclp.isometry import build_isometry

    for seed in (1, 3):
        data = random_isometry_data(seed)
        p = 3.0
        T = build_isometry(data, p)
        P = complement_projection(data, p)
        rng = rng_for(seed)
        for _ in range(10):
            h = random_lp_vector(data.source, p, rng)
            assert (P(T(h)) - T(h)).frobenius() < 1e-8 * max(1, T(h).frobenius())
        assert np.max(np.abs(P.matrix @ P.matrix - P.matrix)) < 1e-8
        for _ in range(20):
            k = random_lp_vector(data.target, p, rng)
            assert lp_norm(P(k)) <= lp_norm(k) * (1 + 1e-9)


def test_complement_projection_positive_case_drops_w():
    data = random_isometry_data(0)
    p = 3.0
    E = data.expectation
    P = complement_projection(data, p)
    iota = lp_inclusion(E.subalgebra, E, p)
    Ep = lp_expectation(E, p)
    assert np.max(np.abs(P.matrix - iota.matrix @ Ep.matrix)) < 1e-10


def test_interpolation_inequality_and_equality_split():
    # invariant inclusion: equality for every sample; noninvariant: the
    # inequality holds and a strict gap exists somewhere
    A, phibar = random_invariant_inclusion(1)
    rng = rng_for(3)
    small = A.decomposition.algebra
    for p in (2.0, 3.0, 4.0):
        for _ in range(20):
            x = random_element(small, rng)
            gap = interpolation_gap(A, phibar, x, p)
            assert abs(gap) < 1e-9 * max(1, x.frobenius())

    B, psi = random_noninvariant_inclusion(2)
    smallB = B.decomposition.algebra
    best = 0.0
    for _ in range(200):
        x = random_element(smallB, rng)
        gap = interpolation_gap(B, psi, x, 4.0)
        assert gap > -1e-10
        best = max(best, gap)
    assert best > 1e-3


def test_interpolation_gap_takes_its_norms_at_p(monkeypatch):
    # 1 / (1 / 49) is 49.00000000000001; both norms are taken at exactly 49
    import nclp.lp as lp_module

    seen = []
    kernel = lp_module._grouped_norms

    def recorded(svals, p, weights=None):
        seen.append(p)
        return kernel(svals, p, weights)

    monkeypatch.setattr(lp_module, "_grouped_norms", recorded)
    A, phibar = random_invariant_inclusion(1)
    x = random_element(A.decomposition.algebra, rng_for(5))
    gap = interpolation_gap(A, phibar, x, 49.0)
    assert seen == [49.0, 49.0]
    assert abs(gap) < 1e-9 * max(1, x.frobenius())


def test_interpolation_gap_makes_one_svd_call_per_norm(monkeypatch):
    A, phibar = random_invariant_inclusion(2)
    x = random_element(A.decomposition.algebra, rng_for(6))
    assert (A.decomposition.algebra.blocks, A.parent.blocks) == ((1, 1, 1, 1), (4,))
    first = interpolation_gap(A, phibar, x, 3.0)  # the decomposition and the powers are kept
    calls, real = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert interpolation_gap(A, phibar, x, 3.0) == first
    assert calls == [(4, 1, 1), (1, 4, 4)]


def test_subalgebra_lp_norm_diagonal_oracle():
    A = diagonal_subalgebra(M2)
    phibar = State(M2, [np.diag([0.6, 0.4])])
    x = AlgebraElement(A.decomposition.algebra, [np.array([[2.0]]), np.array([[-1.0]])])
    # factors are ordered deterministically; the norm is weight-independent
    got = _power_product_norm(restrict_state(A, phibar), x, 3.0)
    vals = sorted([0.6, 0.4])
    expected = (vals[0] * 2**3 + vals[1] * 1**3) ** (1 / 3)
    expected_alt = (vals[1] * 2**3 + vals[0] * 1**3) ** (1 / 3)
    assert np.isclose(got, expected) or np.isclose(got, expected_alt)


@pytest.mark.parametrize("seed", [0, 6, 9, 11])
def test_from_map_image_matches_unit_calls(seed):
    pi = random_isometry_data(seed).pi
    got = Subalgebra.from_map_image(pi).basis
    want = [pi(u) for u in matrix_units(pi.source)]
    assert len(got) == len(want)
    assert all(np.array_equal(g.vec(), w.vec()) for g, w in zip(got, want))


# -- the L_p layer pays once per subalgebra, state and exponent -----------------

GAP_EXPONENTS = (2.0, 3.0, 4.0, 8.0)


def _count_calls(monkeypatch, owner, name):
    """Record the first argument of every call to owner.name."""
    seen, real = [], getattr(owner, name)

    def recorded(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return seen


def _with_fresh_image(data):
    """The data with its expectation on a new copy of pi's image, which keeps
    no restriction yet."""
    E = dataclasses.replace(data.expectation, subalgebra=Subalgebra.from_map_image(data.pi))
    return dataclasses.replace(data, expectation=E)


def test_gaps_on_one_subalgebra_restrict_once_and_power_once_per_exponent(monkeypatch):
    A, phibar = random_invariant_inclusion(4)
    A = _plain_copy(A)
    xs = [random_element(A.decomposition.algebra, rng_for(5)) for _ in range(10)]
    pulls = _count_calls(monkeypatch, expectation_module, "pullback_density")
    calculus = _count_calls(monkeypatch, State, "_calculus")
    for x in xs:
        for p in GAP_EXPONENTS:
            interpolation_gap(A, phibar, x, p)
    assert pulls == [phibar]
    assert sum(s is phibar for s in calculus) == len(GAP_EXPONENTS)
    restricted = restrict_state(A, phibar)
    assert sum(s is restricted for s in calculus) == len(GAP_EXPONENTS)
    assert len(calculus) == 2 * len(GAP_EXPONENTS)


@pytest.mark.parametrize("name", ["P3", "M1"])
def test_the_lp_maps_restrict_once(monkeypatch, name):
    pulls = _count_calls(monkeypatch, expectation_module, "pullback_density")
    complement_projection(_with_fresh_image(_plan_data(name)), 3.0)
    assert len(pulls) == 1
    E = _with_fresh_image(_plan_data(name)).expectation
    lp_expectation(E, 3.0)
    assert len(pulls) == 2


def test_the_restriction_is_kept_for_the_same_state_only(monkeypatch):
    A, phibar = random_invariant_inclusion(4)
    pulls = _count_calls(monkeypatch, expectation_module, "pullback_density")
    first = restrict_state(A, phibar)
    assert restrict_state(A, phibar) is first
    assert len(pulls) == 1
    # an equal density in another State object is another state
    twin = State(phibar.algebra, list(phibar.density.data))
    other = restrict_state(A, twin)
    assert other is not first and len(pulls) == 2
    assert restrict_state(A, twin) is other and len(pulls) == 2
    assert np.array_equal(restrict_state(A, phibar).density.vec(), first.density.vec())


def test_a_failing_restriction_raises_on_every_call(monkeypatch):
    e11 = AlgebraElement(M2, [np.diag([1.0, 0.0])])
    A = Subalgebra(M2, [e11], validate=False)
    spread = State(M2, [np.diag([0.5, 0.5])])
    pulls = _count_calls(monkeypatch, expectation_module, "pullback_density")
    for _ in range(3):
        with pytest.raises(DataInvalid, match="outside the subalgebra unit"):
            restrict_state(A, spread)
    assert len(pulls) == 3
    corner = State(M2, [np.diag([1.0, 0.0])])
    assert restrict_state(A, corner).density.data[0][0, 0] == 1.0


def test_gaps_on_a_reused_subalgebra_equal_gaps_on_fresh_copies():
    seed = 4
    A, phibar = random_invariant_inclusion(seed)
    xs = [random_element(A.decomposition.algebra, rng_for(7)) for _ in range(3)]
    for x in xs:
        for p in GAP_EXPONENTS:
            fresh_A, fresh_phibar = random_invariant_inclusion(seed)
            want = interpolation_gap(fresh_A, fresh_phibar, x, p)
            assert interpolation_gap(A, phibar, x, p) == want


# -- subalgebra validation against the pairwise oracle --------------------------

def _validation_cases():
    # an edge basis's id names the element-wise check it fails: products,
    # adjoints, or the identity check of the support of S (`unit_by_elements`)
    for seed in range(8):
        yield pytest.param(lambda s=seed: random_invariant_inclusion(s)[0], None, id=f"inv-{seed}")
    for seed in range(12):
        yield pytest.param(
            lambda s=seed: Subalgebra.from_map_image(random_isometry_data(s).pi), None, id=f"pi-{seed}"
        )
    for word, A in edge_bases().items():
        yield pytest.param(lambda A=A: A, word, id=f"fails-{word.split()[-1]}")


def _validation_outcome(check, A):
    try:
        check(A)
    except DataInvalid as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("make, edge", list(_validation_cases()))
def test_validate_agrees_with_the_pairwise_oracle(make, edge):
    # the factor decomposition rejects the spans the oracle finds not closed,
    # and certifies the faint span, whose unit then acts as one
    A = make()
    got = _validation_outcome(lambda B: B.validate(), _plain_copy(A))
    want = _validation_outcome(validate_by_pairs, _plain_copy(A))
    if edge in (None, "an identity"):
        assert got is None and want is None
    else:
        assert got is not None and got.startswith("factor decomposition: ")
        assert want is not None and edge in want


@pytest.mark.parametrize("make, edge", list(_validation_cases()))
def test_unit_agrees_with_the_element_sum_oracle(make, edge):
    # the sum of the certified diagonal units and the support of S agree to
    # rounding, with the same rank, on every valid span but the faint one
    A = make()
    if edge == "an identity":
        assert (A.unit - AlgebraElement.identity(A.parent)).frobenius() < 1e-12
        return
    if edge is not None:
        with pytest.raises(DataInvalid, match="^factor decomposition: "):
            _ = A.unit
        return
    got, want = A.unit, unit_by_elements(A)
    for g, w in zip(got.data, want):
        assert round(np.trace(g).real) == round(np.trace(w).real)
    tol = 1000 * np.finfo(float).eps * A.parent.total_dim
    assert (got - AlgebraElement(A.parent, want)).frobenius() <= tol


def _scale_cases():
    for seed in range(40):
        for kind, make in (("inv", random_invariant_inclusion), ("noninv", random_noninvariant_inclusion)):
            yield pytest.param(lambda s=seed, m=make: m(s)[0], seed, id=f"{kind}-{seed}")
    for seed in range(12):
        yield pytest.param(
            lambda s=seed: Subalgebra.from_map_image(random_isometry_data(s).pi), seed, id=f"pi-{seed}"
        )
    yield pytest.param(lambda: edge_bases()["an identity"], 0, id="faint")


@pytest.mark.parametrize("make, seed", list(_scale_cases()))
def test_validation_and_unit_ignore_the_scale_of_each_basis_element(make, seed):
    # only the span enters: each basis element scaled by 10^u, u uniform in [-3, 3]
    A = _plain_copy(make())
    scales = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, A.dim)
    scaled = Subalgebra(A.parent, [a * c for a, c in zip(A.basis, scales.tolist())])
    want, got = A.decomposition, scaled.decomposition
    assert got.algebra == want.algebra and got.multiplicities == want.multiplicities
    assert (scaled.unit - A.unit).frobenius() <= 1e-11


def test_validate_takes_the_generic_pass_once_and_no_blockwise_product(monkeypatch):
    source, plan = LADDER_144
    A = _plain_copy(Subalgebra.from_map_image(random_isometry_data(0, source, plan=plan).pi))
    passes = _count_calls(monkeypatch, expectation_module, "_block_decomposition")
    lefts = _count_calls(monkeypatch, expectation_module, "apply_left")
    A.validate()
    A.validate()
    assert len(passes) == 1 and lefts == []


def test_a_subalgebra_and_its_state_refuse_assignment_under_their_own_names():
    A, state = random_invariant_inclusion(0)
    for value in (A, state, A.decomposition.embed):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            value.parent = None


def test_concurrent_gaps_never_pair_a_state_with_another_restriction():
    # the kept restriction is one (state, restriction) tuple, read and
    # replaced whole, so racing callers with two states see their own
    import sys
    import threading

    A, phibar = random_invariant_inclusion(4)
    other = random_faithful_state(A.parent, 11)
    x = random_element(A.decomposition.algebra, rng_for(3))
    want = {s: interpolation_gap(_plain_copy(A), s, x, 3.0) for s in (phibar, other)}
    wrong, interval = [], sys.getswitchinterval()

    def work(state):
        for _ in range(50):
            if interpolation_gap(A, state, x, 3.0) != want[state]:
                wrong.append(state)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=((phibar, other)[k % 2],)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- stage 5 from the certified units -------------------------------------------


def _closed_form_cases():
    for seed in range(12):
        yield pytest.param(lambda s=seed: random_isometry_data(s).expectation, id=f"pi-{seed}")
    for name in sorted(BENCH_PLANS):
        yield pytest.param(lambda n=name: _plan_data(n).expectation, id=name)
    for seed in range(8):
        yield pytest.param(lambda s=seed: random_invariant_inclusion(s), id=f"inv-{seed}")


def _subalgebra_and_state(made):
    if isinstance(made, tuple):
        return made
    return made.subalgebra, made.state


@pytest.mark.parametrize("make", list(_closed_form_cases()))
def test_the_closed_form_agrees_with_the_gram_solve(make):
    A, state = _subalgebra_and_state(make())
    got = construct_expectation(A, state).map.matrix
    want = construct_by_gram_solve(A, state)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def _count_certificates(monkeypatch):
    calls, real = [], expectation_module._certify_expectation

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expectation_module, "_certify_expectation", counting)
    return calls


def test_the_exact_bench_plans_run_no_module_identities(monkeypatch):
    calls = _count_certificates(monkeypatch)
    for name in sorted(BENCH_PLANS):
        for seed in range(4):
            data = _plan_data(name, seed)
            construct_expectation(Subalgebra.from_map_image(data.pi), data.phibar)
            for p in (1.0, 3.0, 7.0):
                assert classify(build_isometry(data, p), data.reference_state, p).accepted
    assert calls == []


def test_a_bound_miss_runs_the_whole_certificate(monkeypatch):
    # a huge unit-product constant makes the module bound miss; the same M is
    # then certified once by the whole certificate
    calls = _count_certificates(monkeypatch)
    data = _plan_data("M1")
    A, state = Subalgebra.from_map_image(data.pi), data.phibar
    want = construct_expectation(A, state).map.matrix
    assert calls == []
    monkeypatch.setattr(expectation_module, "_unit_product_bound", lambda F: 1e30)
    assert _closed_form(A, state)[2] > 1.0
    got = construct_expectation(A, state).map.matrix
    assert np.array_equal(got, want)
    assert len(calls) == 1 and np.array_equal(calls[0][0], want) and calls[0][1] is A
    # and a NaN bound certifies nothing
    calls.clear()
    monkeypatch.setattr(expectation_module, "_unit_product_bound", lambda F: np.nan)
    construct_expectation(A, state)
    assert len(calls) == 1


def test_the_bounds_keep_their_headroom_on_the_bench_plans():
    # the pi and state that classify recovers from the canonical maps of the
    # benchmark plans are certified by the bounds of _closed_form with two
    # orders of magnitude to spare, so the whole certificate never runs there
    ratios = []
    for name in sorted(BENCH_PLANS):
        for seed in range(4):
            data = _plan_data(name, seed)
            for p in (1.0, 1.5, 3.0, 4.0, 7.0):
                report = classify(build_isometry(data, p), data.reference_state, p)
                assert report.accepted, (name, seed, p)
                image = Subalgebra.from_map_image(report.data.pi)
                ratios.append(_closed_form(image, report.data.phibar)[2])
    assert len(ratios) == 100 and all(r <= 1e-2 for r in ratios)  # NaN fails


def _cut_state(algebra, seed):
    """A state of rank one in the first block, whose support cuts an image."""
    blocks = [b @ b.conj().T for b in random_element(algebra, rng_for(seed)).data]
    blocks[0] = np.outer(blocks[0][:, 0], blocks[0][:, 0].conj())
    return State(algebra, blocks, normalize=True)


def _outcome(fn):
    try:
        fn()
    except (DataInvalid, NonFaithful, NotInvariant) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _moved(pi, seed, eps):
    """pi moved by seeded complex Gaussian noise of relative size eps."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
    noise *= np.linalg.norm(pi.matrix) / np.linalg.norm(noise)
    return AlgebraMap(pi.source, pi.target, pi.matrix + eps * noise)


@pytest.mark.parametrize("name", ["P2", "M1", "M2"])
def test_stage5_keeps_its_verdicts_and_exceptions(name):
    # non-unital images (P2) with states singular off the image's support,
    # states whose support cuts the image, faithful states that are not
    # invariant, and pi moved by noise of relative size 1e-9 (some miss the
    # bounds) or 1e-7 (no system of matrix units): the same outcome as the
    # Gram solve with its whole certificate
    outcomes = set()
    for seed in range(12):
        data = _plan_data(name, seed)
        pi, target = data.pi, data.pi.target
        maps = [pi, _moved(pi, seed, 1e-9), _moved(pi, seed, 1e-7)]
        states = [data.phibar, _cut_state(target, seed), random_faithful_state(target, seed)]
        for F in maps:
            for state in states:
                got = _outcome(lambda: construct_expectation(Subalgebra.from_map_image(F), state))
                want = _outcome(lambda: construct_by_gram_solve(Subalgebra.from_map_image(F), state))
                assert got == want
                outcomes.add(None if got is None else got.split(":")[0])
    assert outcomes == {None, "DataInvalid", "NonFaithful", "NotInvariant"}


def _uncertified_image(F):
    """The image of F with F as its decomposition, without the certificate
    of `Subalgebra.from_map_image`, so units far from a system of matrix
    units can be tried."""
    image = object.__new__(Subalgebra)
    object.__setattr__(image, "parent", F.target)
    object.__setattr__(image, "columns", F.matrix)
    mu = tuple(
        int(round(AlgebraElement.from_vec(F.target, F.matrix[:, off]).trace().real))
        for off in F.source.offsets()
    )
    image.__dict__["decomposition"] = BlockDecomposition(F.source, F, mu)
    return image


PERTURBED_PLANS = [None, "P2", "P3", "M1"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    plan=st.sampled_from(PERTURBED_PLANS),
    seed=st.integers(0, 30),
    log_eps=st.floats(-14.0, -3.0),
)
def test_whenever_the_bounds_certify_the_whole_certificate_passes(plan, seed, log_eps):
    data = random_isometry_data(seed) if plan is None else _plan_data(plan, seed)
    A = _uncertified_image(_moved(data.pi, seed + 1000, 10.0**log_eps))
    M, epsilon, ratio = _closed_form(A, data.phibar)
    assert epsilon >= 0.0
    if ratio <= 1.0:
        _certify_expectation(M, A, data.phibar)
        assert _oracle_certificate(M, A, data.phibar) is None
