import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nclp.algebra import (
    AlgebraElement,
    AlgebraMap,
    State,
    homomorphism_kind,
    make_algebra,
    matrix_units,
    random_faithful_state,
    transpose_permutation,
    unit_system_defect,
)
from dense_oracles import (
    NORM_ROUNDING,
    compose_lp_maps,
    conditioning_ladder,
    gram_bounds,
    trace_bounds,
    image_supports,
    isometry_data_by_units,
    left_mult_matrix,
    norm_defect_on_full_images,
    norms_of_values,
    plan_rows,
    rounding_room,
    grid_positions,
    structured_witnesses,
    support_bound,
    unit_positions,
    witness_positions,
    pair_table_kind,
    pi_by_four_polarizations,
    reconstruction_by_rebuild,
    right_mult_matrix,
    tensor_embed,
    validate_by_pair_table,
)
import nclp.algebra as algebra_module
import nclp.expectation as expectation_module
import nclp.isometry as isometry_module
from nclp.errors import (
    DataInvalid,
    ExponentUnsupported,
    NotAnIsometry,
    ShapeMismatch,
)
from nclp.expectation import Subalgebra, construct_expectation
from nclp.isometry import (
    METRIC_TOL,
    SUPPORT_ALLOWANCE,
    build_isometry,
    classify,
    extract_pi,
    extract_polar_data,
    isometry_defect,
    star_adjoint_dual,
    two_isometry_defect,
    verify_state_restriction,
)
from nclp.lp import (
    _TRACE_EXPONENTS,
    LpMap,
    LpVector,
    _gram_svdvals,
    _grouped_norms,
    _singular_values,
    _stack_groups,
    amplified_algebra,
    amplify_map,
    conjugate_exponent,
    lp_norm,
    polar_decompose,
    state_power,
)
from nclp.samples import (
    haar_unitary,
    random_element,
    random_isometry_data,
    random_lp_vector,
    rng_for,
)
from nclp.serialize import classification_report_to_json

M2 = make_algebra([2])


def _identity_data(seed=3):
    phi = random_faithful_state(M2, seed)
    A = Subalgebra(M2, matrix_units(M2), validate=False)
    E = construct_expectation(A, phi)
    return phi, A, E


def test_build_identity_map():
    from nclp.isometry import IsometryData

    phi, A, E = _identity_data()
    data = IsometryData(
        source=M2,
        target=M2,
        pi=AlgebraMap.identity(M2),
        w=AlgebraElement.identity(M2),
        expectation=E,
        reference_state=phi,
    )
    T = build_isometry(data, 3.0)
    assert np.max(np.abs(T.matrix - np.eye(4))) < 1e-10


def test_build_unitary_left_multiplication():
    from nclp.isometry import IsometryData

    phi, A, E = _identity_data(9)
    u = AlgebraElement(M2, [haar_unitary(2, rng_for(4))])
    data = IsometryData(
        source=M2,
        target=M2,
        pi=AlgebraMap.identity(M2),
        w=u,
        expectation=E,
        reference_state=phi,
    )
    T = build_isometry(data, 3.0)
    assert np.max(np.abs(T.matrix - left_mult_matrix(u))) < 1e-10
    assert isometry_defect(T) < 1e-12


def test_build_rejects_bad_w():
    from nclp.isometry import IsometryData

    phi, A, E = _identity_data(2)
    bad_w = AlgebraElement(M2, [np.diag([1.0, 0.0])])
    data = IsometryData(
        source=M2,
        target=M2,
        pi=AlgebraMap.identity(M2),
        w=bad_w,
        expectation=E,
        reference_state=phi,
    )
    with pytest.raises(DataInvalid):
        build_isometry(data, 3.0)


def test_factory_maps_isometric_all_exponents():
    for seed in (1, 8):
        data = random_isometry_data(seed)
        for p in (1.0, 1.5, 3.0, 4.0, 7.0):
            T = build_isometry(data, p)
            assert isometry_defect(T, sample_count=40) < 1e-9
            assert two_isometry_defect(T, n=2, sample_count=30, relative=True) < 1e-9


def test_module_property():
    data = random_isometry_data(2)
    p = 3.0
    T = build_isometry(data, p)
    rng = rng_for(6)
    rho_pow = state_power(data.reference_state, 1 / p)
    for _ in range(15):
        x = random_element(data.source, rng)
        y = random_element(data.source, rng)
        h = LpVector.from_element(rho_pow @ x, p)
        lhs = T(h @ y)
        rhs = T(h) @ data.pi(y)
        assert (lhs - rhs).frobenius() < 1e-9 * max(1.0, lhs.frobenius())


def test_extract_pi_identity_and_roundtrip():
    phi = random_faithful_state(M2, 12)
    T = LpMap.identity(M2, 3.0)
    pi = extract_pi(T, phi)
    assert np.max(np.abs(pi.matrix - np.eye(4))) < 1e-10

    data = random_isometry_data(7)
    Tf = build_isometry(data, 3.0)
    pi_rec = extract_pi(Tf, data.reference_state)
    assert np.max(np.abs(pi_rec.matrix - data.pi.matrix)) < 1e-9


def test_extract_pi_transpose_is_jordan_only():
    phi = State(M2, [np.eye(2) / 2])
    T = LpMap(M2, M2, 3.0, transpose_permutation(M2))
    pi = extract_pi(T, phi)
    assert homomorphism_kind(pi).kind == "jordan_only"


def test_extract_pi_rejects_p2():
    phi = random_faithful_state(M2, 1)
    with pytest.raises(ExponentUnsupported):
        extract_pi(LpMap.identity(M2, 2.0), phi)


def test_extract_pi_rejects_structureless_map():
    from nclp.errors import NotAnIsometry

    phi = random_faithful_state(M2, 1)
    rng = rng_for(3)
    garbage = LpMap(M2, M2, 3.0, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    with pytest.raises(NotAnIsometry):
        extract_pi(garbage, phi)


def test_extract_pi_refuses_polarization_rows_that_overflow():
    # the map is finite, but its polarization rows overflow; they are refused
    # before the SVD, and no RuntimeWarning escapes (pytest would raise it)
    from nclp.errors import NonFinite

    M3 = make_algebra([3])
    M = np.full((9, 9), 1.7e308, dtype=complex)
    M[0, 0] = -1.7e308
    with pytest.raises(NonFinite, match="^image of the polarization has a NaN or infinite entry$"):
        extract_pi(LpMap(M3, M3, 3.0, M), random_faithful_state(M3, 0))


def test_extract_polar_data_zero_image():
    from nclp.errors import ZeroImage

    phi = random_faithful_state(M2, 1)
    with pytest.raises(ZeroImage):
        extract_polar_data(LpMap(M2, M2, 3.0, np.zeros((4, 4))), phi)


def test_build_isometry_needs_faithful_reference():
    from nclp.errors import NonFaithful
    from nclp.isometry import IsometryData

    data = random_isometry_data(1)
    singular = State(data.source, [np.diag([1.0, 0.0]) if n == 2 else np.zeros((n, n)) for n in data.source.blocks])
    bad = IsometryData(
        source=data.source,
        target=data.target,
        pi=data.pi,
        w=data.w,
        expectation=data.expectation,
        reference_state=singular,
    )
    with pytest.raises(NonFaithful):
        build_isometry(bad, 3.0)


def test_extract_pi_state_independent():
    data = random_isometry_data(4)
    T = build_isometry(data, 3.0)
    pi1 = extract_pi(T, data.reference_state)
    pi2 = extract_pi(T, random_faithful_state(data.source, 77))
    assert np.max(np.abs(pi1.matrix - pi2.matrix)) < 1e-8


def test_extract_polar_data():
    phi = random_faithful_state(M2, 3)
    T = LpMap.identity(M2, 3.0)
    w, phibar = extract_polar_data(T, phi)
    assert (w - AlgebraElement.identity(M2)).frobenius() < 1e-10
    assert (phibar.density - phi.density).frobenius() < 1e-10

    u = AlgebraElement(M2, [haar_unitary(2, rng_for(8))])
    Tu = LpMap(M2, M2, 3.0, left_mult_matrix(u))
    wu, phibar_u = extract_polar_data(Tu, phi)
    assert (wu - u).frobenius() < 1e-10
    assert (phibar_u.density - phi.density).frobenius() < 1e-10
    assert np.isclose(lp_norm(Tu(state_power(phi, 1 / 3))), 1.0)


def test_verify_state_restriction_detects_perturbation():
    data = random_isometry_data(3)
    phibar = data.phibar
    assert verify_state_restriction(phibar, data.pi, data.reference_state) < 1e-10

    rng = rng_for(15)
    g = random_element(data.source, rng, hermitian=True)
    drift = data.pi(g)
    drift = drift * (0.1 / drift.frobenius())
    blocks = []
    for blk in (phibar.density + drift).data:
        w, v = np.linalg.eigh((blk + blk.conj().T) / 2)
        blocks.append((v * np.clip(w, 1e-8, None)) @ v.conj().T)
    perturbed = State(data.target, blocks, normalize=True)
    assert verify_state_restriction(perturbed, data.pi, data.reference_state) > 1e-3


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_classify_roundtrip(p):
    data = random_isometry_data(5)
    T = build_isometry(data, p)
    report = classify(T, data.reference_state, p)
    assert report.accepted
    assert np.max(np.abs(report.data.pi.matrix - data.pi.matrix)) < 1e-7
    assert (report.data.w - data.w).frobenius() < 1e-7
    assert np.max(np.abs(report.data.expectation.map.matrix - data.expectation.map.matrix)) < 1e-7
    assert (report.data.phibar.density - data.phibar.density).frobenius() < 1e-7


def test_classify_calls_extract_pi_once_through_the_module(monkeypatch):
    # a wrapper set on the module attribute, as a per-layer trace sets it,
    # sees stage 2's one extraction
    calls = []
    original = isometry_module.extract_pi

    def counted(T, phi):
        calls.append(T)
        return original(T, phi)

    monkeypatch.setattr(isometry_module, "extract_pi", counted)
    data = random_isometry_data(5)
    report = classify(build_isometry(data, 3.0), data.reference_state, 3.0)
    assert report.accepted
    assert len(calls) == 1


def test_classify_accepts_the_ladder_plan_at_d_144():
    # D = 144 and dim A = 100, certified on 19 generators of the pi image
    data = random_isometry_data(0, (10,), plan=[([(0, 1)], 2)])
    assert data.target.total_dim == 144
    assert len(data.expectation.subalgebra.generators) == 19
    report = classify(build_isometry(data, 3.0), data.reference_state, 3.0)
    assert report.accepted
    rec = report.data
    distance = max(
        np.max(np.abs(rec.pi.matrix - data.pi.matrix)),
        (rec.w - data.w).frobenius(),
        np.max(np.abs(rec.expectation.map.matrix - data.expectation.map.matrix)),
        (rec.phibar.density - data.phibar.density).frobenius(),
    )
    assert distance < 1e-7


def test_classify_rejects_transpose_at_multiplicativity():
    phi = State(M2, [np.eye(2) / 2])
    T = LpMap(M2, M2, 3.0, transpose_permutation(M2))
    report = classify(T, phi, 3.0)
    assert report.verdict == "reject"
    assert report.failing_stage == "multiplicativity"
    assert report.defects["isometry"] < 1e-10
    assert report.defects["two_isometry"] > 1e-3


def test_classify_rejects_contraction_at_stage_one():
    phi = random_faithful_state(M2, 2)
    T = LpMap(M2, M2, 3.0, 0.5 * np.eye(4))
    report = classify(T, phi, 3.0)
    assert report.verdict == "reject"
    assert report.failing_stage == "isometry"


def test_classify_rejects_p2():
    phi = random_faithful_state(M2, 2)
    with pytest.raises(ExponentUnsupported):
        classify(LpMap.identity(M2, 2.0), phi, 2.0)


def test_star_adjoint_dual_examples():
    T = LpMap.identity(M2, 3.0)
    dual = star_adjoint_dual(T)
    assert np.allclose(dual.matrix, np.eye(4))
    assert np.isclose(dual.p, 1.5)

    u = AlgebraElement(M2, [haar_unitary(2, rng_for(3))])
    Tu = LpMap(M2, M2, 3.0, left_mult_matrix(u))
    dual_u = star_adjoint_dual(Tu)
    assert np.max(np.abs(dual_u.matrix - left_mult_matrix(u.adjoint()))) < 1e-12

    with pytest.raises(ExponentUnsupported):
        star_adjoint_dual(LpMap.identity(M2, 1.0))


def test_star_adjoint_dual_pairing_identity():
    # sesquilinear identity tr(dual(k)* h) = tr(k* T(h)) for a generic map
    rng = rng_for(23)
    T = LpMap(M2, M2, 3.0, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    dual = star_adjoint_dual(T)
    for _ in range(10):
        h = random_lp_vector(M2, 3.0, rng)
        k = random_lp_vector(M2, 1.5, rng)
        lhs = sum(np.trace(a.conj().T @ b) for a, b in zip(dual(k).data, h.data))
        rhs = sum(np.trace(a.conj().T @ b) for a, b in zip(k.data, T(h).data))
        assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_dual_composition_is_identity(p):
    pp = p / (p - 1)
    data = random_isometry_data(6)
    Tp = build_isometry(data, p)
    Tpp = build_isometry(data, pp)
    comp = star_adjoint_dual(Tpp).matrix @ Tp.matrix
    assert np.max(np.abs(comp - np.eye(Tp.source.total_dim))) < 1e-9


def test_build_isometry_extrapolates_to_other_exponents():
    # one data object builds the canonical map at every exponent
    data = random_isometry_data(9)
    assert isometry_defect(build_isometry(data, 3.0)) < 1e-9
    for q in (2.5, 4.0, 7.0):
        assert isometry_defect(build_isometry(data, q), sample_count=40) < 1e-9


def test_l2_identity_at_exponent_four():
    data = random_isometry_data(10)
    phi, phibar, pi = data.reference_state, data.phibar, data.pi
    rng = rng_for(40)
    r4 = state_power(phi, 0.25)
    rb4 = state_power(phibar, 0.25)
    for _ in range(30):
        x = random_element(data.source, rng)
        lhs = lp_norm(LpVector.from_element(rb4 @ pi(x) @ rb4, 2.0))
        rhs = lp_norm(LpVector.from_element(r4 @ x @ r4, 2.0))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


def test_two_isometry_defect_witness_values():
    T = LpMap(M2, M2, 1.0, transpose_permutation(M2))
    # absolute defect at the grid witness: trace norms 4 against 2
    assert two_isometry_defect(T, n=2, sample_count=0) >= 2.0 - 1e-12
    assert two_isometry_defect(LpMap.identity(M2, 3.0), n=2) < 1e-12


def test_positive_factory_maps_preserve_positivity():
    data = random_isometry_data(0)
    T = build_isometry(data, 3.0)
    rng = rng_for(33)
    for _ in range(15):
        g = random_element(data.source, rng)
        h = LpVector.from_element(g @ g.adjoint(), 3.0)
        out = T(h)
        low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in out.data)
        assert low > -1e-9


def test_factory_three_fold_amplification():
    data = random_isometry_data(11)
    T = build_isometry(data, 4.0)
    assert two_isometry_defect(T, n=3, sample_count=20, relative=True) < 1e-9


def _unit(algebra, b, i, j):
    blocks = algebra.zero_blocks()
    blocks[b][i, j] = 1.0
    return AlgebraElement(algebra, blocks)


def _e(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _witnesses_by_tensor_sums(algebra, p, n):
    """Reference: the witnesses as sums of tensor_embed terms."""
    out = []
    for b, nb in enumerate(algebra.blocks):
        for k in range(nb):
            for l in range(k + 1, nb):
                terms = [
                    tensor_embed(_e(n, a, c), _unit(algebra, b, qa, qc), n, p)
                    for a, qa in enumerate((k, l))
                    for c, qc in enumerate((k, l))
                ]
                out.append(terms[0] + terms[1] + terms[2] + terms[3])
    units = matrix_units(algebra)[:12]
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            first = tensor_embed(_e(n, 0, 0), units[i], n, p)
            out.append(first + tensor_embed(_e(n, 0, 1), units[j], n, p))
            out.append(first + tensor_embed(_e(n, 1, 0), units[j], n, p))
    return out


@pytest.mark.parametrize("blocks", [(2,), (3,), (1, 2), (2, 1, 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_witnesses_match_tensor_sums(blocks, n):
    alg = make_algebra(blocks)
    got = structured_witnesses(alg, 3.0, n)
    want = _witnesses_by_tensor_sums(alg, 3.0, n)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.p == w.p == 3.0
        assert g.algebra == w.algebra
        assert np.array_equal(g.vec(), w.vec())


def test_witnesses_need_a_two_fold_amplification():
    with pytest.raises(ShapeMismatch):
        structured_witnesses(make_algebra([2]), 3.0, n=1)


@pytest.mark.parametrize("blocks", [(1,), (2,), (2, 1), (3, 1, 2), (2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_plan_writes_out_to_the_indicator_rows_of_the_reference(blocks, n):
    # (2, 3) has d = 13 units, past the cap of 12 on the row and column
    # witnesses; n = 1 reads the unit basis
    source = make_algebra(blocks)
    big = amplified_algebra(source, n)
    plan = isometry_module._plan(source, n, 60, 0)
    structured = [[u] for u in range(source.total_dim)] if n == 1 else witness_positions(source, n)
    want = np.zeros((len(structured), big.total_dim), dtype=complex)
    for r, pos in enumerate(structured):
        want[r, pos] = 1.0
    count = len(structured)
    rows = plan_rows(source, plan)
    assert plan.units.shape == (count, n * n) and len(rows) == count + 60
    assert rows[:count].tobytes() == want.tobytes()
    samples = isometry_module._sample_rows(big, 60, np.random.default_rng(0))
    assert rows[count:].tobytes() == samples.tobytes()
    assert plan.l1.tobytes() == np.abs(rows).sum(axis=1).tobytes()
    for (got, got_blocks), (values, blocks_of) in zip(plan.groups, _singular_values(big, rows)):
        assert got.tobytes() == values.tobytes() and got_blocks == blocks_of
    # the row and column witnesses, read off the slices of the indicator rows
    slices = want[:, isometry_module._slice_positions(source, n)]
    on_rows, on_columns = [], []
    for r in range(count):
        hot = np.argwhere(slices[r] != 0).tolist()  # [slice, unit] pairs
        if len(hot) == 2:
            (s, i), (t, j) = hot
            if s // n == t // n:
                on_rows.append((r, i, j))
            elif s % n == t % n:
                on_columns.append((r, i, j))
    assert plan.witnesses.tolist() == [r for r, _, _ in on_rows + on_columns]
    assert plan.used[plan.pairs].tolist() == [[i, j] for _, i, j in on_rows]
    assert plan.used[plan.pairs].tolist() == [[i, j] for _, i, j in on_columns]
    others = sorted(set(range(count + 60)) - set(plan.witnesses.tolist()))
    assert plan.others.tolist() == others
    # the first grid witness of each block of size at least 2
    grids = [b for b, nb in enumerate(source.blocks) if nb > 1 and n > 1]
    assert len(plan.grids) == len(grids)
    for r, b in zip(plan.grids, grids):
        grid = grid_positions(source, unit_positions(source, n), b, 0, 1)
        assert np.flatnonzero(want[r]).tolist() == sorted(grid)


def test_the_plans_of_the_d_400_ladder_source_hold_no_dense_structured_row():
    # the ladder source M_18 of the D = 400 rung: its structured rows written
    # out would be 324 x 324 (n = 1) and 285 x 1296 (n = 2) complex arrays
    source = make_algebra([18])
    for n in (1, 2):
        width = amplified_algebra(source, n).total_dim
        plan = isometry_module._plan(source, n, 60, 0)
        held = [a for a in plan if isinstance(a, np.ndarray)] + [v for v, _ in plan.groups]
        assert not any(a.ndim == 2 and a.shape[1] == width for a in held)
        owned = sum((a if a.base is None else a.base).nbytes for a in held if a is not plan.samples)
        assert owned < len(plan.units) * width * 16 / 10


def test_the_sampled_defects_refuse_malformed_plan_keys(monkeypatch):
    T = build_isometry(random_isometry_data(0), 3.0)
    keys = [{"sample_count": c} for c in (-1, 2.5, True, "60")]
    keys += [{"seed": s} for s in (-1, 1.0, None)]
    keys += [{"n": n} for n in (0, -1, 2.0, 1.5, True)]

    def refused(key):
        defects = (two_isometry_defect,) if "n" in key else (isometry_defect, two_isometry_defect)
        for defect in defects:
            with pytest.raises(ShapeMismatch):
                defect(T, **key)

    for key in keys:
        refused(key)
    # numpy integers are integers
    want = (isometry_defect(T), two_isometry_defect(T))
    key = {"sample_count": np.int64(60), "seed": np.int64(0)}
    assert (isometry_defect(T, **key), two_isometry_defect(T, n=np.int64(2), **key)) == want

    # the keys are refused before any plan is looked up
    def refuse(*args):
        raise AssertionError("a plan was looked up")

    monkeypatch.setattr(isometry_module, "_plan", refuse)
    for key in keys:
        refused(key)


def test_extract_pi_rejects_map_off_the_module_relation():
    data = random_isometry_data(3)
    T = build_isometry(data, 3.0)
    rng = rng_for(8)
    noise = rng.standard_normal(T.matrix.shape) + 1j * rng.standard_normal(T.matrix.shape)
    perturbed = LpMap(T.source, T.target, 3.0, T.matrix + 1e-2 * noise / np.linalg.norm(noise))
    with pytest.raises(NotAnIsometry, match="module relation"):
        extract_pi(perturbed, data.reference_state)


def test_classify_reads_the_matrix_at_the_requested_exponent():
    data = random_isometry_data(1)
    T4 = build_isometry(data, 4.0)
    assert classify(T4, data.reference_state, 4.0).accepted
    relabelled = classify(T4.at_exponent(3.0), data.reference_state, 4.0)
    assert relabelled.accepted
    assert relabelled.defects == classify(T4, data.reference_state, 4.0).defects


# -- the batched metric defects against the per-sample loops they replaced ----


def _sample_vectors(algebra, p, count, rng):
    out = []
    for _ in range(count):
        blocks = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in algebra.blocks
        ]
        out.append(LpVector(algebra, p, blocks))
    return out


def _max_norm_defect(T, samples, weights, relative):
    defect = 0.0
    for h in samples:
        nh = lp_norm(h, weights=weights)
        if nh < 1e-14:
            continue
        d = abs(lp_norm(T(h)) - nh)
        defect = max(defect, d / nh if relative else d)
    return float(defect)


def _isometry_samples(T, p):
    """The unit basis and 60 seeded samples, the rows of `isometry_defect`."""
    units = [LpVector.from_element(u, p) for u in matrix_units(T.source)]
    return units + _sample_vectors(T.source, p, 60, np.random.default_rng(0))


def _isometry_defect_by_samples(T, p, weights=None, relative=True):
    return _max_norm_defect(T, _isometry_samples(T, p), weights, relative)


def _check_isometry_defect(F, p, weights=None, relative=True):
    """Within the support bound of the sample loop; bitwise it where no
    block of F's images has a rank-deficient support."""
    got = isometry_defect(F, source_weights=weights, relative=relative)
    want = _isometry_defect_by_samples(F, p, weights, relative)
    bound = support_bound(F, _isometry_samples(F, p), want, weights, relative)
    assert got == want if bound == 0.0 else abs(got - want) <= bound


def _apply_by_slices(T, h, n):
    """(id_n (x) T)(h), placing T(h_ij) at slice (i, j) of every block, where
    h_ij is slice (i, j) of h; each slice goes through the public map call."""
    out = [np.zeros((n * M, n * M), dtype=complex) for M in T.target.blocks]
    for i in range(n):
        for j in range(n):
            h_ij = [
                b[i * m : (i + 1) * m, j * m : (j + 1) * m]
                for b, m in zip(h.data, T.source.blocks)
            ]
            image = T(LpVector(T.source, h.p, h_ij))
            for o, c, M in zip(out, image.data, T.target.blocks):
                o[i * M : (i + 1) * M, j * M : (j + 1) * M] = c
    return LpVector(amplified_algebra(T.target, n), h.p, out)


def _amplified_samples(T, p, n):
    """The structured witnesses and 60 seeded samples, the rows of
    `two_isometry_defect`."""
    big = amplified_algebra(T.source, n)
    rng = np.random.default_rng(0)
    return structured_witnesses(T.source, p, n) + _sample_vectors(big, p, 60, rng)


def _amplified_defects_by_samples(T, p, n, apply, weights):
    """The amplified defect over `_amplified_samples`, each sent through
    `apply`, as {(weights, relative): defect} for no weights and the given
    ones."""
    samples = _amplified_samples(T, p, n)
    images = [lp_norm(apply(h)) for h in samples]
    out = {}
    for w in (None, weights):
        norms = [lp_norm(h, weights=w) for h in samples]
        for relative in (True, False):
            kept = [(i, nh) for i, nh in zip(images, norms) if nh >= 1e-14]
            d = [abs(i - nh) / (nh if relative else 1.0) for i, nh in kept]
            out[w, relative] = float(max(d, default=0.0))
    return out


def _check_two_isometry_defect(F, p, n=2, weights=None):
    """Within the support bound of the slice oracle, bitwise it where no
    block of F's images has a rank-deficient support, and the dense oracle
    through amplify_map within ORACLE_TOL: BLAS sums over its zero blocks in
    its own order."""
    slices = _amplified_defects_by_samples(F, p, n, lambda h: _apply_by_slices(F, h, n), weights)
    dense = _amplified_defects_by_samples(F, p, n, amplify_map(F, n), weights)
    samples, supports = _amplified_samples(F, p, n), image_supports(F)
    for (w, relative), want in slices.items():
        got = two_isometry_defect(F, n=n, source_weights=w, relative=relative)
        bound = support_bound(F, samples, want, w, relative, supports, n)
        assert got == want if bound == 0.0 else abs(got - want) <= bound
        assert abs(got - dense[w, relative]) <= ORACLE_TOL


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_metric_defects_equal_the_sample_loops(seed, p):
    data = random_isometry_data(seed)
    T = build_isometry(data, p)
    S = LpMap(T.source, T.source, p, transpose_permutation(T.source))
    weights = tuple(np.linspace(0.5, 1.5, len(T.source.blocks)))
    for F in (T, compose_lp_maps(T, S)):
        for relative in (True, False):
            _check_isometry_defect(F, p, relative=relative)
        _check_isometry_defect(F, p, weights)
        _check_two_isometry_defect(F, p, weights=weights)
    # the three-fold amplification of the map that is not multiplicative
    _check_two_isometry_defect(F, p, n=3, weights=weights)
    report = classify(T, data.reference_state, p)
    want = reconstruction_by_rebuild(T, data.reference_state, p)
    assert abs(report.defects["reconstruction"] - want) <= ORACLE_TOL


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_the_defects_and_yeadon_refuse_a_weight_that_is_not_positive_and_finite(bad):
    # 1.3 T is no isometry (defect 0.3 unweighted); a zero weight would read
    # 0.0, NaN nan, and inf or -1 would warn, so each is refused up front
    from nclp.samples import random_yeadon_triple
    from nclp.yeadon import build_yeadon_map

    data = random_isometry_data(0)
    T = build_isometry(data, 3.0)
    F = LpMap(T.source, T.target, 3.0, 1.3 * T.matrix)
    assert isometry_defect(F) == pytest.approx(0.3)
    weights = (bad,) + (1.0,) * (len(F.source.blocks) - 1)
    for defect in (isometry_defect, two_isometry_defect):
        with pytest.raises(DataInvalid, match="trace weights must be positive and finite"):
            defect(F, source_weights=weights)
    triple, good = random_yeadon_triple(0, 3.0)
    weights = (bad,) + tuple(good[1:])
    with pytest.raises(DataInvalid, match="trace weights must be positive and finite"):
        build_yeadon_map(triple, 3.0, weights)


def test_stacked_matvec_is_bitwise_the_map():
    # one matvec per row reproduces T(h) bit for bit; the GEMM form
    # rows @ T.matrix.T does not, so the defects must not switch to it
    for seed in range(5):
        data = random_isometry_data(seed)
        T = build_isometry(data, 3.0)
        hs = _sample_vectors(T.source, 3.0, 30, rng_for(seed))
        rows = np.stack([h.vec() for h in hs])
        stacked = np.matmul(T.matrix, rows[:, :, None])[:, :, 0]
        assert np.array_equal(stacked, np.stack([T(h).vec() for h in hs]))


def test_gathered_unit_slices_are_the_matvec_images():
    # a slice that is one unit with coefficient 1 reads its column of the
    # matrix, and a zero slice zeros: equal to the stacked matvec up to the
    # sign of a zero, on T.matrix and on the compressed rows
    for seed in range(5):
        T = build_isometry(random_isometry_data(seed), 3.0)
        for n in (1, 2, 3):
            plan, norms, rows = _plan(T, n)
            positions = isometry_module._slice_positions(T.source, n)
            assert plan.units.shape == (len(rows) - 60, n * n) and (plan.units >= -1).all()
            assert plan.samples.shape == (60, n * n, T.source.total_dim)
            compressed, _ = isometry_module._measured_matrix(T, plan, norms)
            for matrix in (T.matrix, compressed):
                got = isometry_module._slice_images(matrix, plan.units, plan.samples)
                want = np.matmul(matrix, rows[:, positions][..., None])[..., 0]
                assert np.array_equal(got, want)
                # the seeded samples are multiplied, bit for bit
                assert got[-60:].tobytes() == want[-60:].tobytes()


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_stages_read_the_exponent_of_the_map(p):
    data = random_isometry_data(1)
    phi = data.reference_state
    assert star_adjoint_dual(build_isometry(data, p)).p == conjugate_exponent(p)
    # a map built at 4 and read at p: every stage works at p
    F = build_isometry(data, 4.0).at_exponent(p)
    assert star_adjoint_dual(F).p == conjugate_exponent(p)
    _check_isometry_defect(F, p)
    _check_two_isometry_defect(F, p)
    _check_two_isometry_defect(F, p, n=3)
    w, _ = extract_polar_data(F, phi)
    assert w.vec().tobytes() == polar_decompose(F(state_power(phi, 1.0 / p))).w.vec().tobytes()
    outcome = _extraction_outcome(extract_pi, F, phi)
    assert _same_outcome(outcome, _extraction_outcome(_extract_pi_by_projection, F, phi))
    with pytest.raises(ExponentUnsupported):
        star_adjoint_dual(F.at_exponent(1.0))


def test_metric_defects_survive_large_exponents():
    # at p = 1000 the sums of p-th powers overflow and underflow
    data = random_isometry_data(0)
    T = build_isometry(data, 1000.0)
    scaled = LpMap(T.source, T.target, 1000.0, 1.3 * T.matrix)
    assert isometry_defect(scaled) == pytest.approx(0.3, abs=1e-12)
    report = classify(T, data.reference_state, 1000.0)
    assert report.accepted
    assert all(np.isfinite(v) for v in report.defects.values())
    assert report.defects["reconstruction"] < METRIC_TOL


def test_gram_eigenvalue_image_norms_factor_out_their_top_value():
    """At p = 1000 the image norms of isometry_defect read Gram eigenvalues,
    whose sums of p-th powers underflow to 0 on the map scaled by 0.1 and
    overflow on the map scaled by 10: those rows read the norm of the rows'
    `_gram_svdvals` values with the top one factored out, bit for bit, as
    the oracle `norms_of_values` takes it, and the others the plain sum."""
    T = build_isometry(random_isometry_data(0), 1000.0)
    for scale, refused in ((0.1, 0.0), (10.0, np.inf)):
        F = LpMap(T.source, T.target, 1000.0, scale * T.matrix)
        plan, norms, _ = _plan(F, 1)
        values = [_gram_svdvals(stack) for stack in isometry_module._image_stacks(F, plan, norms)]
        assert all(v is not None for v in values)
        with np.errstate(over="ignore"):
            sums = sum(np.sum(v**F.p, axis=-1) for v in values)
        assert (sums == refused).sum() >= len(sums) // 2
        got = isometry_module._image_norms(F, plan, norms)
        assert got.tobytes() == norms_of_values(values, F.p).tobytes()
        assert np.isfinite(got).all() and (got > 0.0).all()


def _nan_singular_values(monkeypatch):
    """Make the singular values the sampled defects read of their images NaN
    on one row, after the kernel of either exponent range."""
    real = isometry_module._stack_groups

    def patched(stacks, p=None, images=False):
        out = real(stacks, p, images)
        values = out[0][0]  # the values of the first block shape
        values[len(values) // 2] = np.nan
        return out

    monkeypatch.setattr(isometry_module, "_stack_groups", patched)


def _nan_rows(monkeypatch, pick):
    """Make lp_norms in the isometry module return NaN on one row of the
    calls that `pick(algebra, rows)` selects."""
    real = isometry_module.lp_norms

    def patched(algebra, p, rows, weights=None):
        out = real(algebra, p, rows, weights)
        if pick(algebra, rows):
            out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(isometry_module, "lp_norms", patched)


def test_classify_rejects_a_nan_isometry_defect(monkeypatch):
    data = random_isometry_data(0)
    _nan_singular_values(monkeypatch)
    for p in (1.5, 3.0):  # the SVD and the Gram kernel
        report = classify(build_isometry(data, p), data.reference_state, p)
        assert report.verdict == "reject" and report.failing_stage == "isometry"
        assert np.isnan(report.defects["isometry"])


def test_a_map_whose_gram_matrices_overflow_keeps_the_svd_defects():
    # at 2^520 every Gram matrix of the images overflows, so each stack goes
    # to the SVD and both defects are bitwise those of the full images
    data = random_isometry_data(0)
    T = build_isometry(data, 3.0)
    F = LpMap(T.source, T.target, 3.0, 2.0**520 * T.matrix)
    for n in (1, 2):
        plan, norms, rows = _plan(F, n)
        assert isometry_module._compressed_blocks(F, plan, norms) == set()
        stacks = isometry_module._image_stacks(F, plan, norms)
        assert all(_gram_svdvals(stack) is None for stack in stacks)
        for relative in (True, False):
            want = norm_defect_on_full_images(F, n, rows, norms, relative)
            assert isometry_module._norm_defect(F, plan, norms, relative) == want
    # the Gram sums of the row and column witnesses overflow too, so each
    # block reads the SVD of their full stacks
    plan, norms, rows = _plan(F, 2)
    for relative in (True, False):
        want = norm_defect_on_full_images(F, 2, rows, norms, relative)
        assert two_isometry_defect(F, relative=relative) == want > 1e150
    report = classify(F, data.reference_state, 3.0)
    assert report.failing_stage == "isometry"
    assert report.defects["isometry"] == isometry_defect(F) > 1e150


def test_a_nan_gram_sum_value_gives_a_nan_two_isometry_defect(monkeypatch):
    data = random_isometry_data(0)
    T = build_isometry(data, 3.0)
    import nclp.lp as lp_module

    real = lp_module._gram_sum_svdvals

    def patched(images, pairs):
        values = real(images, pairs)
        values[len(values) // 2] = np.nan
        return values

    monkeypatch.setattr(lp_module, "_gram_sum_svdvals", patched)
    assert np.isnan(two_isometry_defect(T))
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "two_isometry"
    assert np.isnan(report.defects["two_isometry"])
    assert report.defects["isometry"] <= METRIC_TOL


def test_classify_rejects_a_nan_reconstruction_defect(monkeypatch):
    data = random_isometry_data(0)
    T = build_isometry(data, 3.0)
    # the reconstruction is the only stage that measures one row per unit
    _nan_rows(monkeypatch, lambda algebra, rows: len(rows) == T.source.total_dim)
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "reconstruction"
    assert np.isnan(report.defects["reconstruction"])


def test_classify_measures_invariance_once(monkeypatch):
    calls = []
    real = expectation_module.takesaki_invariant

    def counted(A, state):
        calls.append(A)
        return real(A, state)

    data = random_isometry_data(2)
    T = build_isometry(data, 3.0)
    # count calls through every module that could bind the function
    monkeypatch.setattr(expectation_module, "takesaki_invariant", counted)
    monkeypatch.setattr(isometry_module, "takesaki_invariant", counted, raising=False)
    report = classify(T, data.reference_state, 3.0)
    assert report.accepted and len(calls) == 1
    assert report.defects["invariance"] == real(calls[0], report.data.phibar).defect
    assert report.data.expectation.invariance_defect == report.defects["invariance"]


def _fresh(matrix, pi):
    """A map of the given matrix between pi's algebras, nothing kept yet."""
    return AlgebraMap(pi.source, pi.target, matrix)


def test_classify_certifies_pi_and_the_restriction_once(monkeypatch):
    data = random_isometry_data(2)
    T = build_isometry(data, 3.0)
    kinds = _counting(monkeypatch, isometry_module, "homomorphism_kind")
    glimm = _counting(monkeypatch, algebra_module, "_glimm_defect")
    restrictions = _counting(monkeypatch, isometry_module, "verify_state_restriction")
    report = classify(T, data.reference_state, 3.0)
    assert report.accepted
    pi = report.data.pi
    # Glimm's identities pass pi at stage 2, and the image certificate of
    # stage 5 reads the defect pi keeps: no kind is named, one defect
    assert kinds == [] and len(restrictions) == 1
    assert len(glimm) == 1 and glimm[0][2] is pi.matrix
    # the accepted data still passes the full validation, on the kept defect
    report.data.validate()
    assert kinds == [] and len(glimm) == 1
    assert report.defects["multiplicativity"] == unit_system_defect(_fresh(pi.matrix, pi))


def test_classify_finds_the_image_supports_once_per_map(monkeypatch):
    # at its own exponent classify reads the map itself, so the supports
    # the first call finds are kept for the second
    data = random_isometry_data(2)
    T = build_isometry(data, 3.0)
    found = _counting(monkeypatch, isometry_module, "_ImageSupport")
    first = classify(T, data.reference_state, 3.0)
    second = classify(T, data.reference_state, 3.0)
    assert first.accepted and second.defects == first.defects
    assert len(found) == len(T.target.blocks) and T.at_exponent(3) is T


def _noisy_pi(pi, eps, seed):
    """pi moved by seeded noise of relative size eps, as a fresh map."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
    noise *= np.linalg.norm(pi.matrix) / np.linalg.norm(noise)
    return _fresh(pi.matrix + eps * noise, pi)


def _inject_pi(monkeypatch, make_pi):
    """Make stage 2 of classify read make_pi(T, phi) as pi."""
    monkeypatch.setattr(isometry_module, "extract_pi", make_pi)


@pytest.mark.parametrize("variant", ["transposed", "noisy"])
def test_classify_decides_pi_by_its_glimm_defect(monkeypatch, variant):
    # stage 2 passes pi exactly when its Glimm defect is within the
    # tolerance and pi is injective, and names no kind: the transpose
    # rejects there, and 1e-9 of relative noise passes, as the pair
    # table's mult_defect does
    data = random_isometry_data(3)
    T = build_isometry(data, 3.0)
    pi = data.pi
    if variant == "transposed":
        bad = _fresh(pi.matrix @ transpose_permutation(data.source), pi)
    else:
        bad = _noisy_pi(pi, 1e-9, 3)
    tol = max(pi.source.atol, pi.target.atol)
    delta = unit_system_defect(_fresh(bad.matrix, pi))
    _inject_pi(monkeypatch, lambda T, phi: bad)
    kinds = _counting(monkeypatch, isometry_module, "homomorphism_kind")
    glimm = _counting(monkeypatch, algebra_module, "_glimm_defect")
    report = classify(T, data.reference_state, 3.0)
    assert kinds == [] and len(glimm) == 1 and glimm[0][2] is bad.matrix
    assert report.defects["multiplicativity"] == delta
    table = pair_table_kind(bad)
    if variant == "transposed":
        assert delta > tol and table.kind == "jordan_only"
        assert report.verdict == "reject" and report.failing_stage == "multiplicativity"
    else:
        assert delta <= tol and table.kind == "star_homomorphism"
        assert report.failing_stage != "multiplicativity"


def test_a_non_finite_glimm_defect_rejects(monkeypatch):
    # products of entries near 1e160 overflow, so the Glimm defect is
    # inf or NaN: it passes nothing, and the report keeps it
    data = random_isometry_data(2)
    T = build_isometry(data, 3.0)
    huge = _fresh(1e160 * data.pi.matrix, data.pi)
    delta = unit_system_defect(_fresh(huge.matrix, data.pi))
    assert not np.isfinite(delta)
    _inject_pi(monkeypatch, lambda T, phi: huge)
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "multiplicativity"
    kept = report.defects["multiplicativity"]
    assert np.isnan(kept) if np.isnan(delta) else kept == delta
    written = json.loads(json.dumps(classification_report_to_json(report)))
    assert np.isnan(written["defects"]["multiplicativity"]) == np.isnan(delta)
    assert not np.isfinite(written["defects"]["multiplicativity"])
    assert homomorphism_kind(huge).kind == "neither"


def test_a_finite_map_whose_images_overflow_rejects_at_isometry():
    # the images of 1e308 T overflow to inf, and inf - inf is NaN: the
    # stacked SVD of the defect's rows fails, and the norms it gives instead
    # make the isometry defect non-finite
    data = random_isometry_data(0)
    T = build_isometry(data, 3.0)
    huge = LpMap(T.source, T.target, 3.0, T.matrix * 1e308)
    with pytest.warns(RuntimeWarning):  # numpy's overflow and inf - inf in the images
        report = classify(huge, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "isometry"
    assert not np.isfinite(report.defects["isometry"])


def test_reconstruction_holds_the_restriction_to_the_validation_tolerance(monkeypatch):
    # at D = 121 stage 4 admits restriction defects up to 1.21e-6, but the
    # rebuild, like IsometryData.validate, requires 1e-6
    data = random_isometry_data(0, (2,), plan=[([(0, 1)], 9)])
    assert data.target.total_dim == 121
    T = build_isometry(data, 3.0)
    monkeypatch.setattr(isometry_module, "verify_state_restriction", lambda *args: 1.1e-6)
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "reconstruction"
    assert report.defects["state_restriction"] == 1.1e-6
    assert "reconstruction" not in report.defects


def _nan_state_values(monkeypatch, algebra):
    """Make the trace row, and so every state, on the given algebra NaN."""
    real = isometry_module.trace_row

    def patched(x):
        row = real(x)
        return np.full_like(row, np.nan) if x.algebra == algebra else row

    monkeypatch.setattr(isometry_module, "trace_row", patched)


def test_verify_state_restriction_matches_unit_calls():
    for seed in range(4):
        data = random_isometry_data(seed)
        other = random_faithful_state(data.source, seed + 11)
        for phi in (data.reference_state, other):
            units = matrix_units(data.source)
            want = max(abs(data.phibar(data.pi(u)) - phi(u)) for u in units)
            got = verify_state_restriction(data.phibar, data.pi, phi)
            assert abs(got - want) <= ORACLE_TOL


def test_verify_state_restriction_keeps_a_nan(monkeypatch):
    data = random_isometry_data(0)
    assert verify_state_restriction(data.phibar, data.pi, data.reference_state) < 1e-12
    _nan_state_values(monkeypatch, data.target)
    assert np.isnan(verify_state_restriction(data.phibar, data.pi, data.reference_state))


def test_classify_rejects_a_nan_state_restriction(monkeypatch):
    data = random_isometry_data(0)
    T = build_isometry(data, 3.0)
    _nan_state_values(monkeypatch, data.target)
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "state_restriction"
    assert np.isnan(report.defects["state_restriction"])


def test_build_rejects_a_jordan_pi_and_a_bad_restriction():
    from dataclasses import replace

    data = random_isometry_data(2)
    build_isometry(data, 3.0)
    flipped = AlgebraMap(
        data.source, data.target, data.pi.matrix @ transpose_permutation(data.source)
    )
    with pytest.raises(DataInvalid, match="jordan_only"):
        build_isometry(replace(data, pi=flipped), 3.0)
    other = random_faithful_state(data.source, 11)
    with pytest.raises(DataInvalid, match="state restriction defect"):
        build_isometry(replace(data, reference_state=other), 3.0)


def _validate_variants(seed):
    """random_isometry_data(seed) with pi as built, transposed, moved by
    seeded noise of relative size 1e-12, 1e-9 (around the certificate's
    threshold) and 1e-5, and with a unit column zeroed; then with w halved,
    and with another reference state."""
    from dataclasses import replace

    data = random_isometry_data(seed)
    pi, rng = data.pi, np.random.default_rng(seed)
    noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
    noise *= np.linalg.norm(pi.matrix) / np.linalg.norm(noise)
    zeroed = pi.matrix.copy()
    zeroed[:, 0] = 0.0
    matrices = [pi.matrix, pi.matrix @ transpose_permutation(data.source), zeroed]
    matrices += [pi.matrix + eps * noise for eps in (1e-12, 1e-9, 1e-5)]
    out = [replace(data, pi=AlgebraMap(data.source, data.target, m)) for m in matrices]
    other = random_faithful_state(data.source, seed + 100)
    return out + [replace(data, w=data.w * 0.5), replace(data, reference_state=other)]


def _validation_outcome(check):
    try:
        check()
    except Exception as exc:  # the outcome compared is the exception itself
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("seed", range(12))
def test_validate_decides_as_the_pair_table(seed):
    for data in _validate_variants(seed):
        expected = _validation_outcome(lambda: validate_by_pair_table(data))
        assert _validation_outcome(data.validate) == expected


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_valid_build_makes_no_pair_table(monkeypatch):
    calls = _counting(monkeypatch, isometry_module, "homomorphism_kind")
    for seed in range(12):
        build_isometry(random_isometry_data(seed), 3.0)
    assert calls == []


def test_builds_of_one_data_object_certify_pi_once(monkeypatch):
    calls = _counting(monkeypatch, isometry_module, "_is_injective_star_homomorphism")
    data = random_isometry_data(5)
    for p in (1.0, 1.5, 3.0, 4.0, 7.0):
        build_isometry(data, p)
    assert len(calls) == 1


def test_a_failing_validate_raises_on_every_call(monkeypatch):
    from dataclasses import replace

    calls = _counting(monkeypatch, isometry_module, "homomorphism_kind")
    data = random_isometry_data(2)
    flipped = AlgebraMap(data.source, data.target, data.pi.matrix @ transpose_permutation(data.source))
    bad = replace(data, pi=flipped)
    for _ in range(3):
        with pytest.raises(DataInvalid, match="jordan_only"):
            bad.validate()
    assert len(calls) == 3


def test_validation_is_kept_per_instance(monkeypatch):
    from dataclasses import replace

    calls = _counting(monkeypatch, isometry_module, "_is_injective_star_homomorphism")
    data = random_isometry_data(7)
    data.validate()
    data.validate()  # kept
    assert len(calls) == 1
    # a replace copy is a new instance, checked afresh
    replace(data).validate()
    assert len(calls) == 2
    with pytest.raises(DataInvalid, match="w\\* w differs"):
        replace(data, w=data.w * 0.5).validate()


def test_classify_takes_one_svd_of_pi(monkeypatch):
    data = random_isometry_data(4)
    T = build_isometry(data, 3.0)
    calls, real = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((a, kwargs))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    report = classify(T, data.reference_state, 3.0)
    assert report.accepted
    # the image's columns are pi's matrix: one values-only SVD, the
    # injectivity of the certificate at stage 2 kept for the image
    # certificate at stage 5; the image's orthonormal basis is pi's columns
    # scaled by the multiplicities, so no thin SVD
    of_pi = [kwargs for a, kwargs in calls if a is report.data.pi.matrix]
    assert of_pi == [{"compute_uv": False}]


def test_reconstruction_checks_the_initial_projection_first(monkeypatch):
    data = random_isometry_data(2)
    T = build_isometry(data, 3.0)
    real = isometry_module.extract_polar_data

    def halved(*args):
        w, phibar = real(*args)
        return w * 0.5, phibar

    monkeypatch.setattr(isometry_module, "extract_polar_data", halved)
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "reconstruction"
    # rejected before a rebuild is compared, as IsometryData.validate does
    assert "reconstruction" not in report.defects


# -- extraction by polarization against the per-projection loop it replaced ---

# the stacked supports and the dyadic basis change move pi against the
# per-projection loop by rounding only (at most about 1e-15 on the corpus)
ORACLE_TOL = 1e-12


def _unit_element(algebra, b, entries):
    """The element of block b with the given {(i, j): value} entries."""
    blocks = algebra.zero_blocks()
    for (i, j), value in entries.items():
        blocks[b][i, j] = value
    return AlgebraElement(algebra, blocks)


def _extract_pi_by_projection(T, phi):
    """Reference: extract_pi as one map call and one polar decomposition per
    projection of the basis e_ii, (D + e_ij + e_ji) / 2 and
    (D + i e_ij - i e_ji) / 2 for i < j, D = e_ii + e_jj, combining the
    supports s into pi(e_ij) = s_1 - i s_i + (i - 1) (s_ii + s_jj) / 2 and
    pi(e_ji) = s_1 + i s_i - (1 + i) (s_ii + s_jj) / 2."""
    from nclp.lp import polar_decompose

    p = T.p
    if p == 2.0:
        raise ExponentUnsupported("extraction is undefined at p = 2")
    src, tgt = T.source, T.target
    rho_pow = phi.power_element(1.0 / p)

    def support(x):
        return polar_decompose(T(LpVector.from_element(rho_pow @ x, p))).s_right

    matrix = np.zeros((tgt.total_dim, src.total_dim), dtype=complex)
    for b, (off, n) in enumerate(zip(src.offsets(), src.blocks)):
        diagonal = [support(_unit_element(src, b, {(i, i): 1.0})) for i in range(n)]
        for i in range(n):
            matrix[:, off + i * n + i] = diagonal[i].vec()
        for i in range(n):
            for j in range(i + 1, n):
                D = {(i, i): 0.5, (j, j): 0.5}
                s_1 = support(_unit_element(src, b, {**D, (i, j): 0.5, (j, i): 0.5}))
                s_i = support(_unit_element(src, b, {**D, (i, j): 0.5j, (j, i): -0.5j}))
                s_D = diagonal[i] + diagonal[j]
                matrix[:, off + i * n + j] = (s_1 - 1j * s_i + (0.5j - 0.5) * s_D).vec()
                matrix[:, off + j * n + i] = (s_1 + 1j * s_i - (0.5 + 0.5j) * s_D).vec()
    pi = AlgebraMap(src, tgt, matrix)
    base_image = AlgebraElement.from_vec(tgt, T.matrix @ rho_pow.vec())
    residual = T.matrix @ left_mult_matrix(rho_pow) - left_mult_matrix(base_image) @ pi.matrix
    defect = float(np.max(np.linalg.norm(residual, axis=0)))
    if not defect <= isometry_module.WARN_TOL:
        raise NotAnIsometry(f"module relation fails on the basis (defect {defect:.3e})")
    return pi


def _extraction_outcome(extract, T, phi):
    """The recovered matrix, or the exception's type and message."""
    try:
        return extract(T, phi).matrix
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)


def _same_outcome(got, want) -> bool:
    """The same exception, or recovered matrices within ORACLE_TOL."""
    if isinstance(got, np.ndarray) and isinstance(want, np.ndarray):
        return bool(np.max(np.abs(got - want)) <= ORACLE_TOL)
    return type(got) is type(want) and got == want


# the instance plans of the benchmark: (source blocks, target plan)
BENCH_PLANS = {
    "P2": ((2,), [([(0, 1)], 2)]),
    "P3": ((3,), [([(0, 1)], 2)]),
    "P4": ((4,), [([(0, 1)], 2)]),
    "M1": ((2, 1), [([(0, 2), (1, 1)], 1), ([(0, 1)], 1)]),
    "M2": ((3,), [([(0, 2)], 0)]),
}


def test_generator_places_units_as_the_per_unit_reference():
    # pi, w, phibar, E and the reference state bitwise as the per-unit
    # loops, over the menu, the benchmark plans and a D = 144 ladder plan;
    # pi's matrix C-ordered, which the reference state's pullback reads
    plans = [*BENCH_PLANS.values(), ((10,), [([(0, 1)], 2)])]
    cases = [(seed, None, None) for seed in range(24)]
    cases += [(seed, source, plan) for source, plan in plans for seed in range(2)]
    for seed, source, plan in cases:
        got = random_isometry_data(seed, source, plan=plan)
        want = isometry_data_by_units(seed, source, plan=plan)
        assert got.pi.matrix.flags.c_contiguous
        pairs = [
            (got.pi.matrix, want.pi.matrix),
            (got.w.vec(), want.w.vec()),
            (got.phibar.density.vec(), want.phibar.density.vec()),
            (got.expectation.map.matrix, want.expectation.map.matrix),
            (got.reference_state.density.vec(), want.reference_state.density.vec()),
        ]
        for a, b in pairs:
            assert a.tobytes() == b.tobytes(), (seed, plan)


@pytest.mark.parametrize("plan", sorted(BENCH_PLANS))
def test_extract_pi_matches_the_per_projection_loop(plan):
    source, layout = BENCH_PLANS[plan]
    raised = set()
    for seed in range(12):
        data = random_isometry_data(seed, source, plan=layout)
        flip = transpose_permutation(data.source)
        phi = data.reference_state
        for p in (1.0, 1.5, 3.0, 7.0):
            T = build_isometry(data, p)
            got = extract_pi(T, phi).matrix
            assert np.max(np.abs(got - _extract_pi_by_projection(T, phi).matrix)) <= ORACLE_TOL
            # the 2n^2 - n polarizations check the values of the basis change
            assert np.max(np.abs(got - pi_by_four_polarizations(T, phi).matrix)) <= ORACLE_TOL
            rng = rng_for(seed)
            noise = rng.standard_normal(T.matrix.shape) + 1j * rng.standard_normal(T.matrix.shape)
            for matrix in (T.matrix @ flip, T.matrix + 1e-3 * noise):
                F = LpMap(T.source, T.target, p, matrix)
                outcome = _extraction_outcome(extract_pi, F, phi)
                assert _same_outcome(outcome, _extraction_outcome(_extract_pi_by_projection, F, phi))
                if isinstance(outcome, tuple):
                    raised.add(outcome[0])
    # the noisy maps reach the module relation and fail it
    assert raised == {NotAnIsometry}


def _conditioning_ladder():
    """(label, map, reference state) for the benchmark plans at seeds 0-1
    with phibar moved to rhobar^s / Tr rhobar^s, s in {1, 8, 12, 16}, at p
    in {1, 1.5, 3, 7}; a set-up that raises gives (label, error type, None)."""
    for plan, seed, s, data in conditioning_ladder(BENCH_PLANS):
        if isinstance(data, Exception):
            yield (plan, seed, s), type(data), None
            continue
        for p in (1.0, 1.5, 3.0, 7.0):
            yield (plan, seed, s, p), build_isometry(data, p), data.reference_state


def test_extract_pi_keeps_the_verdicts_of_four_polarizations_on_a_conditioning_ladder(
    monkeypatch,
):
    ladder = list(_conditioning_ladder())
    defects = {}  # of the first pass, per label

    def outcomes():
        out = []
        for label, T, phi in ladder:
            if phi is None:  # the set-up raised
                out.append((label, T.__name__))
            else:
                report = classify(T, phi, label[-1])
                out.append((label, report.verdict, report.failing_stage))
                defects.setdefault(label, report.defects)
        return out

    got = outcomes()
    # the rebuilt map of the former stage 6 puts every map that reaches
    # stage 6 on the same side of METRIC_TOL
    for label, T, phi in ladder:
        if "reconstruction" in defects.get(label, {}):
            want = reconstruction_by_rebuild(T, phi, label[-1])
            assert (defects[label]["reconstruction"] <= METRIC_TOL) == (want <= METRIC_TOL), label
    _inject_pi(monkeypatch, pi_by_four_polarizations)
    assert got == outcomes()
    # the operating range: every map whose reference state keeps its smallest
    # eigenvalue at 1e-4 or above accepts, and both extractors recover the
    # same pi there; below about 1e-5 some valid maps reject, with either
    # extractor
    for (label, T, phi), outcome in zip(ladder, got):
        if phi is not None and phi.min_eig() >= 1e-4:
            assert outcome[1] == "accept", label
            want = pi_by_four_polarizations(T, phi).matrix
            assert np.max(np.abs(extract_pi(T, phi).matrix - want)) <= ORACLE_TOL, label


def test_extract_pi_keeps_the_exponent_errors_of_a_map_call():
    data = random_isometry_data(1)
    T = build_isometry(data, 4.0)
    phi = data.reference_state
    outcome = _extraction_outcome(extract_pi, T.at_exponent(2.0), phi)
    assert outcome == _extraction_outcome(_extract_pi_by_projection, T.at_exponent(2.0), phi)
    assert outcome[0] is ExponentUnsupported
    # an exponent outside [1, inf) never reaches extract_pi: the map refuses it
    for p in (0.5, np.inf):
        with pytest.raises(ExponentUnsupported):
            T.at_exponent(p)


def test_extract_pi_makes_no_map_call_and_no_polar_decomposition(monkeypatch):
    import nclp.lp as lp_module

    data = random_isometry_data(2)
    T = build_isometry(data, 3.0)
    want = _extract_pi_by_projection(T, data.reference_state).matrix

    def refuse(*args, **kwargs):
        raise AssertionError("extract_pi called a per-vector routine")

    monkeypatch.setattr(LpMap, "__call__", refuse)
    monkeypatch.setattr(lp_module, "polar_decompose", refuse)
    monkeypatch.setattr(isometry_module, "polar_decompose", refuse)
    assert np.max(np.abs(extract_pi(T, data.reference_state).matrix - want)) <= ORACLE_TOL


def _clear_source_caches():
    for cached in (
        isometry_module._plan,
        isometry_module._slice_positions,
        isometry_module._polarization,
    ):
        cached.cache_clear()


def test_the_source_plan_is_computed_once_per_algebra(monkeypatch):
    import nclp.lp as lp_module
    from nclp.serialize import lp_map_from_json, lp_map_to_json

    T = build_isometry(random_isometry_data(3), 3.0)
    big = amplified_algebra(T.source, 2)
    positions, svds = [], []
    real_positions, real_svd = lp_module._amplified_positions, lp_module._singular_values

    def counted_positions(algebra, n, i, j):
        positions.append(algebra)
        return real_positions(algebra, n, i, j)

    def counted_svd(algebra, rows):
        svds.append(algebra)
        return real_svd(algebra, rows)

    for module in (lp_module, isometry_module):
        monkeypatch.setattr(module, "_amplified_positions", counted_positions)
        monkeypatch.setattr(module, "_singular_values", counted_svd)
    _clear_source_caches()
    cold = (isometry_defect(T), two_isometry_defect(T))
    # n^2 slice positions of the source per amplification, none of the
    # target, whose images are stacked blockwise; one source SVD per plan
    assert positions.count(T.source) == 1 + 4 and positions.count(T.target) == 0
    assert svds.count(T.source) == 1 and svds.count(big) == 1
    # an equal but distinct algebra, as read from JSON, finds the same plan
    U = lp_map_from_json(lp_map_to_json(T))
    assert U.source == T.source and U.source is not T.source
    positions.clear()
    svds.clear()
    assert (isometry_defect(U), two_isometry_defect(U)) == cold
    assert positions == [] and T.source not in svds and big not in svds

    plan = isometry_module._plan(T.source, 2, 60, 0)
    held = [a for a in plan if isinstance(a, np.ndarray)] + [group[0] for group in plan.groups]
    for array in (*held, *isometry_module._polarization(T.source)):
        with pytest.raises(ValueError):
            array[0] = 0.0
    with pytest.raises(ValueError):
        isometry_module._slice_positions(T.source, 2)[0, 0] = 0
    for key in ((3, 60, 0), (2, 30, 0), (2, 60, 1)):
        other = isometry_module._plan(T.source, *key).samples
        assert other.shape != plan.samples.shape or not np.array_equal(other, plan.samples)


def test_no_dense_amplified_matrix_is_built(monkeypatch):
    import nclp.lp as lp_module
    from nclp.samples import random_yeadon_triple
    from nclp.yeadon import jordan_dichotomy_report

    def refuse(*args, **kwargs):
        raise AssertionError("a dense amplified matrix was built")

    data = random_isometry_data(4)
    T = build_isometry(data, 3.0)
    triple, weights = random_yeadon_triple(2, 3.0)
    want = (
        classify(T, data.reference_state, 3.0).defects,
        two_isometry_defect(T, n=3),
        jordan_dichotomy_report(triple, 3.0, weights),
    )
    monkeypatch.setattr(lp_module, "amplify_map", refuse)
    _clear_source_caches()
    assert classify(T, data.reference_state, 3.0).defects == want[0]
    assert two_isometry_defect(T, n=3) == want[1]
    assert jordan_dichotomy_report(triple, 3.0, weights) == want[2]


def test_the_one_fold_amplified_defect_is_the_isometry_defect():
    # id_1 (x) T is T, and its witnesses are the unit basis
    T = LpMap(M2, M2, 3.0, 1.3 * transpose_permutation(M2))
    for relative in (True, False):
        want = isometry_defect(T, relative=relative)
        assert want > 0.1 and two_isometry_defect(T, n=1, relative=relative) == want
    with pytest.raises(ShapeMismatch):
        two_isometry_defect(T, n=0)


def test_extract_pi_takes_the_rank_threshold_across_blocks():
    # a target block faded to 1e-11 of the others holds singular values
    # below the threshold taken across blocks, though not below one taken
    # within that block; its supports are dropped, as polar_decompose does
    source, layout = BENCH_PLANS["M1"]
    for seed in range(4):
        data = random_isometry_data(seed, source, plan=layout)
        T = build_isometry(data, 3.0)
        off = data.target.offsets()[1]
        matrix = T.matrix.copy()
        matrix[off:] *= 1e-11
        F = LpMap(T.source, T.target, 3.0, matrix)
        pi = extract_pi(F, data.reference_state)
        assert not pi.matrix[off:].any()
        want = _extract_pi_by_projection(F, data.reference_state)
        assert np.max(np.abs(pi.matrix - want.matrix)) <= ORACLE_TOL


@pytest.mark.parametrize("blocks", [(1,), (2,), (3,), (4,), (2, 1), (1, 1, 2)])
def test_polarization_projections_are_exact(blocks):
    alg = make_algebra(blocks)
    P, C = isometry_module._polarization(alg)
    # a basis: one projection per dimension, so C is square
    assert P.shape == C.shape == (alg.total_dim, alg.total_dim)
    for row in P:
        x = AlgebraElement.from_vec(alg, row)
        assert np.array_equal((x @ x).vec(), row)
        assert np.array_equal(x.adjoint().vec(), row)
    # column u of P^T C is sum_r C[r, u] vec(P_r), which is vec(e_u)
    assert np.array_equal(P.T @ C, np.eye(alg.total_dim))


def test_extract_pi_runs_no_eigensolver(monkeypatch):
    data = random_isometry_data(2)
    T = build_isometry(data, 3.0)
    want = _extract_pi_by_projection(T, data.reference_state).matrix

    def refuse(*args, **kwargs):
        raise AssertionError("extract_pi ran an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert np.max(np.abs(extract_pi(T, data.reference_state).matrix - want)) <= ORACLE_TOL


@st.composite
def _canonical_instances(draw):
    """A source of at most 3 blocks of size at most 4; a plan that places
    every source block at least once into at most 3 target blocks of total
    matrix size at most 12; an exponent in [1, 50] other than 2; a seed."""
    source = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    count = draw(st.integers(1, 3))
    room = 12 - sum(source)
    targets = [{} for _ in range(count)]
    for b, n in enumerate(source):
        copies = 1 + draw(st.integers(0, room // n))
        room -= (copies - 1) * n
        for _ in range(copies):
            slot = targets[draw(st.integers(0, count - 1))]
            slot[b] = slot.get(b, 0) + 1
    plan = []
    for assigned in filter(None, targets):
        pad = draw(st.integers(0, room))
        room -= pad
        plan.append((sorted(assigned.items()), pad))
    p = draw(st.floats(1.0, 50.0).filter(lambda p: p != 2.0))
    return tuple(source), plan, p, draw(st.integers(0, 2**16))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_canonical_instances())
def test_classify_accepts_random_layouts_and_exponents(instance):
    source, plan, p, seed = instance
    data = random_isometry_data(seed, source, plan=plan)
    T = build_isometry(data, p)
    report = classify(T, data.reference_state, p)
    assert report.accepted, report.failing_stage
    want = _extract_pi_by_projection(T, data.reference_state).matrix
    assert np.max(np.abs(report.data.pi.matrix - want)) <= ORACLE_TOL


def test_classify_reads_the_reference_vector_at_the_exponent_of_the_map():
    # 1 / (1 / 49) is 49.00000000000001, an exponent the map at 49 refuses
    assert 1.0 / (1.0 / 49.0) != 49.0
    data = random_isometry_data(0)
    assert classify(build_isometry(data, 49.0), data.reference_state, 49.0).accepted


@pytest.mark.parametrize("p", [1.0, 3.0, 7.5])
def test_classify_accepts_a_map_out_of_the_scalars(p):
    # M_1 has no structured witness, so the amplified defect is sampled only
    data = random_isometry_data(3, (1,), plan=[([(0, 1)], 1)])
    report = classify(build_isometry(data, p), data.reference_state, p)
    assert report.accepted and report.defects["two_isometry"] <= METRIC_TOL


def test_classify_refuses_a_state_on_another_algebra():
    phi = random_faithful_state(make_algebra([3]), 1)
    # a contraction and an isometry alike
    for T in (LpMap(M2, M2, 3.0, 2.0 * np.eye(4)), LpMap.identity(M2, 3.0)):
        with pytest.raises(DataInvalid, match="state lives on a different algebra"):
            classify(T, phi, 3.0)


def test_classify_skips_the_amplified_defect_on_an_isometry_reject(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the amplified defect was measured")

    monkeypatch.setattr(isometry_module, "two_isometry_defect", refuse)
    phi = random_faithful_state(M2, 2)
    report = classify(LpMap(M2, M2, 3.0, 0.5 * np.eye(4)), phi, 3.0)
    assert report.failing_stage == "isometry"
    assert list(report.defects) == ["isometry"]


# -- the metric defects on the joint supports of the images ----------------------

# the instance plans of the benchmark workloads: (source blocks, target plan)
_BENCHMARK_PLANS = {
    "P2": ((2,), [([(0, 1)], 2)]),
    "P3": ((3,), [([(0, 1)], 2)]),
    "P4": ((4,), [([(0, 1)], 2)]),
    "M1": ((2, 1), [([(0, 2), (1, 1)], 1), ([(0, 1)], 1)]),
    "M2": ((3,), [([(0, 2)], 0)]),
}


def _moved(T, eps, seed):
    """T plus seeded complex noise of relative Frobenius size eps."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(T.matrix.shape) + 1j * rng.standard_normal(T.matrix.shape)
    noise *= eps * np.linalg.norm(T.matrix) / np.linalg.norm(noise)
    return LpMap(T.source, T.target, T.p, T.matrix + noise)


def _plan(F, n, weights=None):
    """The plan of the sampled defect of id_n (x) F, its norms and its rows
    written out (`plan_rows`)."""
    plan = isometry_module._plan(F.source, n, 60, 0)
    return plan, plan.norms(F.p, weights), plan_rows(F.source, plan)


def _admitted(supports, rows, norms):
    """The blocks the allowance admits: rank-deficient blocks in increasing
    order of their term, while max_h ||h||_l1 / ||h||_p times the summed
    terms stays within SUPPORT_ALLOWANCE; and that largest ratio."""
    keep = ~(norms < 1e-14)
    ratio = float(np.max(np.abs(rows[keep]).sum(axis=1) / norms[keep], initial=0.0))
    deficient = [(t, b) for b, (m, kl, kr, t) in enumerate(supports) if (kl, kr) != (m, m)]
    chosen, bound = set(), 0.0
    for term, b in sorted(deficient):
        bound += term
        if ratio * bound > SUPPORT_ALLOWANCE:
            break
        chosen.add(b)
    return chosen, ratio


def _assert_full_images(F):
    """No block compresses, and both sampled defects are those of the full
    images: bitwise for p < 2, where both read the SVD, and within the
    rounding of the Gram eigenvalues for p >= 2."""
    for n in (1, 2):
        plan, norms, rows = _plan(F, n)
        assert isometry_module._compressed_blocks(F, plan, norms) == set()
        for relative in (True, False):
            want = norm_defect_on_full_images(F, n, rows, norms, relative)
            got = isometry_module._norm_defect(F, plan, norms, relative)
            if F.p < 2.0:
                assert got == want
            else:
                assert abs(got - want) <= rounding_room(F, n, norms, want, relative)


@st.composite
def _off_support_instances(draw):
    """A canonical instance whose first target block is padded by at least
    one, so that its images have rank-deficient supports, and the relative
    size eps of a seeded component off them: 0 or a decade 1e-16 to 1e-6."""
    source, ((assigned, pad), *rest), p, seed = draw(_canonical_instances())
    eps = draw(st.one_of(st.just(0.0), st.integers(6, 16).map(lambda k: 10.0**-k)))
    return source, [(assigned, max(pad, 1)), *rest], p, seed, eps


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_off_support_instances())
def test_the_defects_on_the_image_supports_stay_within_the_allowance(instance):
    source, plan, p, seed, eps = instance
    F = _moved(build_isometry(random_isometry_data(seed, source, plan=plan), p), eps, seed)
    supports = image_supports(F)
    for n in (1, 2):
        plan, norms, rows = _plan(F, n)
        chosen, ratio = _admitted(supports, rows, norms)
        assert isometry_module._compressed_blocks(F, plan, norms) == chosen
        for relative in (True, False):
            got = isometry_module._norm_defect(F, plan, norms, relative)
            want = norm_defect_on_full_images(F, n, rows, norms, relative)
            if not chosen and p < 2.0:
                assert got == want
            else:
                # the admitted terms change each norm by at most the
                # allowance times ||h||_p, and each computed norm rounds
                allowance = SUPPORT_ALLOWANCE if chosen else 0.0
                room = rounding_room(F, n, norms, want, relative, allowance)
                assert abs(got - want) <= room


def test_a_map_1e9_off_its_supports_is_measured_on_the_full_images():
    T = build_isometry(random_isometry_data(1), 3.0)
    plan, norms, _ = _plan(T, 2)
    assert isometry_module._compressed_blocks(T, plan, norms)
    F = _moved(T, 1e-9, 1)
    # the moved images have full rank: nothing to compress, the parent's bits
    assert all(kl == kr == m for m, kl, kr, _ in image_supports(F))
    _assert_full_images(F)


@pytest.mark.parametrize("seed", range(4))
def test_the_benchmark_plans_compress_exactly_their_canonical_rank_deficient_maps(seed):
    for name, (source, plan) in _BENCHMARK_PLANS.items():
        data = random_isometry_data(seed, source, plan=plan)
        for p in (1.0, 3.0, 7.0):
            T = build_isometry(data, p)
            if name == "M2":
                _assert_full_images(T)
            else:
                for n in (1, 2):
                    assert isometry_module._compressed_blocks(T, *_plan(T, n)[:2])
            # the perturbed maps of the reject workload keep every bit
            _assert_full_images(_moved(T, 1e-5, seed))


@pytest.mark.parametrize("name", ["P2", "P4", "M1"])
def test_transposed_maps_measured_on_their_supports_reject_at_multiplicativity(name):
    source, plan = _BENCHMARK_PLANS[name]
    for seed in range(3):
        data = random_isometry_data(seed, source, plan=plan)
        for p in (1.0, 3.0):
            T = build_isometry(data, p)
            F = LpMap(T.source, T.target, p, T.matrix @ transpose_permutation(T.source))
            assert isometry_module._compressed_blocks(F, *_plan(F, 2)[:2])
            report = classify(F, data.reference_state, p)
            assert report.verdict == "reject" and report.failing_stage == "multiplicativity"
            assert report.defects["isometry"] <= METRIC_TOL


# -- the row and column witnesses read off Gram sums of the unit images ---------

GRAM_SUM_EXPONENTS = (2.0, 2.5, 3.0, 7.0, 50.0)


def _assert_gram_sum_norms(F, weights=None):
    """On the n = 2 plan of F: the image norms of the row and column
    witnesses are those of their full stacks within `gram_bounds` of their
    Gram sums, (k_l, 2 k_r) and (k_r, 2 k_l) per block, plus the SVD's
    rounding; every other row reads the stacks' kernel bit for bit; and
    `two_isometry_defect`, whose source norms take the weights and whose
    image norms take none, is the defect of the full stacks within that room.
    Returns the plan and the measured (k_l, k_r) of each block."""
    plan, norms, rows = _plan(F, 2, weights)
    _, shapes = isometry_module._measured_matrix(F, plan, norms)
    stacks = isometry_module._image_stacks(F, plan, norms)
    got = isometry_module._image_norms(F, plan, norms)
    want = np.array(_grouped_norms(_stack_groups(stacks), F.p))
    others = plan.others
    kernel = _stack_groups([stack[others] for stack in stacks], F.p, images=True)
    assert got[others].tobytes() == np.array(_grouped_norms(kernel, F.p)).tobytes()
    # the other rows read their own Gram matrices for p >= 2
    count = len(plan.pairs)
    sides = (
        (others, [(min(kl, kr) * 2, max(kl, kr) * 2) for kl, kr in shapes]),
        (plan.witnesses[:count], [(kl, 2 * kr) for kl, kr in shapes]),
        (plan.witnesses[count:], [(kr, 2 * kl) for kl, kr in shapes]),
    )
    room = np.zeros(len(rows))
    for part, grams in sides:
        relative, absolute = gram_bounds(grams, F.p)
        room[part] = (relative + NORM_ROUNDING) * want[part] + absolute
    assert (np.abs(got - want) <= room).all()
    keep = ~(norms < 1e-14)
    for relative in (True, False):
        scale = norms[keep] if relative else 1.0
        oracle = float(np.max(np.abs(want[keep] - norms[keep]) / scale))
        defect = two_isometry_defect(F, source_weights=weights, relative=relative)
        assert abs(defect - oracle) <= np.max(room[keep] / scale)
    return plan, shapes


@pytest.mark.parametrize("name", sorted(_BENCHMARK_PLANS))
def test_gram_sum_witness_norms_are_the_full_images_within_the_gram_bound(name):
    source, plan = _BENCHMARK_PLANS[name]
    weights = tuple(np.linspace(0.5, 1.5, len(source)))
    for seed in range(2):
        data = random_isometry_data(seed, source, plan=plan)
        for p in GRAM_SUM_EXPONENTS:
            T = build_isometry(data, p)
            # the canonical map, measured on its supports but for M2, and a
            # perturbed one, measured on the full images
            for F in (T, _moved(T, 1e-5, seed)):
                measured, _ = _assert_gram_sum_norms(F)
                assert measured.witnesses.size
                _assert_gram_sum_norms(F, weights)


def test_gram_sums_on_the_smallest_sources():
    # M_1 has no row or column witness; (1, 1) has one of each, across its
    # two blocks
    for source, plan, count in (((1,), [([(0, 1)], 1)], 0), ((1, 1), [([(0, 1), (1, 1)], 1)], 1)):
        data = random_isometry_data(0, source, plan=plan)
        for p in GRAM_SUM_EXPONENTS:
            for weights in (None, tuple(np.linspace(0.5, 1.5, len(source)))):
                measured, _ = _assert_gram_sum_norms(build_isometry(data, p), weights)
                assert len(measured.pairs) == count


def _rank_one_corner_map(p, seed):
    """x -> a pi(x) b for the corner embedding pi of M_2 in M_3, with
    a = v v* for a seeded unit vector v and b a seeded unitary: its images
    span a left support of rank 1 and a right support of rank 2."""
    rng = rng_for(seed)
    M3 = make_algebra([3])
    corner = np.zeros((9, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            corner[3 * i + j, 2 * i + j] = 1.0
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    a = AlgebraElement(M3, [np.outer(v, v.conj())])
    b = AlgebraElement(M3, [haar_unitary(3, rng)])
    return LpMap(M2, M3, p, left_mult_matrix(a) @ right_mult_matrix(b) @ corner)


def test_gram_sums_on_a_block_whose_supports_differ_in_rank():
    for seed in range(3):
        for p in GRAM_SUM_EXPONENTS:
            F = _rank_one_corner_map(p, seed)
            assert [(m, kl, kr) for m, kl, kr, _ in image_supports(F)] == [(3, 1, 2)]
            _, shapes = _assert_gram_sum_norms(F)
            # the block is measured on its supports, (k_l, k_r) = (1, 2)
            assert shapes == [(1, 2)]


# -- the norms at p in {2, 4}, read off Gram traces ------------------------------


def _assert_trace_norms(F, weights=None):
    """On the n = 2 plan of F, p = F.p in {2, 4}: the image norms of
    the defects are those of their full stacks within `trace_bounds` plus
    the SVD's rounding, of (k_l, 2 k_r) and (k_r, 2 k_l) per block for the
    row and column witnesses and of each block's own Gram matrix for every
    other row."""
    plan, norms, _ = _plan(F, 2, weights)
    _, shapes = isometry_module._measured_matrix(F, plan, norms)
    stacks = isometry_module._image_stacks(F, plan, norms)
    got = isometry_module._image_norms(F, plan, norms)
    want = np.array(_grouped_norms(_stack_groups(stacks), F.p))
    count = len(plan.pairs)
    sides = (
        (plan.others, [(min(kl, kr) * 2, max(kl, kr) * 2) for kl, kr in shapes]),
        (plan.witnesses[:count], [(kl, 2 * kr) for kl, kr in shapes]),
        (plan.witnesses[count:], [(kr, 2 * kl) for kl, kr in shapes]),
    )
    for part, grams in sides:
        room = (trace_bounds(grams, F.p) + NORM_ROUNDING) * want[part]
        assert (np.abs(got[part] - want[part]) <= room).all()


@pytest.mark.parametrize("name", sorted(_BENCHMARK_PLANS))
def test_trace_norms_are_the_full_images_within_the_trace_bound(name):
    # the canonical map, a perturbed one, and both scaled so that the traces
    # overflow (2^300) or underflow (2^-300 at p = 4), where the refused
    # ones read the SVD of their stacks
    source, plan = _BENCHMARK_PLANS[name]
    data = random_isometry_data(0, source, plan=plan)
    for p in _TRACE_EXPONENTS:
        T = build_isometry(data, p)
        for F in (T, _moved(T, 1e-5, 0)):
            for scale in (1.0, 2.0**300, 2.0**-300):
                _assert_trace_norms(LpMap(F.source, F.target, p, scale * F.matrix))
        _assert_trace_norms(_rank_one_corner_map(p, 0))


@pytest.mark.parametrize("name", sorted(_BENCHMARK_PLANS))
def test_stage_one_at_p_4_calls_no_lapack_routine(monkeypatch, name):
    """Once the map keeps its image supports and the plans are kept, both
    sampled defects of `classify` at p = 4 read Gram traces alone: neither
    np.linalg.svd nor np.linalg.eigvalsh is called, and the defects stay."""
    source, plan = _BENCHMARK_PLANS[name]
    T = build_isometry(random_isometry_data(0, source, plan=plan), 4.0)
    want = (isometry_defect(T), two_isometry_defect(T, n=2, relative=True))
    calls = []
    for routine in ("svd", "eigvalsh"):
        real = getattr(np.linalg, routine)

        def counted(*args, _real=real, _routine=routine, **kwargs):
            calls.append(_routine)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, routine, counted)
    got = (isometry_defect(T), two_isometry_defect(T, n=2, relative=True))
    assert calls == [] and got == want
