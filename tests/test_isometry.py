import numpy as np
import pytest

from nclp.algebra import (
    AlgebraElement,
    AlgebraMap,
    State,
    homomorphism_kind,
    left_mult_matrix,
    make_algebra,
    matrix_units,
    random_faithful_state,
    transpose_permutation,
)
import nclp.expectation as expectation_module
import nclp.isometry as isometry_module
from nclp.errors import (
    DataInvalid,
    ExponentMismatch,
    ExponentUnsupported,
    NotAnIsometry,
    ShapeMismatch,
)
from nclp.expectation import Subalgebra, construct_expectation
from nclp.isometry import (
    METRIC_TOL,
    build_isometry,
    classify,
    extract_pi,
    extract_polar_data,
    isometry_defect,
    star_adjoint_dual,
    structured_witnesses,
    transfer_exponent,
    two_isometry_defect,
    verify_state_restriction,
)
from nclp.lp import LpMap, LpVector, amplify_map, lp_norm, state_power, tensor_embed
from nclp.samples import (
    haar_unitary,
    random_element,
    random_isometry_data,
    random_lp_vector,
    rng_for,
)

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
    assert isometry_defect(T, 3.0) < 1e-12


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
            assert isometry_defect(T, p, sample_count=40) < 1e-9
            assert two_isometry_defect(T, p, n=2, sample_count=30, relative=True) < 1e-9


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
    pi = extract_pi(T, phi, 3.0)
    assert np.max(np.abs(pi.matrix - np.eye(4))) < 1e-10

    data = random_isometry_data(7)
    Tf = build_isometry(data, 3.0)
    pi_rec = extract_pi(Tf, data.reference_state, 3.0)
    assert np.max(np.abs(pi_rec.matrix - data.pi.matrix)) < 1e-9


def test_extract_pi_transpose_is_jordan_only():
    phi = State(M2, [np.eye(2) / 2])
    T = LpMap(M2, M2, 3.0, transpose_permutation(M2))
    pi = extract_pi(T, phi, 3.0)
    assert homomorphism_kind(pi).kind == "jordan_only"


def test_extract_pi_rejects_p2():
    phi = random_faithful_state(M2, 1)
    with pytest.raises(ExponentUnsupported):
        extract_pi(LpMap.identity(M2, 2.0), phi, 2.0)


def test_extract_pi_rejects_structureless_map():
    from nclp.errors import NotAnIsometry

    phi = random_faithful_state(M2, 1)
    rng = rng_for(3)
    garbage = LpMap(M2, M2, 3.0, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    with pytest.raises(NotAnIsometry):
        extract_pi(garbage, phi, 3.0)


def test_extract_polar_data_zero_image():
    from nclp.errors import ZeroImage

    phi = random_faithful_state(M2, 1)
    with pytest.raises(ZeroImage):
        extract_polar_data(LpMap(M2, M2, 3.0, np.zeros((4, 4))), phi, 3.0)


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
    pi1 = extract_pi(T, data.reference_state, 3.0)
    pi2 = extract_pi(T, random_faithful_state(data.source, 77), 3.0)
    assert np.max(np.abs(pi1.matrix - pi2.matrix)) < 1e-8


def test_extract_polar_data():
    phi = random_faithful_state(M2, 3)
    T = LpMap.identity(M2, 3.0)
    w, phibar = extract_polar_data(T, phi, 3.0)
    assert (w - AlgebraElement.identity(M2)).frobenius() < 1e-10
    assert (phibar.density - phi.density).frobenius() < 1e-10

    u = AlgebraElement(M2, [haar_unitary(2, rng_for(8))])
    Tu = LpMap(M2, M2, 3.0, left_mult_matrix(u))
    wu, phibar_u = extract_polar_data(Tu, phi, 3.0)
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
    dual = star_adjoint_dual(T, 3.0)
    assert np.allclose(dual.matrix, np.eye(4))
    assert np.isclose(dual.p, 1.5)

    u = AlgebraElement(M2, [haar_unitary(2, rng_for(3))])
    Tu = LpMap(M2, M2, 3.0, left_mult_matrix(u))
    dual_u = star_adjoint_dual(Tu, 3.0)
    assert np.max(np.abs(dual_u.matrix - left_mult_matrix(u.adjoint()))) < 1e-12

    with pytest.raises(ExponentUnsupported):
        star_adjoint_dual(LpMap.identity(M2, 1.0), 1.0)


def test_star_adjoint_dual_pairing_identity():
    # sesquilinear identity tr(dual(k)* h) = tr(k* T(h)) for a generic map
    rng = rng_for(23)
    T = LpMap(M2, M2, 3.0, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    dual = star_adjoint_dual(T, 3.0)
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
    comp = star_adjoint_dual(Tpp, pp).matrix @ Tp.matrix
    assert np.max(np.abs(comp - np.eye(Tp.source.total_dim))) < 1e-9


def test_transfer_exponent_rebuild_and_extrapolation():
    data = random_isometry_data(9)
    T3 = build_isometry(data, 3.0)
    again = transfer_exponent(data.pi, data.reference_state, data.phibar, data.w, 3.0)
    assert np.max(np.abs(T3.matrix - again.matrix)) < 1e-10
    assert isometry_defect(T3, 3.0) < 1e-9
    for q in (2.5, 4.0, 7.0):
        Tq = transfer_exponent(data.pi, data.reference_state, data.phibar, data.w, q)
        assert isometry_defect(Tq, q, sample_count=40) < 1e-9


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
    assert two_isometry_defect(T, 1.0, n=2, sample_count=0) >= 2.0 - 1e-12
    assert two_isometry_defect(LpMap.identity(M2, 3.0), 3.0, n=2) < 1e-12


def test_positive_factory_maps_preserve_positivity():
    data = random_isometry_data(0, w_positive=True)
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
    assert two_isometry_defect(T, 4.0, n=3, sample_count=20, relative=True) < 1e-9


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


def test_extract_pi_rejects_map_off_the_module_relation():
    data = random_isometry_data(3)
    T = build_isometry(data, 3.0)
    rng = rng_for(8)
    noise = rng.standard_normal(T.matrix.shape) + 1j * rng.standard_normal(T.matrix.shape)
    perturbed = LpMap(T.source, T.target, 3.0, T.matrix + 1e-2 * noise / np.linalg.norm(noise))
    with pytest.raises(NotAnIsometry, match="module relation"):
        extract_pi(perturbed, data.reference_state, 3.0)


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


def _isometry_defect_by_samples(T, p, weights=None, relative=True):
    rng = np.random.default_rng(0)
    samples = [LpVector.from_element(u, p) for u in matrix_units(T.source)]
    return _max_norm_defect(T, samples + _sample_vectors(T.source, p, 60, rng), weights, relative)


def _two_isometry_defect_by_samples(T, p, weights=None, relative=False):
    big = amplify_map(T, 2)
    rng = np.random.default_rng(0)
    samples = structured_witnesses(T.source, p, 2) + _sample_vectors(big.source, p, 60, rng)
    return _max_norm_defect(big, samples, weights, relative)


def _reconstruction_by_units(T, rebuilt, phi, p):
    rho_pow = phi.power_element(1.0 / p)
    recon = 0.0
    for u in matrix_units(T.source):
        h = LpVector.from_element(rho_pow @ u, p)
        scale = max(lp_norm(h), 1e-14)
        recon = max(recon, lp_norm(T(h) - rebuilt(h)) / scale)
    return recon


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_metric_defects_equal_the_sample_loops(seed, p):
    data = random_isometry_data(seed)
    T = build_isometry(data, p)
    S = LpMap(T.source, T.source, p, transpose_permutation(T.source))
    weights = tuple(np.linspace(0.5, 1.5, len(T.source.blocks)))
    for F in (T, T.compose(S)):
        for relative in (True, False):
            assert isometry_defect(F, p, relative=relative) == _isometry_defect_by_samples(
                F, p, relative=relative
            )
            assert two_isometry_defect(F, p, relative=relative) == (
                _two_isometry_defect_by_samples(F, p, relative=relative)
            )
        assert isometry_defect(F, p, source_weights=weights) == (
            _isometry_defect_by_samples(F, p, weights)
        )
        assert two_isometry_defect(F, p, source_weights=weights) == (
            _two_isometry_defect_by_samples(F, p, weights)
        )
    report = classify(T, data.reference_state, p)
    rebuilt = build_isometry(report.data, p)
    assert report.defects["reconstruction"] == _reconstruction_by_units(
        T, rebuilt, data.reference_state, p
    )


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


def test_isometry_defects_check_the_exponent():
    T = build_isometry(random_isometry_data(1), 3.0)
    for defect in (isometry_defect, two_isometry_defect):
        with pytest.raises(ExponentMismatch):
            defect(T, 4.0)


def test_metric_defects_survive_large_exponents():
    # at p = 1000 the sums of p-th powers overflow and underflow
    data = random_isometry_data(0)
    T = build_isometry(data, 1000.0)
    scaled = LpMap(T.source, T.target, 1000.0, 1.3 * T.matrix)
    assert isometry_defect(scaled, 1000.0) == pytest.approx(0.3, abs=1e-12)
    report = classify(T, data.reference_state, 1000.0)
    assert report.accepted
    assert all(np.isfinite(v) for v in report.defects.values())
    assert report.defects["reconstruction"] < METRIC_TOL


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
    T = build_isometry(data, 3.0)
    _nan_rows(monkeypatch, lambda algebra, rows: True)
    report = classify(T, data.reference_state, 3.0)
    assert report.verdict == "reject" and report.failing_stage == "isometry"
    assert np.isnan(report.defects["isometry"])


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
