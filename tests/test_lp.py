import warnings

import numpy as np
import pytest

from nclp.algebra import (
    AlgebraElement,
    Projection,
    make_algebra,
    matrix_units,
    random_faithful_state,
)
from nclp.errors import ExponentMismatch, ExponentUnsupported, NotPositive, ShapeMismatch
from nclp.isometry import grid_witness
from nclp.lp import (
    LpMap,
    LpVector,
    amplify_map,
    clarkson_defect,
    lp_norm,
    lp_norms,
    mazur_map,
    polar_decompose,
    state_power,
    tensor_embed,
    trace_pairing,
)
from nclp.samples import random_element, random_lp_vector, rng_for

M2 = make_algebra([2])


def _vec(alg, p, *blocks):
    return LpVector(alg, p, [np.array(b, dtype=complex) for b in blocks])


def test_lp_norm_examples():
    for p in (1.0, 2.0, 3.0, 4.5):
        assert np.isclose(lp_norm(_vec(M2, p, [[1, 0], [0, 0]])), 1.0)
    assert np.isclose(lp_norm(_vec(M2, 3.0, np.eye(2))), 2 ** (1 / 3))
    phi = random_faithful_state(M2, 5)
    for p in (1.0, 2.5, 4.0):
        assert np.isclose(lp_norm(state_power(phi, 1 / p)), 1.0)


def test_exponent_range_enforced():
    with pytest.raises(ExponentUnsupported):
        _vec(M2, 0.5, np.eye(2))
    with pytest.raises(ExponentUnsupported):
        state_power(random_faithful_state(M2, 1), 1.5)


def test_arithmetic_keeps_the_exponent():
    rng = rng_for(2)
    h = random_lp_vector(M2, 3.0, rng)
    a = random_element(M2, rng)
    for out in (h + h, h - h, -h, 2 * h, h * 1j, h @ a, a @ h, h @ h, h.adjoint()):
        assert type(out) is LpVector and out.p == 3.0
    assert type(a @ a) is AlgebraElement
    e = Projection(M2, [np.diag([1.0, 0.0])])
    assert type(e @ e) is AlgebraElement and type(e.adjoint()) is AlgebraElement
    with pytest.raises(ExponentMismatch):
        h + random_lp_vector(M2, 1.5, rng)


def test_lp_map_rejects_a_vector_at_another_exponent():
    T = LpMap.identity(M2, 3.0)
    assert T(_vec(M2, 3.0, np.eye(2))).p == 3.0
    with pytest.raises(ExponentMismatch):
        T(_vec(M2, 4.0, np.eye(2)))


def test_lp_map_rejects_non_finite():
    from nclp.errors import NonFinite
    from nclp.lp import LpMap

    for bad in (np.nan, np.inf, complex(0, np.nan)):
        matrix = np.eye(4, dtype=complex)
        matrix[3, 0] = bad
        with pytest.raises(NonFinite):
            LpMap(M2, M2, 3.0, matrix)


def test_polar_positive_matrix():
    h = _vec(M2, 3.0, [[0.6, 0], [0, 0.4]])
    pol = polar_decompose(h)
    assert (pol.w - AlgebraElement.identity(M2)).frobenius() < 1e-12
    assert (pol.modulus - h).frobenius() < 1e-12


def test_polar_single_matrix_unit():
    h = _vec(M2, 3.0, [[0, 1], [0, 0]])
    pol = polar_decompose(h)
    assert np.allclose(pol.w.data[0], [[0, 1], [0, 0]])
    assert np.allclose(pol.modulus.data[0], [[0, 0], [0, 1]])
    assert np.allclose(pol.s_left.data[0], [[1, 0], [0, 0]])
    assert np.allclose(pol.s_right.data[0], [[0, 0], [0, 1]])


def test_polar_zero():
    pol = polar_decompose(LpVector.zero_at(M2, 2.0))
    for part in (pol.w, pol.modulus, pol.s_left, pol.s_right):
        assert part.frobenius() == 0


def test_polar_invariants_random():
    alg = make_algebra([2, 3])
    rng = rng_for(12)
    for _ in range(25):
        h = random_lp_vector(alg, 3.0, rng)
        pol = polar_decompose(h)
        assert (pol.w @ pol.modulus - h).frobenius() < 1e-10
        assert (pol.w.adjoint() @ pol.w - pol.s_right).frobenius() < 1e-10
        assert (pol.w @ pol.w.adjoint() - pol.s_left).frobenius() < 1e-10
        assert (polar_decompose(pol.modulus).s_right - pol.s_right).frobenius() < 1e-9


def test_support_identities():
    alg = make_algebra([3])
    rng = rng_for(21)
    for _ in range(20):
        h = random_lp_vector(alg, 3.0, rng)
        pol = polar_decompose(h)
        assert (pol.s_left @ h - h).frobenius() < 1e-10
        assert (h @ pol.s_right - h).frobenius() < 1e-10
        x = random_element(alg, rng)
        sr_xh = polar_decompose(x @ h).s_right
        # right support can only shrink under left multiplication
        assert (sr_xh @ pol.s_right - sr_xh).frobenius() < 1e-8


def test_state_power_diagonal_oracle():
    alg = make_algebra([2])
    phi_density = np.diag([0.7, 0.3])
    from nclp.algebra import State

    phi = State(alg, [phi_density])
    for alpha in (0.25, 0.5, 1.0):
        expected = np.diag([0.7**alpha, 0.3**alpha])
        got = state_power(phi, alpha)
        assert np.allclose(got.data[0], expected)
        assert got.p == 1 / alpha
    half = state_power(State(alg, [np.eye(2) / 2]), 0.5)
    assert np.allclose(half.data[0], np.eye(2) / np.sqrt(2))


def test_trace_pairing_examples():
    phi = random_faithful_state(M2, 9)
    for p in (1.5, 3.0):
        pp = p / (p - 1)
        val = trace_pairing(state_power(phi, 1 / p), state_power(phi, 1 / pp))
        assert np.isclose(val, 1.0)
    x = _vec(M2, 3.0, [[1, 0], [0, 0]])
    y = _vec(M2, 1.5, [[0, 0], [0, 1]])
    assert trace_pairing(x, y) == 0
    with pytest.raises(ExponentMismatch):
        trace_pairing(x, _vec(M2, 3.0, np.eye(2)))


def test_trace_pairing_p1_pairs_with_algebra():
    phi = random_faithful_state(M2, 2)
    one = AlgebraElement.identity(M2)
    val = trace_pairing(state_power(phi, 1.0), one)
    assert np.isclose(val, 1.0)


def test_trace_pairing_hoelder_sampled():
    alg = make_algebra([2, 2])
    rng = rng_for(3)
    for p in (1.5, 3.0):
        pp = p / (p - 1)
        for _ in range(40):
            x = random_lp_vector(alg, p, rng)
            y = random_lp_vector(alg, pp, rng)
            assert abs(trace_pairing(x, y)) <= lp_norm(x) * lp_norm(y) + 1e-10


def test_duality_attainment():
    # the witness y = m^(p-1) w* / |h|^(p-1) attains the norm in the pairing,
    # and random unit vectors never exceed it
    alg = make_algebra([2, 3])
    rng = rng_for(17)
    for p in (1.5, 3.0, 4.0):
        pp = p / (p - 1)
        h = random_lp_vector(alg, p, rng)
        nh = lp_norm(h)
        pol = polar_decompose(h)
        m_pow = mazur_map(pol.modulus, pp)  # modulus^(p-1) with exponent p'
        y = LpVector.from_element(m_pow @ pol.w.adjoint(), pp) * (1.0 / nh ** (p - 1))
        assert np.isclose(lp_norm(y), 1.0)
        assert np.isclose(trace_pairing(h, y).real, nh)
        for _ in range(200):
            z = random_lp_vector(alg, pp, rng)
            z = z * (1.0 / lp_norm(z))
            assert abs(trace_pairing(h, z)) <= nh + 1e-9


def test_clarkson_examples():
    h = _vec(M2, 3.0, [[1, 0], [0, 0]])
    k = _vec(M2, 3.0, [[0, 0], [0, 1]])
    res = clarkson_defect(h, k)
    assert res.defect < 1e-12 and res.orthogonal

    res_same = clarkson_defect(h, h)
    assert np.isclose(res_same.defect, 4.0)
    assert not res_same.orthogonal

    # h = e11, k = e12 at p = 4: |h+k|_4^4 = |h-k|_4^4 = 4 while the right
    # side is 2 (1 + 1) = 4... direct singular values: (h+k)(h+k)* = 2 e11
    k2 = _vec(M2, 4.0, [[0, 1], [0, 0]])
    h2 = _vec(M2, 4.0, [[1, 0], [0, 0]])
    res_mixed = clarkson_defect(h2, k2)
    assert np.isclose(res_mixed.defect, 4.0)
    assert not res_mixed.orthogonal
    assert np.isclose(res_mixed.witness, 1.0)


def test_clarkson_forward_exact_all_p():
    # exact orthogonality gives exact equality, p = 2 included
    alg = make_algebra([2, 2])
    rng = rng_for(8)
    for p in (1.0, 2.0, 3.0, 4.0):
        for _ in range(30):
            g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = LpVector(alg, p, [g1, np.zeros((2, 2))])
            k = LpVector(alg, p, [np.zeros((2, 2)), g2])
            res = clarkson_defect(h, k)
            assert res.orthogonal
            assert res.defect < 10 * alg.atol


def test_clarkson_converse_sampled():
    rng = rng_for(14)
    for p in (1.0, 1.5, 3.0, 4.0):
        for _ in range(40):
            h = random_lp_vector(M2, p, rng)
            k = random_lp_vector(M2, p, rng)
            h = h * (1.0 / lp_norm(h))
            k = k * (1.0 / lp_norm(k))
            res = clarkson_defect(h, k)
            if res.witness > 0.1:
                assert res.defect > 1e-6


def _lp_norm_by_blocks(h, weights=None):
    """Reference: the per-block loop lp_norm ran before the stacked SVD."""
    total = 0.0
    for idx, b in enumerate(h.data):
        s = np.linalg.svd(b, compute_uv=False)
        w = 1.0 if weights is None else float(weights[idx])
        total += w * float(np.sum(s**h.p))
    return float(total ** (1.0 / h.p))


@pytest.mark.parametrize("blocks", [(2,), (3,), (1, 2), (2, 1, 3)])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 7.0])
def test_lp_norms_equal_the_block_loop(blocks, p):
    alg = make_algebra(blocks)
    rng = rng_for(5)
    vecs = [random_lp_vector(alg, p, rng) for _ in range(12)]
    rows = np.stack([h.vec() for h in vecs])
    for weights in (None, tuple(rng.uniform(0.5, 2.0, len(blocks)))):
        got = lp_norms(alg, p, rows, weights)
        assert np.array_equal(got, [_lp_norm_by_blocks(h, weights) for h in vecs])
        assert np.array_equal(got, [lp_norm(h, weights) for h in vecs])
    with pytest.raises(ShapeMismatch):
        lp_norms(alg, p, rows, (1.0,) * (len(blocks) + 1))


def test_lp_norms_rescale_overflow_and_underflow():
    M3 = make_algebra([3])
    alg = make_algebra([1, 2])
    rng = rng_for(6)
    plain = [random_lp_vector(alg, 100.0, rng) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # sum s^p is inf for 4 I_3 and 0 for 0.5 I_3 at p = 2000
        assert lp_norm(_vec(M3, 2000.0, 4 * np.eye(3))) == pytest.approx(4.0022, abs=1e-4)
        assert lp_norm(_vec(M3, 2000.0, 0.5 * np.eye(3))) == pytest.approx(0.5003, abs=1e-4)
        for c in (1e6, 1e-6):
            rows = np.stack([h.vec() for h in plain] + [c * h.vec() for h in plain])
            got = lp_norms(alg, 100.0, rows, (2.0, 0.5))
            expected = [_lp_norm_by_blocks(h, (2.0, 0.5)) for h in plain]
            # rows that neither overflow nor underflow keep the plain arithmetic
            assert np.array_equal(got[:3], expected)
            assert np.allclose(got[3:], c * np.array(expected), rtol=1e-13, atol=0)
        # finite norms whose p-th powers overflow neither raise nor warn
        h = _vec(M3, 2000.0, np.diag([4.0, 0, 0]))
        assert clarkson_defect(h, _vec(M3, 2000.0, np.diag([0, 4.0, 0]))).orthogonal
        assert not clarkson_defect(h, _vec(M3, 2000.0, np.diag([1.0, 0, 0]))).orthogonal


def _clarkson_by_norms(h, k):
    """Reference: the parallelogram defect from four separate norms."""
    p = h.p
    lhs = _lp_norm_by_blocks(h + k) ** p + _lp_norm_by_blocks(h - k) ** p
    rhs = 2.0 * (_lp_norm_by_blocks(h) ** p + _lp_norm_by_blocks(k) ** p)
    return abs(lhs - rhs)


@pytest.mark.parametrize("blocks", [(2,), (3,), (1, 2)])
def test_clarkson_defect_equals_the_norm_loop(blocks):
    alg = make_algebra(blocks)
    rng = rng_for(12)
    for p in (1.0, 1.5, 3.0, 4.0, 7.0):
        for _ in range(10):
            h, k = random_lp_vector(alg, p, rng), random_lp_vector(alg, p, rng)
            assert clarkson_defect(h, k).defect == _clarkson_by_norms(h, k)


def test_lp_norm_homogeneity():
    rng = rng_for(4)
    for _ in range(20):
        h = random_lp_vector(M2, 2.5, rng)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert np.isclose(lp_norm(h * lam), abs(lam) * lp_norm(h))


def test_mazur_map():
    phi = random_faithful_state(M2, 6)
    for p, q in ((3.0, 1.5), (1.0, 4.0)):
        got = mazur_map(state_power(phi, 1 / p), q)
        want = state_power(phi, 1 / q)
        assert (got - want).frobenius() < 1e-12
    proj = _vec(M2, 3.0, [[1, 0], [0, 0]])
    assert (mazur_map(proj, 1.5) - AlgebraElement._raw(M2, proj.data)).frobenius() < 1e-12
    h = _vec(M2, 3.0, [[0.9, 0], [0, 0.2]])
    assert (mazur_map(h, 3.0) - h).frobenius() < 1e-14
    with pytest.raises(NotPositive):
        mazur_map(_vec(M2, 3.0, [[0, 1], [0, 0]]), 1.5)


def test_mazur_norm_relation_and_roundtrip():
    alg = make_algebra([3])
    rng = rng_for(10)
    for p, q in ((3.0, 1.5), (1.5, 4.0)):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = LpVector(alg, p, [g @ g.conj().T])
        image = mazur_map(h, q)
        assert np.isclose(lp_norm(image), lp_norm(h) ** (p / q))
        back = mazur_map(image, p)
        assert (back - h).frobenius() < 1e-9 * max(1, h.frobenius())


def test_amplify_identity_and_order_one():
    T = LpMap.identity(M2, 3.0)
    amp1 = amplify_map(T, 1)
    assert np.allclose(amp1.matrix, T.matrix)
    amp2 = amplify_map(T, 2)
    assert np.allclose(amp2.matrix, np.eye(16))


def test_amplify_tensor_consistency():
    rng = rng_for(19)
    src = make_algebra([2, 1])
    tgt = make_algebra([2, 1])
    T = LpMap(src, tgt, 3.0, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    big = amplify_map(T, 2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = random_lp_vector(src, 3.0, rng)
    lhs = big(tensor_embed(a, h, 2, 3.0))
    rhs = tensor_embed(a, T(h), 2, 3.0)
    assert (lhs - rhs).frobenius() < 1e-10


def _amplify_by_columns(T, n):
    """Reference amplification: column e_ij (x) u_kl is e_ij (x) T(u_kl)."""
    unit_images = [T(LpVector.from_element(u, T.p)) for u in matrix_units(T.source)]
    offsets = T.source.offsets()
    cols = []
    for b, nb in enumerate(T.source.blocks):
        for row in range(n * nb):
            i, k = divmod(row, nb)
            for col in range(n * nb):
                j, l = divmod(col, nb)
                e_ij = np.zeros((n, n), dtype=complex)
                e_ij[i, j] = 1.0
                cols.append(tensor_embed(e_ij, unit_images[offsets[b] + k * nb + l], n).vec())
    return np.column_stack(cols)


@pytest.mark.parametrize("src, tgt", [((2, 1), (1, 1, 2)), ((1, 2), (3,))])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_amplify_matches_column_oracle(src, tgt, n):
    source, target = make_algebra(src), make_algebra(tgt)
    rng = rng_for(17)
    shape = (target.total_dim, source.total_dim)
    T = LpMap(source, target, 3.0, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    big = amplify_map(T, n)
    assert big.source.blocks == tuple(n * b for b in src)
    assert big.target.blocks == tuple(n * b for b in tgt)
    assert np.array_equal(big.matrix, _amplify_by_columns(T, n))


def test_amplified_transpose_trace_norms():
    # the grid vector Sigma e_ij (x) e_ij has trace norm 2, its partial
    # transpose is the swap with trace norm 4
    from nclp.algebra import transpose_permutation

    T = LpMap(M2, M2, 1.0, transpose_permutation(M2))
    big = amplify_map(T, 2)
    X = grid_witness(M2, 0, 0, 1, 1.0, 2)
    assert np.isclose(lp_norm(X), 2.0)
    assert np.isclose(lp_norm(big(X)), 4.0)
