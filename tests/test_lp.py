import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nclp.algebra import (
    AlgebraElement,
    AlgebraMap,
    Projection,
    make_algebra,
    matrix_units,
    random_faithful_state,
    require_projections,
)
from dense_oracles import (
    NORM_ROUNDING,
    clarkson_by_elements,
    gram_bounds,
    gram_norm_bounds,
    grid_witness,
    lp_norms_per_block,
    polar_parts_eagerly,
    tensor_embed,
    trace_bounds,
)
from nclp.errors import ExponentMismatch, ExponentUnsupported, NotPositive, ShapeMismatch
from nclp.lp import (
    _TRACE_EXPONENTS,
    LpMap,
    LpVector,
    _gram_sum_svdvals,
    _gram_svdvals,
    _grouped_norms,
    _stack_groups,
    _svdvals,
    amplify_map,
    clarkson_defect,
    lp_norm,
    lp_norms,
    mazur_map,
    polar_decompose,
    right_supports,
    state_power,
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


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in (AlgebraElement, Projection, LpVector) for name in ("zero", "identity")]
    + [(cls, name) for cls in (AlgebraMap, LpMap) for name in ("identity", "from_callable")],
)
def test_each_constructor_builds_its_own_class_or_is_absent(cls, name):
    # the classes at an exponent take it last; what is built refuses
    # assignment under its own type's name
    alg = make_algebra([2, 1])
    try:
        make = getattr(cls, name)
    except AttributeError:
        return
    args = (alg, alg, lambda x: x) if name == "from_callable" else (alg,)
    built = make(*args, *((3.0,) if cls in (LpVector, LpMap) else ()))
    assert type(built) is cls
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        built.algebra = alg


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
    pol = polar_decompose(LpVector.zero(M2, 2.0))
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


def test_finite_values_whose_sum_overflows_neither_warn_nor_read_nan():
    # the NaN probe of the SVD kernel must not add the singular values:
    # their sum overflows here although every value is finite
    h = _vec(M2, 3.0, np.diag([1e308, 1e308]))
    k = _vec(M2, 3.0, np.diag([1e300, -1e300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = lp_norm(h)
        row = lp_norms(M2, 3.0, h.vec()[None])
        result = clarkson_defect(h, k)
        empty = lp_norms(M2, 3.0, np.zeros((0, 4)))
    assert row.tolist() == [norm]
    assert norm == pytest.approx(2 ** (1 / 3) * 1e308, rel=4 * np.finfo(float).eps)
    assert not np.isnan([result.defect, result.witness]).any()
    assert empty.shape == (0,)


def _gram_room(values, svd_values, p, grams):
    """The norms of the rows of `values` and `svd_values`, and the room
    between them: `gram_bounds` of the grams plus the SVD's own rounding."""
    got = np.array(_grouped_norms([(values, (0,))], p))
    want = np.array(_grouped_norms([(svd_values, (0,))], p))
    relative, absolute = gram_bounds(grams, p)
    return got, want, (relative + NORM_ROUNDING) * want + absolute


def test_the_gram_probe_keeps_finite_eigenvalues_whose_sum_overflows():
    # the eigenvalues of the Gram matrix of diag(1.3e154, 1.3e154) are each
    # 1.69e308, and their sum passes the float max: both Gram kernels keep
    # them, without a warning, within the Gram bound of the SVD
    stack = np.diag([1.3e154, 1.3e154]).astype(complex)[None]
    halves = np.diag([9.2e153, 9.2e153]).astype(complex)[None]  # G_i + G_j = 1.69e308 I
    pair = np.array([[0, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = _gram_svdvals(stack)
        ((image_values, _),) = _stack_groups([stack], 3.0, images=True)
        summed = _gram_sum_svdvals(np.concatenate([halves, halves]), pair)
        empty = _gram_svdvals(np.zeros((0, 2, 2), dtype=complex))
    assert values is not None and image_values.tobytes() == values.tobytes()
    assert empty.shape == (0, 2)
    for p in (2.0, 3.0, 7.0):
        got, want, room = _gram_room(values, _svdvals(stack), p, [(2, 2)])
        assert np.isfinite(got).all() and (np.abs(got - want) <= room).all()
        row, column = np.hstack([halves[0], halves[0]])[None], np.vstack([halves[0], halves[0]])[None]
        for got_values, side in ((summed[:1], row), (summed[1:], column)):
            got, want, room = _gram_room(got_values, _svdvals(side), p, [(2, 4)])
            assert np.isfinite(got).all() and (np.abs(got - want) <= room).all()
    # NaN and inf are still seen, and so is a Gram matrix that overflows
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[0, 0, 1] = bad
        assert _gram_svdvals(broken) is None
        assert _gram_sum_svdvals(np.concatenate([broken, halves]), pair) is None
    assert _gram_svdvals(4 * stack) is None
    assert _gram_sum_svdvals(np.concatenate([stack, stack]), pair) is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.integers(-500, 500),
    st.sampled_from([2.0, 2.5, 3.0, 7.0, 50.0]),
)
def test_gram_sums_are_the_rows_and_columns_of_two_images_within_the_gram_bound(
    count, r, c, seed, scale, p
):
    """The Gram-sum values of a row [Y_i Y_j] and of a column [Y_i; Y_j] of
    two r x c images are their nonzero singular values, within `gram_bounds`
    of (r, 2 c) and (c, 2 r) plus the SVD's rounding; the others are 0."""
    rng = np.random.default_rng(seed)
    images = 2.0**scale * (rng.standard_normal((count, r, c)) + 1j * rng.standard_normal((count, r, c)))
    pairs = rng.integers(0, count, size=(2, 2))
    values = _gram_sum_svdvals(images, pairs)
    assert values.shape == (4, max(r, c))
    row_stack = np.concatenate([images[pairs[:, 0]], images[pairs[:, 1]]], axis=2)
    column_stack = np.concatenate([images[pairs[:, 0]], images[pairs[:, 1]]], axis=1)
    for got_values, stack, gram in ((values[:2], row_stack, (r, 2 * c)), (values[2:], column_stack, (c, 2 * r))):
        got, want, room = _gram_room(got_values, _svdvals(stack), p, [gram])
        assert (np.abs(got - want) <= room).all()
        assert not got_values[:, gram[0] :].any()


def test_lp_norms_of_non_finite_rows():
    alg = make_algebra([1, 2])
    rng = rng_for(15)
    finite = np.stack([random_element(alg, rng).vec() for _ in range(3)])
    inf_row, nan_row, huge_row = finite[0].copy(), finite[1].copy(), finite[2].copy()
    inf_row[2] = complex(np.inf, 1.0)
    nan_row[4] = complex(0.0, np.nan)
    huge_row[1:] = 1e308  # finite entries, top singular value 2e308 = inf
    rows = np.vstack([finite, [inf_row, nan_row, huge_row]])
    for p in (1.0, 3.0, 2000.0):
        # the NaN makes LAPACK reject the stack of 2 x 2 blocks; the finite
        # rows keep their bits, the inf rows read inf and the NaN row NaN
        got = lp_norms(alg, p, rows)
        assert np.array_equal(got[:3], lp_norms(alg, p, finite))
        assert got[3] == np.inf and np.isnan(got[4]) and got[5] == np.inf


def test_an_infinite_entry_reads_inf_whether_or_not_lapack_rejects_the_stack(monkeypatch):
    # LAPACK rejects a stack with a NaN entry, but returns NaN singular
    # values for an infinite entry without an error: a row with an infinite
    # entry reads inf on its own and next to a NaN row alike
    alg = make_algebra([2])
    inf_row = [np.inf, 0, 0, 1]
    for p in (1.0, 3.0, 2000.0):
        alone = lp_norms(alg, p, [inf_row])
        beside = lp_norms(alg, p, [inf_row, [np.nan, 0, 0, 1], [1, 0, 0, 1]])
        assert alone.tolist() == [np.inf]
        assert beside[0] == np.inf and np.isnan(beside[1])
        assert beside[2] == lp_norms(alg, p, [[1, 0, 0, 1]])[0]
    # a finite stack takes one SVD call, and its entries are not read
    import nclp.lp as lp_module

    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a) or real(a, **kw))
    monkeypatch.setattr(lp_module.np, "isnan", _refuse_entries)
    lp_norms(alg, 3.0, [[1, 2, 3, 4], [0, 1, 1, 0]])
    assert len(calls) == 1


def _refuse_entries(*args, **kwargs):
    raise AssertionError("the entries of a finite stack were read")


@pytest.mark.parametrize("shape", [(2, 4), (2, 6), (5,), (1, 2, 5)])
def test_lp_norms_rejects_rows_that_are_not_n_by_total_dim(shape):
    alg = make_algebra([1, 2])
    with pytest.raises(ShapeMismatch):
        lp_norms(alg, 3.0, np.ones(shape, dtype=complex))


def _clarkson_by_norms(h, k):
    """Reference: the parallelogram defect from four separate norms."""
    p = h.p
    lhs = _lp_norm_by_blocks(h + k) ** p + _lp_norm_by_blocks(h - k) ** p
    rhs = 2.0 * (_lp_norm_by_blocks(h) ** p + _lp_norm_by_blocks(k) ** p)
    return abs(lhs - rhs)


def _clarkson_room(h, k) -> float:
    """How far clarkson_defect may be from its SVD reference at p in
    {2, 4}: each of the four norms within `trace_bounds` of its blocks
    plus NORM_ROUNDING, so each p-th power within (1 + that)^p - 1, and the
    powers, sums and difference add 6 u; all times the sum of the p-th
    powers, n(h + k)^p + n(h - k)^p + 2 (n(h)^p + n(k)^p).  Not finite
    where a power overflows."""
    p = h.p
    relative = trace_bounds([(n, n) for n in h.algebra.blocks], p) + NORM_ROUNDING
    with np.errstate(over="ignore"):
        powers = [np.float64(_lp_norm_by_blocks(x)) ** p for x in (h + k, h - k, h, k)]
    scale = powers[0] + powers[1] + 2.0 * (powers[2] + powers[3])
    return float(((1.0 + relative) ** p - 1.0 + 3 * np.finfo(float).eps) * scale)


def _same_defect(got: float, want: float, h, k) -> bool:
    """got is want bit for bit, or at p in {2, 4}, where the norms
    are read off Gram traces, within `_clarkson_room` of it when that is
    finite."""
    if np.array([got]).tobytes() == np.array([want]).tobytes():
        return True
    if h.p not in _TRACE_EXPONENTS:
        return False
    room = _clarkson_room(h, k)
    return np.isfinite(room) and abs(got - want) <= room


@pytest.mark.parametrize("blocks", [(2,), (3,), (1, 2)])
def test_clarkson_defect_equals_the_norm_loop(blocks):
    """Bitwise, and at p = 4, where the norms are read off Gram traces,
    within their bound (`_clarkson_room`)."""
    alg = make_algebra(blocks)
    rng = rng_for(12)
    for p in (1.0, 1.5, 3.0, 4.0, 7.0):
        for _ in range(10):
            h, k = random_lp_vector(alg, p, rng), random_lp_vector(alg, p, rng)
            got, want = clarkson_defect(h, k).defect, _clarkson_by_norms(h, k)
            if p in _TRACE_EXPONENTS:
                assert _same_defect(got, want, h, k)
            else:
                assert got == want


def test_clarkson_defect_at_large_p_factors_out_the_top_singular_value():
    M3 = make_algebra([3])
    h = _vec(M3, 2000.0, np.diag([4.0, 0, 0]))
    # the p-th powers 4^2000 overflow; the orthogonal pair has defect 0
    assert clarkson_defect(h, _vec(M3, 2000.0, np.diag([0, 4.0, 0]))).defect == 0.0
    # a nonzero excess of order 4^2000 is inf, never NaN
    assert clarkson_defect(h, h).defect == np.inf
    assert clarkson_defect(h, _vec(M3, 2000.0, np.diag([1.0, 0, 0]))).defect == np.inf
    # powers that do not overflow keep the plain arithmetic and its rounding
    small, k = _vec(M3, 2000.0, np.diag([1.0, 0, 0])), _vec(M3, 2000.0, np.diag([0, 1.0, 0]))
    assert clarkson_defect(small, k).defect == _clarkson_by_norms(small, k) > 0.0


def test_clarkson_witness_at_scale_1e200_does_not_overflow():
    # ||h k*||_F^2 passes the float max while the witness itself does not
    alg = make_algebra([2, 1, 2])
    rng = rng_for(0)
    h, k = random_lp_vector(alg, 3.0, rng), random_lp_vector(alg, 3.0, rng)
    plain = clarkson_defect(h, k).witness
    assert abs(clarkson_defect(h * 1e200, k).witness / (1e200 * plain) - 1.0) < 1e-15
    # the scaling is by powers of two, so the witness scales exactly
    assert clarkson_defect(h * 2.0**600, k).witness == 2.0**600 * plain
    assert clarkson_defect(h * 1e200, k * 1e200).witness == np.inf


def _count_svd_calls(monkeypatch) -> list:
    """Record the shape of every array given to np.linalg.svd."""
    calls, real = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_one_svd_call_per_distinct_block_size(monkeypatch):
    rng = rng_for(13)
    h = random_lp_vector(make_algebra([1, 1, 1, 1]), 3.0, rng)
    alg = make_algebra([1, 2, 1, 2])
    rows = np.stack([random_element(alg, rng).vec() for _ in range(3)])
    calls = _count_svd_calls(monkeypatch)
    lp_norm(h)
    assert calls == [(4, 1, 1)]
    calls.clear()
    lp_norms(alg, 3.0, rows)
    assert calls == [(6, 1, 1), (6, 2, 2)]


def test_clarkson_defect_takes_its_svds_once(monkeypatch):
    alg = make_algebra([1, 2])
    rng = rng_for(14)
    generic = [random_lp_vector(alg, 2000.0, rng) for _ in range(2)]
    disjoint = [
        _vec(alg, 2000.0, [[4.0]], np.zeros((2, 2))),
        _vec(alg, 2000.0, [[0.0]], 4 * np.eye(2)),
    ]
    want = [clarkson_by_elements(*generic), clarkson_by_elements(*disjoint)]
    calls = _count_svd_calls(monkeypatch)
    # both pairs overflow at p = 2000 and go through the factored-out fallback
    got = [clarkson_defect(*generic), clarkson_defect(*disjoint)]
    assert got == want and [r.defect for r in got] == [np.inf, 0.0]
    assert calls == [(4, 1, 1), (4, 2, 2)] * 2


def _outcome(fn) -> tuple:
    """The bytes of the float values fn returns, or the error it raised."""
    try:
        return ("value", np.asarray(fn(), dtype=float).tobytes())
    except Exception as exc:  # the outcome compared is the exception itself
        return ("raised", type(exc).__name__, str(exc))


def _corner(block: np.ndarray, part: slice) -> np.ndarray:
    """The block with every entry outside block[part, part] set to zero."""
    out = np.zeros_like(block)
    out[part, part] = block[part, part]
    return out


@st.composite
def _norm_cases(draw):
    blocks = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    count = draw(st.integers(1, 5))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 49.0, 2000.0]) | st.floats(1.0, 2000.0))
    scale = st.just(0.0) | st.integers(-200, 200).map(lambda e: 10.0**e)
    scales = draw(st.lists(scale, min_size=count + 2, max_size=count + 2))
    weights = st.lists(st.floats(0.25, 4.0), min_size=len(blocks), max_size=len(blocks))
    orthogonal, seed = draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    return blocks, p, scales, draw(st.none() | weights), orthogonal, seed


def _same_norms(got: tuple, want: tuple, blocks, p: float) -> bool:
    """Two `_outcome`s of norms of rows on these blocks are the same: bit
    for bit, or at p in {2, 4}, where the norms are read off Gram
    traces, within `trace_bounds` of the blocks plus NORM_ROUNDING where the
    reference is finite and equal where it is not."""
    if got == want or p not in _TRACE_EXPONENTS or got[0] != "value" or want[0] != "value":
        return got == want
    g, w = np.frombuffer(got[1]), np.frombuffer(want[1])
    finite = np.isfinite(w)
    room = (trace_bounds([(n, n) for n in blocks], p) + NORM_ROUNDING) * w[finite]
    return (
        g.shape == w.shape
        and np.array_equal(g[~finite], w[~finite], equal_nan=True)
        and bool((np.abs(g[finite] - w[finite]) <= room).all())
    )


def _same_clarkson(h, k) -> bool:
    """clarkson_defect against the vectorized rows and the element-product
    witness, bit for bit; at p in {2, 4} the witness and
    orthogonality bit for bit and the defect as `_same_defect` has it."""

    def fields(result):
        return [result.defect, result.witness, result.orthogonal]

    got = _outcome(lambda: fields(clarkson_defect(h, k)))
    want = _outcome(lambda: fields(clarkson_by_elements(h, k)))
    if got == want or h.p not in _TRACE_EXPONENTS or got[0] != "value" or want[0] != "value":
        return got == want
    (defect, *rest), (oracle, *oracle_rest) = np.frombuffer(got[1]), np.frombuffer(want[1])
    return np.array(rest).tobytes() == np.array(oracle_rest).tobytes() and _same_defect(defect, oracle, h, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_norm_cases())
def test_the_norm_kernel_equals_the_per_block_oracle(case):
    """Bitwise, on repeated block sizes, zero rows, overflow and underflow:
    lp_norms and lp_norm against one SVD per block, clarkson_defect against
    the vectorized rows and the element-product witness; at p in
    {2, 4}, where the norms are read off Gram traces, within their
    bound (`_same_norms`, `_same_clarkson`)."""
    blocks, p, scales, weights, orthogonal, seed = case
    alg = make_algebra(blocks)
    rng = np.random.default_rng(seed)
    rows = np.stack([c * random_element(alg, rng).vec() for c in scales])
    want = _outcome(lambda: lp_norms_per_block(alg, p, rows[:-2], weights))
    assert _same_norms(_outcome(lambda: lp_norms(alg, p, rows[:-2], weights)), want, blocks, p)
    vecs = [LpVector.from_element(AlgebraElement.from_vec(alg, r), p) for r in rows]
    assert _same_norms(_outcome(lambda: [lp_norm(h, weights) for h in vecs[:-2]]), want, blocks, p)
    h, k = vecs[-2:]
    if orthogonal:  # h in a top-left corner of each block, k in the opposite one
        cuts = [n // 2 if n > 1 else b % 2 for b, n in enumerate(blocks)]
        h = LpVector(alg, p, [_corner(a, slice(None, c)) for a, c in zip(h.data, cuts)])
        k = LpVector(alg, p, [_corner(a, slice(c, None)) for a, c in zip(k.data, cuts)])
    assert _same_clarkson(h, k)


@pytest.mark.parametrize("blocks", [(2, 1, 2), (1, 2, 1, 2), (3, 1, 3)])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 49.0, 2000.0])
def test_the_norm_kernel_adds_the_block_sums_in_block_order(blocks, p):
    """Layouts where a block size repeats after another, so the per-shape
    sums come in another order than the blocks: bitwise against one SVD per
    block on rows at 1e-200 (whose sums underflow at large p), 1 and 1e200
    (whose sums overflow), weighted and not, and clarkson_defect on every
    ordered pair of them whose witness products stay finite (not 1 with
    1e200).  A row with a NaN entry in its last block reads NaN and one with
    an infinite entry reads inf, next to the same rows."""
    alg = make_algebra(blocks)
    rng = rng_for(len(blocks))
    rows = np.stack([c * random_element(alg, rng).vec() for c in (1e-200, 1.0, 1e200)])
    bad = np.stack([random_element(alg, rng).vec() for _ in range(2)])
    bad[0, -1], bad[1, -1] = np.nan, np.inf
    vecs = [LpVector.from_element(AlgebraElement.from_vec(alg, r), p) for r in rows]
    bad_vecs = [LpVector.from_element(AlgebraElement.from_vec(alg, r), p) for r in bad]
    for weights in (None, rng.uniform(0.5, 2.0, len(blocks)).tolist()):
        want = _outcome(lambda: lp_norms_per_block(alg, p, rows, weights))
        both = _outcome(lambda: lp_norms(alg, p, np.vstack([bad[:1], rows, bad[1:]]), weights))
        assert both[0] == "value" and both[1][8:-8] == want[1]
        assert np.isnan(np.frombuffer(both[1][:8])[0]) and np.frombuffer(both[1][-8:])[0] == np.inf
        assert _outcome(lambda: [lp_norm(h, weights) for h in vecs]) == want
        assert np.isnan(lp_norm(bad_vecs[0], weights)) and lp_norm(bad_vecs[1], weights) == np.inf
    for i, j in [(0, 1), (1, 0), (0, 2), (2, 0)]:
        h, k = vecs[i], vecs[j]
        got, oracle = clarkson_defect(h, k), clarkson_by_elements(h, k)
        assert _outcome(lambda: [got.defect, got.witness, got.orthogonal]) == _outcome(
            lambda: [oracle.defect, oracle.witness, oracle.orthogonal]
        )


TRACE_SCALES = (1.0, 2.0**120, 2.0**-120, 2.0**-242, 1e200, 1e-200, 0.0)


@st.composite
def _trace_cases(draw):
    """At most 3 blocks of size at most 4, p in {2, 4}, optional
    weights, and 4 rows, the last two a Clarkson pair: each at a scale of
    TRACE_SCALES, and the first two optionally with one NaN or infinite
    entry."""
    blocks = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    p = draw(st.sampled_from(_TRACE_EXPONENTS))
    scales = draw(st.lists(st.sampled_from(TRACE_SCALES), min_size=4, max_size=4))
    weights = st.lists(st.floats(0.25, 4.0), min_size=len(blocks), max_size=len(blocks))
    bad = draw(st.lists(st.sampled_from([None, np.nan, np.inf, -np.inf]), min_size=2, max_size=2))
    return blocks, p, scales, draw(st.none() | weights), bad, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trace_cases())
def test_even_exponents_agree_with_one_svd_per_block_within_the_trace_bound(case):
    """At p in {2, 4} lp_norms, lp_norm and clarkson_defect read Gram
    traces: they agree with one SVD per block within `trace_bounds` plus
    NORM_ROUNDING where that is finite, at scales whose traces overflow
    (1e200), pass near the underflow floor (2^-242 at p = 4) or underflow
    (1e-200), and a row with a NaN or infinite entry reads exactly as the
    SVD reads it."""
    blocks, p, scales, weights, bad, seed = case
    alg = make_algebra(blocks)
    rng = np.random.default_rng(seed)
    rows = np.stack([c * random_element(alg, rng).vec() for c in scales])
    for row, entry in zip(rows, bad):
        if entry is not None:
            row[rng.integers(alg.total_dim)] = entry
    want = _outcome(lambda: lp_norms_per_block(alg, p, rows, weights))
    assert _same_norms(_outcome(lambda: lp_norms(alg, p, rows, weights)), want, blocks, p)
    vecs = [LpVector.from_element(AlgebraElement.from_vec(alg, r), p) for r in rows]
    assert _same_norms(_outcome(lambda: [lp_norm(h, weights) for h in vecs]), want, blocks, p)
    assert _same_clarkson(*vecs[2:])


@pytest.mark.parametrize("p", _TRACE_EXPONENTS)
def test_even_exponents_take_no_svd(monkeypatch, p):
    """Rows in range read their Gram traces alone: no SVD for lp_norms,
    lp_norm or clarkson_defect, or for the image norms of a stack."""
    alg = make_algebra([1, 2, 3])
    rng = rng_for(21)
    rows = np.stack([random_element(alg, rng).vec() for _ in range(4)])
    h, k = (LpVector.from_element(AlgebraElement.from_vec(alg, r), p) for r in rows[:2])
    stack = np.stack([random_element(make_algebra([3]), rng).data[0] for _ in range(3)])
    calls = _count_svd_calls(monkeypatch)
    lp_norms(alg, p, rows)
    assert lp_norms(alg, p, rows[:0]).shape == (0,)
    lp_norm(h)
    clarkson_defect(h, k)
    _grouped_norms(_stack_groups([stack[:, :2], stack], p, images=True), p)
    assert calls == []


@pytest.mark.parametrize("p", [*_TRACE_EXPONENTS, 1.0, 1.5, 3.0, 7.0])
@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
def test_even_exponents_read_rows_of_any_dtype_in_double_precision(p, dtype):
    # single precision and integer rows, on blocks with an odd number of
    # entries, are read as the doubles they hold: at p in {2, 4} within
    # `trace_bounds` of one SVD per block of the rows in complex128, at every
    # other p bit for bit as the same rows in float64 or complex128
    blocks = (1, 2, 3)
    alg = make_algebra(blocks)
    rng = rng_for(23)
    rows = np.stack([4 * random_element(alg, rng).vec() for _ in range(3)] + [np.ones(alg.total_dim)])
    rows = (rows if dtype == np.complex64 else rows.real).astype(dtype)
    if p not in _TRACE_EXPONENTS:
        double = rows.astype(np.result_type(rows.dtype, np.float64))
        assert lp_norms(alg, p, rows).tobytes() == lp_norms(alg, p, double).tobytes()
        return
    want = lp_norms_per_block(alg, p, rows.astype(complex))
    room = (trace_bounds([(n, n) for n in blocks], p) + NORM_ROUNDING) * want
    assert (np.abs(lp_norms(alg, p, rows) - want) <= room).all()


@pytest.mark.parametrize("p", _TRACE_EXPONENTS)
def test_an_even_exponent_row_whose_total_overflows_reads_the_svd(p):
    # each block's trace is finite, about 1.2e308, and their sum, plain or
    # weighted, overflows: the row is read again from its singular values,
    # bit for bit as one SVD per block reads it, and stays finite
    alg = make_algebra([1, 1])
    t = 1.2e308 ** (1.0 / p)
    rows = np.array([[t, t], [t, 0.0], [0.0, t]], dtype=complex)
    for weights in (None, [1.0, 4.0]):
        got = lp_norms(alg, p, rows, weights)
        assert got.tobytes() == lp_norms_per_block(alg, p, rows, weights).tobytes()
        assert np.isfinite(got).all() and got[0] > got[1]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.5, 6.0, 7.0, 8.0, 10.0, 100.0, 2000.0])
def test_other_exponents_keep_the_singular_value_kernel_bitwise(p):
    """Off {2, 4} the norms are read off singular values as before:
    lp_norms, lp_norm and clarkson_defect bit for bit one SVD per block, on
    rows at 1e-150, 1 and 1e150 and with a NaN or infinite entry, and the
    image norms of a stack those of its `_gram_svdvals` (p >= 2, unless
    they are None) or `_svdvals`."""
    alg = make_algebra([2, 1, 2])
    rng = rng_for(22)
    rows = np.stack([c * random_element(alg, rng).vec() for c in (1e-150, 1.0, 1e150, 1.0, 1.0)])
    rows[3, 0], rows[4, -1] = np.nan, np.inf
    for weights in (None, [0.5, 2.0, 1.5]):
        want = _outcome(lambda: lp_norms_per_block(alg, p, rows, weights))
        assert _outcome(lambda: lp_norms(alg, p, rows, weights)) == want
        vecs = [LpVector.from_element(AlgebraElement.from_vec(alg, r), p) for r in rows]
        assert _outcome(lambda: [lp_norm(h, weights) for h in vecs]) == want
    for i, j in [(0, 1), (1, 2), (1, 1)]:
        assert _same_clarkson(vecs[i], vecs[j])
    stack = np.stack([random_element(make_algebra([3]), rng).data[0] for _ in range(3)])

    def kernel(stack):  # the Gram eigenvalues for p >= 2 unless they are None, else the SVD
        values = _gram_svdvals(stack) if p >= 2.0 else None
        return _svdvals(stack) if values is None else values

    for stacks in ([stack], [stack[:, :2], stack]):  # one shape per block
        got = _grouped_norms(_stack_groups(stacks, p, images=True), p)
        assert got == _grouped_norms([(kernel(s), (b,)) for b, s in enumerate(stacks)], p)


@st.composite
def _image_stacks(draw):
    """An (N, r, c) stack of seeded complex matrices of one rank, scaled by
    2^s, optionally with one NaN or infinite entry."""
    count, r, c = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rank, seed = draw(st.integers(0, min(r, c))), draw(st.integers(0, 2**32 - 1))
    scale = 2.0 ** draw(st.integers(-600, 600))
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((count, r, rank)) + 1j * rng.standard_normal((count, r, rank))
    right = rng.standard_normal((count, rank, c)) + 1j * rng.standard_normal((count, rank, c))
    stack = scale * (left @ right)
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        stack[tuple(rng.integers(0, n) for n in stack.shape)] = bad
    return stack


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    _image_stacks(),
    st.sampled_from([2.0, 3.0, 1000.0]) | st.floats(2.0, 1000.0),
    st.floats(1.0, 2.0, exclude_max=True),
)
def test_the_image_kernel_stays_within_the_gram_bound_of_the_svd(stack, p, low):
    """For p >= 2 the image norms read off Gram eigenvalues agree with the
    SVD's within `gram_norm_bounds` plus the SVD's own NORM_ROUNDING, and at
    p in {2, 4}, read off Gram traces, within `trace_bounds` plus
    NORM_ROUNDING; a stack with a NaN or infinite entry reads as the SVD
    reads it.  For p < 2 the kernel is the SVD bit for bit."""
    want = _svdvals(stack)
    exact = np.array(_grouped_norms([(want, (0,))], p))
    if p in _TRACE_EXPONENTS:
        # Gram traces: within `trace_bounds`, with no absolute part
        norms = np.array(_grouped_norms(_stack_groups([stack], p, images=True), p))
        relative, absolute = trace_bounds([sorted(stack.shape[1:])], p), 0.0
    else:
        ((got, _),) = _stack_groups([stack], p, images=True)
        if not np.isfinite(stack).all():
            assert np.array_equal(got, want, equal_nan=True)
        norms = np.array(_grouped_norms([(got, (0,))], p))
        relative, absolute = gram_norm_bounds([stack.shape[1:]], p)
    room = (relative + NORM_ROUNDING) * exact + absolute
    assert np.array_equal(np.isnan(norms), np.isnan(exact))
    finite = np.isfinite(exact)
    assert np.array_equal(norms[~finite], exact[~finite], equal_nan=True)
    assert (np.abs(norms[finite] - exact[finite]) <= room[finite]).all()
    ((low_values, _),) = _stack_groups([stack], low, images=True)
    assert low_values.tobytes() == _stack_groups([stack])[0][0].tobytes()


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


def _support_rows(algebra, rng):
    """Rows of full rank, rank one in a block, a block faded to 1e-12 of
    the rest, a zero block, and all zero."""
    rows = []
    for kind in ("full", "rank_one", "faded", "zero_block", "zero"):
        blocks = []
        for b, n in enumerate(algebra.blocks):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if kind == "rank_one":
                g = np.outer(g[:, 0], g[0].conj())
            elif kind == "faded" and b == 0:
                g = 1e-12 * g
            elif (kind == "zero_block" and b == 1) or kind == "zero":
                g = 0 * g
            blocks.append(g)
        rows.append(AlgebraElement(algebra, blocks).vec())
    return np.array(rows)


@pytest.mark.parametrize("blocks", [[3], [2, 3], [1, 2, 2]])
def test_right_supports_are_bitwise_the_polar_supports(blocks):
    alg = make_algebra(blocks)
    rows = _support_rows(alg, rng_for(len(blocks)))
    got = right_supports(alg, rows)
    for row, support in zip(rows, got):
        h = LpVector.from_element(AlgebraElement.from_vec(alg, row), 3.0)
        assert support.tobytes() == polar_decompose(h).s_right.vec().tobytes()
    if len(blocks) > 1:
        # the faded block lies below the threshold taken across blocks
        assert not got[2, : blocks[0] ** 2].any()


POLAR_PARTS = ("w", "modulus", "s_left", "s_right")


@pytest.mark.parametrize("blocks", [[3], [2, 3], [1, 2, 2]])
def test_polar_parts_built_on_read_are_bitwise_the_eager_ones(blocks):
    alg = make_algebra(blocks)
    for row in _support_rows(alg, rng_for(10 + len(blocks))):
        h = LpVector.from_element(AlgebraElement.from_vec(alg, row), 3.0)
        want = polar_parts_eagerly(h)
        for order in itertools.permutations(POLAR_PARTS):
            pol = polar_decompose(h)
            for name in order:
                part = getattr(pol, name)
                assert getattr(pol, name) is part  # kept after its first read
                assert part.algebra == alg
                for got, expected in zip(part.data, want[name]):
                    assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
            assert pol.modulus.p == 3.0
            assert isinstance(pol.s_left, Projection) and isinstance(pol.s_right, Projection)


def test_a_support_is_checked_when_it_is_read(monkeypatch):
    import nclp.algebra as algebra_module

    calls = []
    real = algebra_module.require_projections
    monkeypatch.setattr(
        algebra_module, "require_projections", lambda *a: calls.append(a) or real(*a)
    )
    h = random_lp_vector(make_algebra([2, 3]), 3.0, rng_for(5))
    pol = polar_decompose(h)
    pol.w  # the one part the factor decomposition reads
    assert calls == []
    pol.modulus  # extract_polar_data reads w and the modulus
    assert calls == []
    pol.s_right
    pol.s_right
    assert len(calls) == 1
    pol.s_left
    assert len(calls) == 2


def test_require_projections_checks_rows_in_order():
    e = np.diag([1.0, 0.0]).astype(complex)
    oblique = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    require_projections([np.stack([e, np.eye(2)])], 1e-9)
    with pytest.raises(ShapeMismatch, match="not idempotent"):
        require_projections([np.stack([e, 2 * e])], 1e-9)
    with pytest.raises(ShapeMismatch, match="not self-adjoint"):
        require_projections([np.stack([e, oblique])], 1e-9)
    # the first failing row decides the message
    with pytest.raises(ShapeMismatch, match="not self-adjoint"):
        require_projections([np.stack([oblique, 2 * e])], 1e-9)
    # a failure in any block fails the element
    with pytest.raises(ShapeMismatch, match="not idempotent"):
        require_projections([np.stack([e, e]), np.stack([np.eye(1), 2 * np.eye(1)])], 1e-9)
