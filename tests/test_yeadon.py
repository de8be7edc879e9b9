import numpy as np
import pytest

from nclp.algebra import (
    AlgebraElement,
    AlgebraMap,
    make_algebra,
    matrix_units,
    transpose_permutation,
)
from dense_oracles import (
    grid_witness,
    image_supports,
    left_mult_matrix,
    map_from_callable,
    support_bound,
    yeadon_triple_by_units,
)
from nclp.errors import ExponentMismatch, ExponentUnsupported, TraceConditionViolated
from nclp.lp import LpMap, LpVector, amplify_map, lp_norm
from nclp.samples import haar_unitary, random_yeadon_triple, rng_for, transpose_triple
from nclp.yeadon import (
    YeadonTriple,
    build_yeadon_map,
    jordan_dichotomy_report,
    projection_polar_parts,
    yeadon_decompose,
)

M2 = make_algebra([2])


def test_decompose_identity():
    T = LpMap.identity(M2, 3.0)
    triple = yeadon_decompose(T, 3.0)
    assert np.max(np.abs(triple.J.matrix - np.eye(4))) < 1e-10
    assert (triple.w - AlgebraElement.identity(M2)).frobenius() < 1e-10
    assert (triple.B - LpVector.from_element(AlgebraElement.identity(M2), 3.0)).frobenius() < 1e-10


def test_decompose_unitary_left_multiplication():
    u = AlgebraElement(M2, [haar_unitary(2, rng_for(2))])
    T = LpMap(M2, M2, 3.0, left_mult_matrix(u))
    triple = yeadon_decompose(T, 3.0)
    assert np.max(np.abs(triple.J.matrix - np.eye(4))) < 1e-10
    assert (triple.w - u).frobenius() < 1e-10


def test_decompose_transpose():
    from nclp.algebra import homomorphism_kind

    T = LpMap(M2, M2, 3.0, transpose_permutation(M2))
    triple = yeadon_decompose(T, 3.0)
    assert homomorphism_kind(triple.J).kind == "jordan_only"
    assert (triple.w - AlgebraElement.identity(M2)).frobenius() < 1e-10
    assert (triple.B - LpVector.from_element(AlgebraElement.identity(M2), 3.0)).frobenius() < 1e-10


def test_decompose_rejects_p2_and_non_isometries():
    with pytest.raises(ExponentUnsupported):
        yeadon_decompose(LpMap.identity(M2, 2.0), 2.0)
    from nclp.errors import NotAnIsometry

    rng = rng_for(5)
    garbage = LpMap(M2, M2, 3.0, rng.standard_normal((4, 4)))
    with pytest.raises(NotAnIsometry):
        yeadon_decompose(garbage, 3.0)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_decompose_rejects_a_diagonal_support_that_disagrees_with_J(p):
    # T = J + N with J the corner embedding M_2 -> M_3 and N(e_11) = e_33 =
    # -N(e_22): T(1), w and B are those of the embedding, but the image of
    # e_11 has the larger support e_11 + e_33, so the map read off the
    # supports of the images is not Jordan
    from nclp.errors import NotAnIsometry

    M3 = make_algebra([3])
    matrix = np.zeros((9, 4))
    for i in range(2):
        for j in range(2):
            matrix[3 * i + j, 2 * i + j] = 1.0
    matrix[8, 0], matrix[8, 3] = 1.0, -1.0
    with pytest.raises(NotAnIsometry, match=r"J is not a Jordan \*-monomorphism \(neither\)"):
        yeadon_decompose(LpMap(M2, M3, p, matrix), p)


def test_build_diagonal_weights_oracle():
    # source C + C with weights (a^p, b^p); B = diag(a, b) against the plain
    # target trace gives an isometry, by direct singular values
    p = 3.0
    a, b = 1.3, 0.6
    src = make_algebra([1, 1])
    tgt = make_algebra([2])

    def embed(x):
        return AlgebraElement(tgt, [np.diag([x.data[0][0, 0], x.data[1][0, 0]])])

    J = map_from_callable(src, tgt, embed)
    B = LpVector(tgt, p, [np.diag([a, b])])
    w = J(AlgebraElement.identity(src))
    triple = YeadonTriple(J=J, w=w, B=B)
    weights = (a**p, b**p)
    T = build_yeadon_map(triple, p, weights)
    rng = rng_for(6)
    for _ in range(20):
        x = LpVector(src, p, [rng.standard_normal((1, 1)), rng.standard_normal((1, 1))])
        direct = (a**p * abs(x.data[0][0, 0]) ** p + b**p * abs(x.data[1][0, 0]) ** p) ** (1 / p)
        assert np.isclose(lp_norm(T(x)), direct)
        assert np.isclose(lp_norm(x, weights=weights), direct)


def test_build_rejects_mismatched_weights():
    p = 3.0
    src = make_algebra([1, 1])
    tgt = make_algebra([2])

    def embed(x):
        return AlgebraElement(tgt, [np.diag([x.data[0][0, 0], x.data[1][0, 0]])])

    J = map_from_callable(src, tgt, embed)
    B = LpVector(tgt, p, [np.diag([1.3, 0.6])])
    triple = YeadonTriple(J=J, w=J(AlgebraElement.identity(src)), B=B)
    with pytest.raises(TraceConditionViolated) as err:
        build_yeadon_map(triple, p, (1.0, 1.0))
    assert np.array_equal(err.value.witness.vec(), [1, 0])
    # the first unit satisfies tau(u) = Tr(B^p J(u)); the witness is the second
    B = LpVector(tgt, p, [np.diag([1.0, 0.6])])
    triple = YeadonTriple(J=J, w=J(AlgebraElement.identity(src)), B=B)
    with pytest.raises(TraceConditionViolated, match="disagree on a unit") as err:
        build_yeadon_map(triple, p, (1.0, 1.0))
    assert np.array_equal(err.value.witness.vec(), [0, 1])


# seeds 0-7 draw each layout of the generator's menu once
@pytest.mark.parametrize("seed,p", [(s, p) for p in (1.0, 1.5, 3.0, 4.0, 7.0) for s in range(8)])
def test_roundtrip(seed, p):
    triple, weights = random_yeadon_triple(seed, p)
    T = build_yeadon_map(triple, p, weights)
    back = yeadon_decompose(T, p, weights)
    assert np.max(np.abs(back.J.matrix - triple.J.matrix)) < 1e-12
    assert np.max(np.abs(back.w.vec() - triple.w.vec())) < 1e-12
    assert np.max(np.abs(back.B.vec() - triple.B.vec())) < 1e-12


def _corrupted(T, seed):
    """The map moved by 1e-5 and 1e-9 of seeded noise, scaled by 1.01, and
    replaced by the noise itself, with the error each must raise."""
    from nclp.errors import NotAnIsometry

    rng = rng_for(1000 + seed)
    noise = rng.standard_normal(T.matrix.shape) + 1j * rng.standard_normal(T.matrix.shape)
    return [
        (T.matrix + 1e-5 * noise, NotAnIsometry),
        (T.matrix + 1e-9 * noise, NotAnIsometry),
        (1.01 * T.matrix, TraceConditionViolated),
        (noise, NotAnIsometry),
    ]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 7.0])
def test_decompose_rejects_corrupted_maps(p):
    for seed in range(16):
        triple, weights = random_yeadon_triple(seed, p)
        T = build_yeadon_map(triple, p, weights)
        for matrix, error in _corrupted(T, seed):
            with pytest.raises(error):
                yeadon_decompose(LpMap(T.source, T.target, p, matrix), p, weights)


def test_orthogonality_propagation_and_additivity():
    p = 3.0
    triple, weights = random_yeadon_triple(2, p)
    T = build_yeadon_map(triple, p, weights)
    src = triple.J.source
    rng = rng_for(9)
    for _ in range(10):
        bidx = int(rng.integers(0, len(src.blocks)))
        n = src.blocks[bidx]
        if n < 2:
            continue
        v = haar_unitary(n, rng)
        e_blocks, f_blocks = src.zero_blocks(), src.zero_blocks()
        e_blocks[bidx] = np.outer(v[:, 0], v[:, 0].conj())
        f_blocks[bidx] = np.outer(v[:, 1], v[:, 1].conj())
        e = AlgebraElement(src, e_blocks)
        f = AlgebraElement(src, f_blocks)
        we, Be = projection_polar_parts(T, e)
        wf, Bf = projection_polar_parts(T, f)
        wef, Bef = projection_polar_parts(T, e + f)
        assert (Be @ Bf).frobenius() < 1e-9
        assert (we.adjoint() @ wf).frobenius() < 1e-9
        assert (we @ wf.adjoint()).frobenius() < 1e-9
        assert (Bef - (Be + Bf)).frobenius() < 1e-9
        assert (wef - (we + wf)).frobenius() < 1e-9


@pytest.mark.parametrize("p", [1.0, 4.0])
def test_dichotomy_transpose_values(p):
    triple, weights = transpose_triple(2)
    rep = jordan_dichotomy_report(triple, p, weights)
    assert rep.kind == "jordan_only"
    assert not rep.multiplicative
    assert rep.isometry_defect < 1e-10
    assert np.isclose(rep.witness_defect, abs(4 ** (1 / p) - 2))
    assert not rep.biconditional_holds or rep.two_isometry_defect > 1e-6
    assert rep.biconditional_holds


def test_dichotomy_family_biconditional():
    for seed in range(6):
        p = [1.0, 1.5, 3.0, 4.0][seed % 4]
        triple, weights = random_yeadon_triple(seed, p)
        rep = jordan_dichotomy_report(triple, p, weights)
        assert rep.biconditional_holds
        has_transpose = rep.kind == "jordan_only"
        if has_transpose:
            assert rep.two_isometry_defect > 1e-6
        else:
            assert rep.two_isometry_defect < 1e-6


def _dichotomy_by_samples(triple, p, weights):
    """Reference: per-vector loops for the defects of jordan_dichotomy_report,
    the isometry defect over the matrix units and 20 seeded samples and the
    witness defect, both on the full images, each with its `support_bound`."""
    T = build_yeadon_map(triple, p, weights)
    source = triple.J.source
    samples = [LpVector.from_element(u, p) for u in matrix_units(source)]
    rng = np.random.default_rng(11)
    for _ in range(20):
        blocks = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in source.blocks
        ]
        samples.append(LpVector(source, p, blocks))
    iso = 0.0
    for h in samples:
        nh = lp_norm(h, weights=weights)
        iso = max(iso, abs(lp_norm(T(h)) - nh) / nh)
    big = amplify_map(T, 2)
    witness = 0.0
    grids = [grid_witness(T.source, b, 0, 1, p, 2) for b, nb in enumerate(T.source.blocks) if nb >= 2]
    for X in grids:
        witness = max(witness, float(abs(lp_norm(big(X)) - lp_norm(X, weights=weights))))
    supports = image_supports(T)
    bounds = (
        support_bound(T, samples, iso, weights, True, supports),
        support_bound(T, grids, witness, weights, False, supports, 2),
    )
    return (iso, witness), bounds


@pytest.mark.parametrize("seed", range(8))
def test_dichotomy_equals_the_sample_loops(seed):
    for p in (1.0, 1.5, 3.0):
        triple, weights = random_yeadon_triple(seed, p)
        rep = jordan_dichotomy_report(triple, p, weights)
        expected, bounds = _dichotomy_by_samples(triple, p, weights)
        got = (rep.isometry_defect, rep.witness_defect)
        for value, want, bound in zip(got, expected, bounds):
            assert value == want if bound == 0.0 else abs(value - want) <= bound


def test_generators_place_units_as_the_per_unit_reference():
    # J, w, B and the weights bitwise as the per-unit loops, J C-ordered
    for seed in range(24):
        for p in (1.0, 1.5, 3.0):
            got, got_weights = random_yeadon_triple(seed, p)
            want, want_weights = yeadon_triple_by_units(seed, p)
            assert got_weights == want_weights
            assert got.J.matrix.flags.c_contiguous
            for a, b in ((got.J.matrix, want.J.matrix), (got.w.vec(), want.w.vec())):
                assert a.tobytes() == b.tobytes(), (seed, p)
            assert got.B.vec().tobytes() == want.B.vec().tobytes(), (seed, p)
    for n in (2, 3):
        J = transpose_triple(n)[0].J
        M = make_algebra([n])
        want = map_from_callable(M, M, lambda x: AlgebraElement(M, [x.data[0].T]))
        assert J.matrix.tobytes() == want.matrix.tobytes()


def test_dichotomy_certifies_J_once(monkeypatch):
    import nclp.yeadon as yeadon_module
    from nclp.algebra import homomorphism_kind
    from nclp.errors import DataInvalid

    calls = []

    def counted(F, tol=None):
        calls.append(tol)
        return homomorphism_kind(F, tol)

    triple, weights = transpose_triple(2)
    J = triple.J
    want = jordan_dichotomy_report(triple, 3.0, weights)
    monkeypatch.setattr(yeadon_module, "homomorphism_kind", counted)
    assert jordan_dichotomy_report(triple, 3.0, weights) == want
    assert calls == [None]
    assert want.kind == homomorphism_kind(triple.J).kind == "jordan_only"
    # 1e-8 of noise is "neither" at the report's tolerance 1e-9 D but
    # "jordan_only" at the assembly's 1e-7 D; 1e-3 is "neither" at both
    rng_noise = rng_for(4).standard_normal(J.matrix.shape)
    for scale, kind in ((1e-8, "neither"), (1e-3, None)):
        noisy_J = AlgebraMap(J.source, J.target, J.matrix + scale * rng_noise)
        noisy = YeadonTriple(J=noisy_J, w=triple.w, B=triple.B)
        if kind is None:
            for build in (build_yeadon_map, jordan_dichotomy_report):
                with pytest.raises(DataInvalid, match=r"Jordan \*-monomorphism \(neither\)"):
                    build(noisy, 3.0, weights)
        else:
            build_yeadon_map(noisy, 3.0, weights)
            assert jordan_dichotomy_report(noisy, 3.0, weights).kind == kind


def test_decompose_refuses_another_exponent_than_the_map():
    for seed in range(8):
        triple, weights = random_yeadon_triple(seed, 3.0)
        T = build_yeadon_map(triple, 3.0, weights)
        with pytest.raises(ExponentMismatch):
            yeadon_decompose(T, 4.0, weights)


def _count_assemblies(monkeypatch):
    import nclp.yeadon as yeadon_module

    calls = []
    real = yeadon_module._verified_map
    monkeypatch.setattr(
        yeadon_module, "_verified_map", lambda *a: calls.append(a[1:3]) or real(*a)
    )
    return calls


def test_the_assembled_map_is_kept_per_exponent_and_weights(monkeypatch):
    calls = _count_assemblies(monkeypatch)
    triple, weights = random_yeadon_triple(3, 3.0)
    T = build_yeadon_map(triple, 3.0, weights)
    report = jordan_dichotomy_report(triple, 3.0, weights)
    assert build_yeadon_map(triple, 3, list(weights)) is T
    assert calls == [(3.0, weights)]
    # a fresh triple of the same data assembles again, to the same values
    fresh = YeadonTriple(J=triple.J, w=triple.w, B=triple.B)
    assert jordan_dichotomy_report(fresh, 3.0, weights) == report
    assert np.array_equal(build_yeadon_map(fresh, 3.0, weights).matrix, T.matrix)
    assert len(calls) == 2
    # the transpose with B = 1 meets the trace condition at every p, and
    # unit weights are the default ones
    flip, unit = transpose_triple(2)
    build_yeadon_map(flip, 3.0)
    jordan_dichotomy_report(flip, 3.0, unit)
    assert calls[2:] == [(3.0, unit)]
    build_yeadon_map(flip, 1.5, unit)
    jordan_dichotomy_report(flip, 1.5)
    assert calls[3:] == [(1.5, unit)]
    # other weights assemble again: these break the trace condition, so
    # nothing is kept and each call assembles and raises
    for _ in range(2):
        with pytest.raises(TraceConditionViolated):
            build_yeadon_map(flip, 3.0, (2.0,))
    assert calls[4:] == [(3.0, (2.0,))] * 2


def test_a_failing_assembly_raises_on_every_call(monkeypatch):
    from dataclasses import replace

    from nclp.errors import DataInvalid

    calls = _count_assemblies(monkeypatch)
    triple, weights = random_yeadon_triple(2, 3.0)
    halved = replace(triple, w=triple.w * 0.5)
    for build in (build_yeadon_map, jordan_dichotomy_report) * 2:
        with pytest.raises(DataInvalid, match=r"w\* w = J\(1\) = s\(B\) fails"):
            build(halved, 3.0, weights)
    assert len(calls) == 4
    assert not halved.__dict__.get("_assembled")
    build_yeadon_map(triple, 3.0, weights)  # the intact triple still assembles
    assert len(calls) == 5


def _corrupted_triples(seed: int, p: float):
    """(name, J, w, B, weights) of the seeded triple as built and with one
    of its conditions broken; B is moved by 1e-3 of seeded noise, negated,
    has its top eigenvalue of the first block negated or dropped, w is
    halved, J is composed with the source transpose or with a swap of two
    units of a block of size >= 2, or the first trace weight grows 10%."""
    triple, weights = random_yeadon_triple(seed, p)
    J, w, B = triple.J, triple.w, triple.B
    source, target = J.source, J.target
    rng = rng_for(100 + seed)
    j_one = J(AlgebraElement.identity(source))
    noise = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in target.blocks]
    inner = (j_one @ AlgebraElement(target, noise) @ j_one).data
    vals, vecs = np.linalg.eigh(B.data[0])
    top = vecs[:, -1:] @ vecs[:, -1:].conj().T
    start = source.offsets()[next(b for b, n in enumerate(source.blocks) if n >= 2)]
    swap = np.eye(source.total_dim)
    swap[:, [start, start + 1]] = swap[:, [start + 1, start]]

    def moved(blocks):
        return LpVector(target, p, blocks)

    yield "as built", J, w, B, weights
    on_support = moved([b + 1e-3 * e for b, e in zip(B.data, inner)])
    yield "non-Hermitian B on J(1)", J, w, on_support, weights
    yield "non-Hermitian B", J, w, moved([b + 1e-3 * e for b, e in zip(B.data, noise)]), weights
    yield "negated B", J, w, moved([-b for b in B.data]), weights
    yield "negative eigenvalue", J, w, moved([B.data[0] - 2 * vals[-1] * top, *B.data[1:]]), weights
    yield "s(B) != J(1)", J, w, moved([B.data[0] - vals[-1] * top, *B.data[1:]]), weights
    yield "w*w != J(1)", J, 0.5 * w, B, weights
    transposed = AlgebraMap(source, target, J.matrix @ transpose_permutation(source))
    yield "transposed J", transposed, w, B, weights
    yield "non-Jordan J", AlgebraMap(source, target, J.matrix @ swap), w, B, weights
    yield "off weights", J, w, B, (1.1 * weights[0], *weights[1:])


@pytest.mark.parametrize("seed", range(8))
def test_corrupted_triples_raise_as_the_svd_support_did(seed):
    """One triple per layout of the generator's menu, at p = 1.5 and 3: the
    outcome of `build_yeadon_map` on each corruption is the exception class
    it raised when s(B) came from an SVD of B.  A non-Hermitian B has full
    support, so it fails s(B) = J(1) first where J(1) != 1 (the padded
    layouts) and is not positive elsewhere."""
    from nclp.samples import _YEADON_MENU

    padded = any(pad for *_, pad in _YEADON_MENU[seed])
    want = {
        "as built": "ok",
        "non-Hermitian B on J(1)": "NotPositive",
        "non-Hermitian B": "DataInvalid" if padded else "NotPositive",
        "negated B": "NotPositive",
        "negative eigenvalue": "NotPositive",
        "s(B) != J(1)": "DataInvalid",
        "w*w != J(1)": "DataInvalid",
        "transposed J": "ok",
        "non-Jordan J": "DataInvalid",
        "off weights": "TraceConditionViolated",
    }
    for p in (1.5, 3.0):
        got = {}
        for name, J, w, B, weights in _corrupted_triples(seed, p):
            try:
                build_yeadon_map(YeadonTriple(J=J, w=w, B=B), p, weights)
                got[name] = "ok"
            except Exception as exc:  # the outcome compared is the class
                got[name] = type(exc).__name__
        assert got == want, (seed, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_B_is_refused(bad):
    from nclp.errors import NonFinite

    triple, weights = random_yeadon_triple(3, 3.0)
    blocks = [b.copy() for b in triple.B.data]
    blocks[0][0, 0] = bad
    B = LpVector(triple.B.algebra, 3.0, blocks)
    with pytest.raises(NonFinite):
        build_yeadon_map(YeadonTriple(J=triple.J, w=triple.w, B=B), 3.0, weights)
