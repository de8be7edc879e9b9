import numpy as np
import pytest

from nclp.algebra import (
    AlgebraElement,
    AlgebraMap,
    left_mult_matrix,
    make_algebra,
    transpose_permutation,
)
from nclp.errors import ExponentUnsupported, TraceConditionViolated
from nclp.isometry import grid_witness
from nclp.lp import LpMap, LpVector, amplify_map, lp_norm
from nclp.samples import haar_unitary, random_yeadon_triple, rng_for, transpose_triple
from nclp.yeadon import (
    YeadonTriple,
    build_yeadon_map,
    jordan_dichotomy_report,
    projection_polar_parts,
    weighted_lp_norm,
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


def test_build_diagonal_weights_oracle():
    # source C + C with weights (a^p, b^p); B = diag(a, b) against the plain
    # target trace gives an isometry, by direct singular values
    p = 3.0
    a, b = 1.3, 0.6
    src = make_algebra([1, 1])
    tgt = make_algebra([2])

    def embed(x):
        return AlgebraElement(tgt, [np.diag([x.data[0][0, 0], x.data[1][0, 0]])])

    J = AlgebraMap.from_callable(src, tgt, embed)
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
        assert np.isclose(weighted_lp_norm(x, weights), direct)


def test_build_rejects_mismatched_weights():
    p = 3.0
    src = make_algebra([1, 1])
    tgt = make_algebra([2])

    def embed(x):
        return AlgebraElement(tgt, [np.diag([x.data[0][0, 0], x.data[1][0, 0]])])

    J = AlgebraMap.from_callable(src, tgt, embed)
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


@pytest.mark.parametrize("seed,p", [(0, 1.0), (1, 1.5), (2, 3.0), (5, 4.0)])
def test_roundtrip(seed, p):
    triple, weights = random_yeadon_triple(seed, p)
    T = build_yeadon_map(triple, p, weights)
    back = yeadon_decompose(T, p, weights)
    assert np.max(np.abs(back.J.matrix - triple.J.matrix)) < 1e-7
    assert (back.w - triple.w).frobenius() < 1e-7
    assert (back.B - LpVector.from_element(triple.B, p)).frobenius() < 1e-7


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
    """Reference: the per-sample loops jordan_dichotomy_report ran before
    the metric defects were batched."""
    T = build_yeadon_map(triple, p, weights)
    rng = np.random.default_rng(11)
    iso = 0.0
    for _ in range(20):
        blocks = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in triple.J.source.blocks
        ]
        h = LpVector(triple.J.source, p, blocks)
        nh = weighted_lp_norm(h, weights)
        iso = max(iso, abs(lp_norm(T(h)) - nh) / nh)
    big = amplify_map(T, 2)
    witness = 0.0
    for b, nb in enumerate(T.source.blocks):
        if nb >= 2:
            X = grid_witness(T.source, b, 0, 1, p, 2)
            witness = max(witness, float(abs(lp_norm(big(X)) - lp_norm(X, weights=weights))))
    return iso, witness


@pytest.mark.parametrize("seed", range(8))
def test_dichotomy_equals_the_sample_loops(seed):
    for p in (1.0, 1.5, 3.0):
        triple, weights = random_yeadon_triple(seed, p)
        rep = jordan_dichotomy_report(triple, p, weights)
        expected = _dichotomy_by_samples(triple, p, weights)
        assert (rep.isometry_defect, rep.witness_defect) == expected
