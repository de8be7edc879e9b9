"""Acceptance gate: every criterion at its stated tolerance, printing one
pass line apiece.  Desk scale throughout (block dimensions <= 4,
amplifications n <= 3)."""

import json
import time

import numpy as np
import pytest

from nclp.algebra import AlgebraElement, matrix_units
from nclp.cli import main
from nclp.expectation import (
    construct_expectation,
    interpolation_gap,
    takesaki_invariant,
)
from nclp.isometry import (
    build_isometry,
    classify,
    isometry_defect,
    star_adjoint_dual,
    two_isometry_defect,
)
from nclp.lp import LpVector, lp_norm, state_power
from nclp.samples import (
    random_element,
    random_invariant_inclusion,
    random_isometry_data,
    random_noninvariant_inclusion,
    random_yeadon_triple,
    rng_for,
    transpose_triple,
)
from nclp.suites import SuiteConfig, run_suite
from nclp.yeadon import (
    build_yeadon_map,
    jordan_dichotomy_report,
    projection_polar_parts,
    yeadon_decompose,
)

N_INSTANCES = 50
EXPONENTS = [1.0, 1.5, 3.0, 4.0, 7.0]


def _passline(name, detail=""):
    print(f"[PASS] {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def instances():
    out = []
    for seed in range(N_INSTANCES):
        p = EXPONENTS[seed % len(EXPONENTS)]
        out.append((seed, p, random_isometry_data(seed)))
    return out


def test_clarkson_suite():
    t0 = time.perf_counter()
    report = run_suite(SuiteConfig(suite="clarkson", seed=1, sample_count=500))
    elapsed = time.perf_counter() - t0
    assert report.passed, report.cases
    for case in report.cases:
        assert case["max_orthogonal_defect"] < 1e-8
        assert case["min_overlap_defect"] > 1e-6
    assert {case["p"] for case in report.cases} == {1.0, 1.5, 3.0, 4.0}
    assert elapsed < 10.0
    _passline("clarkson suite", f"500+500 pairs, {elapsed:.2f}s")


def test_factory_isometry(instances):
    t0 = time.perf_counter()
    saw_positive_w = saw_generic_w = saw_corner = False
    for seed, p, data in instances:
        T = build_isometry(data, p)
        d_iso = isometry_defect(T, sample_count=40, seed=seed)
        d_two = two_isometry_defect(T, n=2, sample_count=25, seed=seed, relative=True)
        d_three = two_isometry_defect(T, n=3, sample_count=15, seed=seed, relative=True)
        assert d_iso < 1e-8, (seed, p, d_iso)
        assert d_two < 1e-8, (seed, p, d_two)
        assert d_three < 1e-8, (seed, p, d_three)
        pi_one = data.pi(AlgebraElement.identity(data.source))
        if (data.w - pi_one).frobenius() < 1e-12:
            saw_positive_w = True
        else:
            saw_generic_w = True
        if (pi_one - AlgebraElement.identity(data.target)).frobenius() > 1e-6:
            saw_corner = True
    elapsed = time.perf_counter() - t0
    assert saw_positive_w and saw_generic_w and saw_corner
    assert elapsed < 60.0
    _passline("factory isometry", f"{N_INSTANCES} instances, n=2,3 amplified, {elapsed:.2f}s")


def test_classification_roundtrip(instances):
    for seed, p, data in instances:
        T = build_isometry(data, p)
        report = classify(T, data.reference_state, p)
        assert report.accepted, (seed, p, report.failing_stage, report.defects)
        rec = report.data
        dist = max(
            float(np.max(np.abs(rec.pi.matrix - data.pi.matrix))),
            (rec.w - data.w).frobenius(),
            float(np.max(np.abs(rec.expectation.map.matrix - data.expectation.map.matrix))),
            (rec.phibar.density - data.phibar.density).frobenius(),
        )
        assert dist < 1e-7, (seed, p, dist)
    _passline("classification roundtrip", f"{N_INSTANCES} instances recovered to 1e-7")


def test_dichotomy():
    for p in (1.0, 1.5, 3.0, 4.0):
        for n in (2, 3):
            triple, weights = transpose_triple(n)
            rep = jordan_dichotomy_report(triple, p, weights)
            assert rep.isometry_defect < 1e-8
            assert rep.kind == "jordan_only"
            bound = 2.0 - 4.0 ** (1.0 / p) - 1e-6
            assert rep.witness_defect >= bound, (p, n, rep.witness_defect, bound)
            assert rep.two_isometry_defect > 1e-6
            assert rep.biconditional_holds
    # at p = 1 the grid witness defect is exactly two
    triple, weights = transpose_triple(2)
    rep1 = jordan_dichotomy_report(triple, 1.0, weights)
    assert np.isclose(rep1.witness_defect, 2.0)
    _passline("dichotomy", "transpose triples rejected with the exact witness defect")


def test_yeadon_roundtrip():
    from nclp.samples import haar_unitary

    worst_rt, worst_orth = 0.0, 0.0
    for seed in range(12):
        p = [1.0, 1.5, 3.0, 4.0][seed % 4]
        triple, weights = random_yeadon_triple(seed, p)
        T = build_yeadon_map(triple, p, weights)
        back = yeadon_decompose(T, p, weights)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(back.J.matrix - triple.J.matrix))),
            (back.w - triple.w).frobenius(),
            (back.B - LpVector.from_element(triple.B, p)).frobenius(),
        )
        rng = rng_for(seed + 1)
        src = triple.J.source
        for bidx, n in enumerate(src.blocks):
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
            worst_orth = max(
                worst_orth,
                (Be @ Bf).frobenius(),
                (we.adjoint() @ wf).frobenius(),
                (Bef - (Be + Bf)).frobenius(),
                (wef - (we + wf)).frobenius(),
            )
    assert worst_rt < 1e-7
    assert worst_orth < 1e-9
    _passline("yeadon roundtrip", f"roundtrip {worst_rt:.1e}, orthogonality {worst_orth:.1e}")


def test_restriction_l2_and_interpolation(instances):
    # state restriction on classified maps
    worst_restriction = 0.0
    for seed, p, data in instances[:10]:
        T = build_isometry(data, p)
        report = classify(T, data.reference_state, p)
        assert report.accepted
        worst_restriction = max(worst_restriction, report.defects["state_restriction"])
    assert worst_restriction < 1e-9

    # exponent-four two-sided L_2 identity on 200 samples
    worst_l2 = 0.0
    count = 0
    for seed, _, data in instances[:10]:
        rng = rng_for(seed + 4000)
        r4 = state_power(data.reference_state, 0.25)
        rb4 = state_power(data.phibar, 0.25)
        for _ in range(20):
            x = random_element(data.source, rng)
            x = x * (1.0 / max(x.frobenius(), 1e-12))
            lhs = lp_norm(LpVector.from_element(rb4 @ data.pi(x) @ rb4, 2.0))
            rhs = lp_norm(LpVector.from_element(r4 @ x @ r4, 2.0))
            worst_l2 = max(worst_l2, abs(lhs - rhs))
            count += 1
    assert count == 200
    assert worst_l2 < 1e-8

    # interpolation inequality on 500 samples across p in {2, 3, 4, 8}
    violations = 0
    total = 0
    worst_gap = 0.0
    idx = 0
    while total < 500:
        seed = idx
        if idx % 2 == 0:
            A, phibar = random_invariant_inclusion(seed)
        else:
            A, phibar = random_noninvariant_inclusion(seed)
        small = A.decomposition.algebra
        rng = rng_for(seed + 5000)
        for p in (2.0, 3.0, 4.0, 8.0):
            for _ in range(8):
                x = random_element(small, rng)
                gap = interpolation_gap(A, phibar, x, p)
                worst_gap = min(worst_gap, gap)
                if gap < -1e-10:
                    violations += 1
                total += 1
        idx += 1
    assert violations == 0, worst_gap
    _passline(
        "state restriction / L2 identity / interpolation",
        f"restriction {worst_restriction:.1e}, L2 {worst_l2:.1e}, "
        f"{total} interpolation samples, worst gap {worst_gap:.1e}",
    )


def test_extrapolation_and_duality(instances):
    worst_transfer = 0.0
    for seed, _, data in instances[:10]:
        T3 = build_isometry(data, 3.0)
        assert isometry_defect(T3, seed=seed) < 1e-8
        for q in (2.5, 4.0, 7.0):
            Tq = build_isometry(data, q)
            worst_transfer = max(worst_transfer, isometry_defect(Tq, seed=seed))
    assert worst_transfer < 1e-8

    worst_dual = 0.0
    for seed, _, data in instances[:10]:
        for p in (1.5, 3.0):
            pp = p / (p - 1.0)
            Tp = build_isometry(data, p)
            Tpp = build_isometry(data, pp)
            comp = star_adjoint_dual(Tpp).matrix @ Tp.matrix
            worst_dual = max(
                worst_dual, float(np.max(np.abs(comp - np.eye(Tp.source.total_dim))))
            )
    assert worst_dual < 1e-8
    _passline(
        "extrapolation and duality",
        f"transfer defect {worst_transfer:.1e}, dual composition {worst_dual:.1e}",
    )


def test_expectation_detection():
    for seed in range(20):
        A, phibar = random_noninvariant_inclusion(seed)
        check = takesaki_invariant(A, phibar)
        assert not check.invariant
        assert check.defect > 1e-6
        small = A.decomposition.algebra
        rng = rng_for(seed + 99)
        best = 0.0
        for _ in range(500):
            x = random_element(small, rng)
            best = max(best, interpolation_gap(A, phibar, x, 4.0))
            if best > 1e-3:
                break
        assert best > 1e-3, (seed, best)

    for seed in range(20):
        A, phibar = random_invariant_inclusion(seed)
        E = construct_expectation(A, phibar)
        M = E.map.matrix
        defect = float(np.max(np.abs(M @ M - M)))
        for a in A.basis:
            defect = max(defect, (E(a) - a).frobenius())
        for u in matrix_units(A.parent):
            defect = max(defect, abs(phibar(E(u)) - phibar(u)))
        rng = rng_for(seed + 1)
        for _ in range(5):
            g = random_element(A.parent, rng)
            pos = E(g @ g.adjoint())
            low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in pos.data)
            defect = max(defect, max(0.0, -low))
        one = AlgebraElement.identity(A.parent)
        defect = max(defect, (E(one) - A.unit).frobenius())
        assert defect < 1e-9, (seed, defect)
    _passline("expectation detection", "20 noninvariant + 20 invariant inclusions")


def test_cli_determinism_and_exit_codes(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--suite", "clarkson", "--seed", "1", "--samples", "200"]
    assert main(args + ["-o", str(r1)]) == 0
    assert main(args + ["-o", str(r2)]) == 0
    a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b

    # exit 1 on a failing verdict, exit 2 on bad input
    assert (
        main(
            [
                "verify",
                "--suite",
                "duality",
                "--samples",
                "2",
                "--tol",
                "identity=1e-30",
            ]
        )
        == 1
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["norm", str(bad), "--p", "3"]) == 2
    _passline("cli determinism and exit codes")
