"""Named verification suites, each binding one certified property to a
reproducible seeded run with a JSON report.

Reports are deterministic for a fixed configuration: per-case seeds are
derived as seed XOR case-index and all randomness flows through numpy
Generators.  Wall time is recorded but excluded from determinism claims.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .algebra import Algebra, AlgebraElement, State, trace_row
from .errors import ConfigInvalid, NclpError, UnknownSuite
from .expectation import (
    construct_expectation,
    interpolation_gap,
    takesaki_invariant,
)
from .isometry import (
    build_isometry,
    classify,
    extract_polar_data,
    isometry_defect,
    star_adjoint_dual,
    verify_state_restriction,
)
from .lp import LpVector, clarkson_defect, conjugate_exponent, lp_norm, state_power
from .samples import (
    haar_unitary,
    random_element,
    random_isometry_data,
    random_invariant_inclusion,
    random_noninvariant_inclusion,
    random_yeadon_triple,
    rng_for,
    transpose_triple,
)
from .yeadon import (
    build_yeadon_map,
    jordan_dichotomy_report,
    projection_polar_parts,
    yeadon_decompose,
)

SCHEMA = "nclp/1"


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 0
    sizes: list | None = None
    exponents: list | None = None
    sample_count: int | None = None
    tolerances: dict | None = None

    def resolved(self) -> "SuiteConfig":
        if self.suite not in SUITES:
            raise UnknownSuite(f"no suite named {self.suite!r}; known: {sorted(SUITES)}")
        row = SUITES[self.suite]
        for name in ("sizes", "exponents"):
            value = getattr(self, name)
            if value is not None and getattr(row, name) is None:
                raise ConfigInvalid(f"suite {self.suite!r} takes no {name}")
            if value is not None and len(value) == 0:
                raise ConfigInvalid(f"{name} must not be empty")
        sizes, exponents = self.sizes, self.exponents
        if sizes is None and row.sizes is not None:
            sizes = [list(blocks) for blocks in row.sizes]
        if exponents is None:
            exponents = row.exponents
        out = SuiteConfig(
            suite=self.suite,
            seed=int(self.seed),
            sizes=sizes,
            exponents=None if exponents is None else list(exponents),
            sample_count=int(self.sample_count if self.sample_count is not None else row.sample_count),
            tolerances=dict(row.tolerances),
        )
        if self.tolerances:
            unknown = sorted(set(self.tolerances) - set(out.tolerances))
            if unknown:
                known = sorted(out.tolerances)
                raise ConfigInvalid(f"suite {self.suite!r} has no tolerance {unknown}; known: {known}")
            out.tolerances.update(self.tolerances)
        if not all(math.isfinite(float(v)) for v in out.tolerances.values()):
            raise ConfigInvalid("tolerances must be finite")
        if out.sample_count < 1:
            raise ConfigInvalid("sample_count must be positive")
        if out.exponents:
            ps = [float(p) for p in out.exponents]
            if not all(math.isfinite(p) for p in ps):
                raise ConfigInvalid("exponents must be finite")
            if row.domain == "p >= 1, p != 2" and any(abs(p - 2.0) < 1e-12 for p in ps):
                raise ConfigInvalid(f"suite {self.suite!r} excludes p = 2")
            if any(p < 1.0 for p in ps):
                raise ConfigInvalid("exponents must be >= 1")
            if row.domain == "p > 1" and 1.0 in ps:
                raise ConfigInvalid(f"suite {self.suite!r} needs exponents p > 1")
            if row.domain == "p >= 2" and any(p < 2.0 for p in ps):
                raise ConfigInvalid(f"suite {self.suite!r} needs exponents p >= 2")
        return out

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SuiteReport:
    config: SuiteConfig
    property: str
    cases: list = field(default_factory=list)
    passed: bool = False
    wall_time_s: float = 0.0

    def to_json(self, include_timing: bool = True) -> dict:
        out = {
            "schema": SCHEMA,
            "suite": self.config.suite,
            "property": self.property,
            "config": self.config.to_json(),
            "cases": self.cases,
            "pass": bool(self.passed),
        }
        if include_timing:
            out["wall_time_s"] = float(self.wall_time_s)
        return out

    def dumps(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json(include_timing=include_timing), indent=1)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def _case_seed(seed: int, index: int) -> int:
    return int(seed) ^ int(index)


def _per_case(config: SuiteConfig, tag: str, body, count: int, cycle: bool = True):
    """Run body(i, seed, p, key) for count cases: seed = config.seed XOR i, p
    the exponents in turn when cycle (else None), key the digested dict,
    which body may extend.  body returns (fields, ok); each record is
    {case, p, digest, **fields, pass}, and the suite passes when all do.  A
    case whose body raises an NclpError fails, with fields {error, message}:
    the error's type name and its message."""
    exps = [float(p) for p in config.exponents] if cycle else None
    cases = []
    for i in range(count):
        seed = _case_seed(config.seed, i)
        key = {"suite": tag, "seed": seed}
        record = {"case": i}
        p = None
        if cycle:
            p = key["p"] = record["p"] = exps[i % len(exps)]
        try:
            fields, ok = body(i, seed, p, key)
        except NclpError as err:
            fields, ok = {"error": type(err).__name__, "message": str(err)}, False
        cases.append({**record, "digest": _digest(key), **fields, "pass": ok})
    return cases, all(case["pass"] for case in cases)


def run_suite(config: SuiteConfig) -> SuiteReport:
    config = config.resolved()
    start = time.perf_counter()
    row = SUITES[config.suite]
    cases, passed = row.run(config)
    return SuiteReport(
        config=config,
        property=row.property,
        cases=cases,
        passed=passed,
        wall_time_s=time.perf_counter() - start,
    )


# -- clarkson ---------------------------------------------------------------------


def _orthogonal_pair(algebra_blocks, p, rng):
    """A pair with exactly disjoint left and right supports.

    Each block is either split along a coordinate rectangle (h in the top
    left, k in the strictly complementary bottom right) or handed entirely
    to one side; the mode draw is retried until both sides are nonempty
    whenever the block structure allows it.
    """
    alg = Algebra(tuple(algebra_blocks))
    splittable = any(n >= 2 for n in alg.blocks)
    two_sided_possible = splittable or len(alg.blocks) >= 2
    for _ in range(64):
        modes = []
        for n in alg.blocks:
            modes.append(int(rng.integers(0, 3)) if n >= 2 else int(rng.integers(1, 3)))
        has_h = any(m in (0, 1) for m in modes)
        has_k = any(m in (0, 2) for m in modes)
        if (has_h and has_k) or not two_sided_possible:
            break
    h_blocks = alg.zero_blocks()
    k_blocks = alg.zero_blocks()
    for bidx, (n, mode) in enumerate(zip(alg.blocks, modes)):
        g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if mode == 0:
            rows = int(rng.integers(1, n))
            cols = int(rng.integers(1, n))
            h_blocks[bidx][:rows, :cols] = g1[:rows, :cols]
            k_blocks[bidx][rows:, cols:] = g2[rows:, cols:]
        elif mode == 1:
            h_blocks[bidx][:, :] = g1
        else:
            k_blocks[bidx][:, :] = g2
    return LpVector(alg, p, h_blocks), LpVector(alg, p, k_blocks)


def _suite_clarkson(config: SuiteConfig):
    tol = config.tolerances
    per_p: dict[float, dict] = {}
    count = config.sample_count
    sizes = config.sizes
    exps = [float(p) for p in config.exponents]
    for i in range(count):
        rng = rng_for(_case_seed(config.seed, i))
        p = exps[i % len(exps)]
        blocks = sizes[i % len(sizes)]
        rec = per_p.setdefault(
            p, {"p": p, "orthogonal": 0, "overlapping": 0, "max_orthogonal_defect": 0.0, "min_overlap_defect": float("inf")}
        )
        h, k = _orthogonal_pair(blocks, p, rng)
        res = clarkson_defect(h, k)
        rec["orthogonal"] += 1
        rec["max_orthogonal_defect"] = max(rec["max_orthogonal_defect"], res.defect)
        # overlapping pair: normalized, resampled until clearly overlapping
        alg = Algebra(tuple(blocks))
        for _ in range(64):
            h2 = LpVector.from_element(random_element(alg, rng), p)
            k2 = LpVector.from_element(random_element(alg, rng), p)
            h2 = h2 * (1.0 / lp_norm(h2))
            k2 = k2 * (1.0 / lp_norm(k2))
            res2 = clarkson_defect(h2, k2)
            if res2.witness > tol["witness_min"]:
                break
        rec["overlapping"] += 1
        rec["min_overlap_defect"] = min(rec["min_overlap_defect"], res2.defect)
    cases = []
    passed = True
    for p in sorted(per_p):
        rec = per_p[p]
        ok = (
            rec["max_orthogonal_defect"] < tol["orthogonal_defect"]
            and rec["min_overlap_defect"] > tol["overlap_defect"]
        )
        passed = passed and ok
        rec["digest"] = _digest({"suite": "clarkson", "p": p, "seed": config.seed})
        rec["pass"] = ok
        cases.append(rec)
    return cases, passed


# -- yeadon ------------------------------------------------------------------------


def _suite_yeadon_roundtrip(config: SuiteConfig):
    tol = config.tolerances

    def case(i, seed, p, key):
        triple, weights = random_yeadon_triple(seed, p)
        T = build_yeadon_map(triple, p, weights)
        back = yeadon_decompose(T, p, weights)
        dist = max(
            float(np.max(np.abs(back.J.matrix - triple.J.matrix))),
            (back.w - triple.w).frobenius(),
            (back.B - AlgebraElement._raw(back.B.algebra, triple.B.data)).frobenius(),
        )
        # orthogonality propagation and additivity on a random orthogonal pair
        rng = rng_for(seed + 1)
        src = triple.J.source
        bidx = int(rng.integers(0, len(src.blocks)))
        n = src.blocks[bidx]
        orth = 0.0
        if n >= 2:
            v = haar_unitary(n, rng)
            e_blocks = src.zero_blocks()
            f_blocks = src.zero_blocks()
            e_blocks[bidx] = np.outer(v[:, 0], v[:, 0].conj())
            f_blocks[bidx] = np.outer(v[:, 1], v[:, 1].conj())
            e = AlgebraElement(src, e_blocks)
            f = AlgebraElement(src, f_blocks)
            we, Be = projection_polar_parts(T, e)
            wf, Bf = projection_polar_parts(T, f)
            wef, Bef = projection_polar_parts(T, e + f)
            orth = max(
                (Be @ Bf).frobenius(),
                (we.adjoint() @ wf).frobenius(),
                (we @ wf.adjoint()).frobenius(),
                (Bef - (Be + Bf)).frobenius(),
                (wef - (we + wf)).frobenius(),
            )
        fields = {"roundtrip_distance": dist, "orthogonality_defect": orth}
        return fields, dist < tol["roundtrip"] and orth < tol["orthogonality"]

    return _per_case(config, "yeadon", case, config.sample_count)


def _suite_dichotomy(config: SuiteConfig):
    tol = config.tolerances

    def case(i, seed, p, key):
        n = key["n"] = 2 + (i % 2)
        triple, weights = transpose_triple(n=n, seed=seed if i % 3 else None)
        rep = jordan_dichotomy_report(triple, p, weights, tol=tol["two_isometry"])
        bound = 2.0 - 4.0 ** (1.0 / p) - tol["witness_slack"]
        ok = (
            rep.kind == "jordan_only"
            and rep.isometry_defect < tol["isometry"]
            and not rep.multiplicative
            and rep.two_isometry_defect > tol["two_isometry"]
            and rep.witness_defect >= bound
            and rep.biconditional_holds
        )
        # multiplicative control at the same exponent
        ctrl, cweights = random_yeadon_triple(seed, p, spec=[(2, "mult", 1, 0)])
        crep = jordan_dichotomy_report(ctrl, p, cweights, tol=tol["two_isometry"])
        ok = ok and crep.multiplicative and crep.two_isometry_defect < tol["two_isometry"]
        ok = ok and crep.biconditional_holds
        fields = {
            "transpose_kind": rep.kind,
            "witness_defect": rep.witness_defect,
            "witness_bound": bound,
            "control_kind": crep.kind,
            "control_two_isometry_defect": crep.two_isometry_defect,
        }
        return fields, ok

    return _per_case(config, "dichotomy", case, config.sample_count)


# -- classification ------------------------------------------------------------------


def _roundtrip_distance(data, report) -> float:
    rec = report.data
    return max(
        float(np.max(np.abs(rec.pi.matrix - data.pi.matrix))),
        (rec.w - data.w).frobenius(),
        float(np.max(np.abs(rec.expectation.map.matrix - data.expectation.map.matrix))),
        (rec.phibar.density - data.phibar.density).frobenius(),
    )


def _suite_classify_roundtrip(config: SuiteConfig):
    tol = config.tolerances

    def case(i, seed, p, key):
        data = random_isometry_data(seed)
        T = build_isometry(data, p)
        report = classify(T, data.reference_state, p)
        dist = _roundtrip_distance(data, report) if report.accepted else float("inf")
        fields = {
            "verdict": report.verdict,
            "defects": {k: float(v) for k, v in report.defects.items()},
            "recovered_distance": dist,
        }
        return fields, report.accepted and dist < tol["distance"]

    return _per_case(config, "classify", case, config.sample_count)


def _suite_state_restriction(config: SuiteConfig):
    tol = config.tolerances

    def case(i, seed, p, key):
        data = random_isometry_data(seed)
        T = build_isometry(data, p)
        w, phibar = extract_polar_data(T, data.reference_state)
        defect = verify_state_restriction(phibar, data.pi, data.reference_state)
        # perturbed state must be detected
        rng = rng_for(seed + 5)
        g = random_element(data.source, rng, hermitian=True)
        drift = data.pi(g)
        # trace-free, so that renormalizing the perturbed density cannot
        # cancel a drift nearly parallel to the state
        pi_one = data.pi(AlgebraElement.identity(data.source))
        drift = drift - (drift.trace().real / pi_one.trace().real) * pi_one
        drift = drift * (0.1 / max(drift.frobenius(), 1e-12))
        raw = phibar.density + drift
        blocks = []
        for blk in raw.data:
            ww, vv = np.linalg.eigh((blk + blk.conj().T) / 2)
            blocks.append((vv * np.clip(ww, 1e-8, None)) @ vv.conj().T)
        perturbed = State(data.target, blocks, normalize=True)
        bad = verify_state_restriction(perturbed, data.pi, data.reference_state)
        fields = {"restriction_defect": defect, "perturbed_defect": bad}
        return fields, defect < tol["defect"] and bad > tol["perturbed_min"]

    return _per_case(config, "restriction", case, config.sample_count)


def _suite_interpolation(config: SuiteConfig):
    tol = config.tolerances
    exps = [float(p) for p in config.exponents]
    n_incl = max(4, config.sample_count // 100)
    per_incl = max(1, config.sample_count // (n_incl * len(exps)))
    gaps = []

    def case(j, seed, p, key):
        if j % 2 == 0:
            A, phibar = random_invariant_inclusion(seed)
        else:
            A, phibar = random_noninvariant_inclusion(seed)
        small = A.decomposition.algebra
        rng = rng_for(seed + 77)
        mine = [
            interpolation_gap(A, phibar, random_element(small, rng), q)
            for q in exps
            for _ in range(per_incl)
        ]
        gaps.extend(mine)
        # folded from inf: a NaN gap compares false and is passed over
        min_gap = min([float("inf"), *mine])
        return {"samples": len(mine), "min_gap": min_gap}, min_gap >= -tol["violation"]

    cases, passed = _per_case(config, "interpolation", case, n_incl, cycle=False)
    aggregate = {
        "case": "aggregate",
        "total_samples": len(gaps),
        "violations": len([gap for gap in gaps if gap < -tol["violation"]]),
        "worst_gap": min([0.0, *gaps]),
        "pass": passed,
    }
    return [*cases, aggregate], passed


def _suite_duality(config: SuiteConfig):
    tol = config.tolerances

    def case(i, seed, p, key):
        data = random_isometry_data(seed)
        Tp = build_isometry(data, p)
        dual = star_adjoint_dual(build_isometry(data, conjugate_exponent(p)))
        resid = float(
            np.max(np.abs(dual.matrix @ Tp.matrix - np.eye(Tp.source.total_dim)))
        )
        return {"composition_residual": resid}, resid < tol["identity"]

    return _per_case(config, "duality", case, config.sample_count)


def _suite_extrapolation(config: SuiteConfig):
    tol = config.tolerances
    qs = [float(q) for q in config.exponents]

    def case(i, seed, p, key):
        data = random_isometry_data(seed)
        premise = isometry_defect(build_isometry(data, 3.0), seed=seed)
        defects = {}
        for q in qs:
            defects[str(q)] = isometry_defect(build_isometry(data, q), seed=seed)
        ok = premise < tol["defect"] and all(v < tol["defect"] for v in defects.values())
        return {"premise_defect_p3": premise, "transfer_defects": defects}, ok

    return _per_case(config, "extrapolation", case, config.sample_count, cycle=False)


def _suite_lemma41(config: SuiteConfig):
    tol = config.tolerances
    n_data = 8
    per = max(1, config.sample_count // n_data)

    def case(i, seed, p, key):
        data = random_isometry_data(seed)
        phi, phibar, pi = data.reference_state, data.phibar, data.pi
        rng = rng_for(seed + 41)
        rho4 = state_power(phi, 0.25)
        rhobar4 = state_power(phibar, 0.25)
        worst = 0.0
        for _ in range(per):
            x = random_element(data.source, rng)
            x = x * (1.0 / max(x.frobenius(), 1e-12))
            lhs_vec = LpVector.from_element(rhobar4 @ pi(x) @ rhobar4, 2.0)
            rhs_vec = LpVector.from_element(rho4 @ x @ rho4, 2.0)
            worst = max(worst, abs(lp_norm(lhs_vec) - lp_norm(rhs_vec)))
        return {"samples": per, "max_defect": worst}, worst < tol["defect"]

    return _per_case(config, "lemma41", case, n_data, cycle=False)


def _suite_expectation_detect(config: SuiteConfig):
    tol = config.tolerances
    search = int(tol.get("search", 500))

    def case(i, seed, p, key):
        # noninvariant inclusion: a positive invariance defect and a strict
        # norm-drop witness must both be found
        A, phibar = random_noninvariant_inclusion(seed)
        check = takesaki_invariant(A, phibar)
        rng = rng_for(seed + 99)
        small = A.decomposition.algebra
        best_gap = 0.0
        for _ in range(search):
            x = random_element(small, rng)
            best_gap = max(best_gap, interpolation_gap(A, phibar, x, 4.0))
            if best_gap > 3 * tol["gap_min"]:
                break
        non_ok = (not check.invariant) and check.defect > tol["defect_min"] and best_gap > tol["gap_min"]

        # invariant inclusion: the expectation exists and satisfies its
        # structural identities tightly: M M = M, E(a) = a on the basis
        # columns B, and phi(E(u)) = phi(u) on the units, omega M = omega
        # for the state's trace row omega
        Ainv, phin = random_invariant_inclusion(seed)
        E = construct_expectation(Ainv, phin)
        M, B, omega = E.map.matrix, Ainv.columns, trace_row(phin.density)
        inv_defect = max(
            float(np.max(np.abs(M @ M - M))),
            float(np.max(np.linalg.norm(M @ B - B, axis=0))),
            float(np.max(np.abs(omega @ M - omega))),
        )
        rng2 = rng_for(seed + 123)
        for _ in range(5):
            g = random_element(Ainv.parent, rng2)
            pos = E(g @ g.adjoint())
            low = min(float(np.linalg.eigvalsh((b + b.conj().T) / 2).min()) for b in pos.data)
            inv_defect = max(inv_defect, max(0.0, -low))
        one = AlgebraElement.identity(Ainv.parent)
        inv_defect = max(inv_defect, (E(one) - Ainv.unit).frobenius())
        fields = {
            "noninvariant_defect": check.defect,
            "witness_gap": best_gap,
            "invariant_expectation_defect": inv_defect,
        }
        return fields, non_ok and inv_defect < tol["invariants"]

    return _per_case(config, "detect", case, config.sample_count, cycle=False)


@dataclass(frozen=True)
class Suite:
    """One row of `SUITES`: the suite's runner, the property it certifies,
    its defaults and the exponents it accepts.  A suite reads sizes or
    exponents only when its row has defaults for them.  The domain of the
    exponents is "p >= 1", "p > 1", "p >= 2" or "p >= 1, p != 2"."""

    run: Callable[[SuiteConfig], tuple]
    property: str
    sample_count: int
    tolerances: Mapping[str, float]
    sizes: tuple | None = None
    exponents: tuple | None = None
    domain: str = "p >= 1"

    def __post_init__(self):
        object.__setattr__(self, "tolerances", MappingProxyType(dict(self.tolerances)))


SUITES: dict[str, Suite] = {
    "clarkson": Suite(
        _suite_clarkson,
        "equality in the p-th power parallelogram law is equivalent to "
        "two-sided orthogonality h k* = h* k = 0 (p != 2)",
        sample_count=500,
        tolerances={"orthogonal_defect": 1e-8, "overlap_defect": 1e-6, "witness_min": 0.1},
        sizes=((2,), (3,), (4,), (1, 2)),
        exponents=(1, 1.5, 3, 4),
        domain="p >= 1, p != 2",
    ),
    "yeadon_roundtrip": Suite(
        _suite_yeadon_roundtrip,
        "the triple (J, w, B) of a tracial-source isometry is unique, "
        "inverts assembly, and its polar parts add over orthogonal projections",
        sample_count=16,
        tolerances={"roundtrip": 1e-7, "orthogonality": 1e-9},
        exponents=(1, 1.5, 3, 4),
        domain="p >= 1, p != 2",
    ),
    "dichotomy": Suite(
        _suite_dichotomy,
        "a tracial-source isometry preserves amplified norms exactly when "
        "its Jordan part is multiplicative",
        sample_count=8,
        tolerances={"isometry": 1e-8, "two_isometry": 1e-6, "witness_slack": 1e-6},
        exponents=(1, 1.5, 3, 4),
        domain="p >= 1, p != 2",
    ),
    "classify_roundtrip": Suite(
        _suite_classify_roundtrip,
        "classification of an assembled canonical map accepts and "
        "recovers (pi, E, w) under the normalization w* w = pi(1) = support of E",
        sample_count=12,
        tolerances={"distance": 1e-7},
        exponents=(1, 1.5, 3, 4, 7),
        domain="p >= 1, p != 2",
    ),
    "state_restriction": Suite(
        _suite_state_restriction,
        "the state carried by the image of the reference vector "
        "restricts through the embedding to the source state",
        sample_count=10,
        tolerances={"defect": 1e-9, "perturbed_min": 1e-3},
        exponents=(1.5, 3, 4),
    ),
    "interpolation": Suite(
        _suite_interpolation,
        "for a unital inclusion with matched states and p >= 2, passing "
        "to the larger algebra does not increase the L_p norm",
        sample_count=500,
        tolerances={"violation": 1e-10},
        exponents=(2, 3, 4, 8),
        domain="p >= 2",
    ),
    "duality": Suite(
        _suite_duality,
        "the companion map at the conjugate exponent inverts the map under "
        "the star adjoint of trace duality",
        sample_count=8,
        tolerances={"identity": 1e-8},
        exponents=(1.5, 3),
        # the companion is taken at p / (p - 1), an L_p exponent only for p > 1
        domain="p > 1",
    ),
    "extrapolation": Suite(
        _suite_extrapolation,
        "a companion family isometric at one exponent above two is "
        "isometric at every other exponent",
        sample_count=8,
        tolerances={"defect": 1e-8},
        exponents=(2.5, 4, 7),
    ),
    "lemma41": Suite(
        _suite_lemma41,
        "the two-sided exponent-four L_2 quantity agrees between source and "
        "embedded image",
        sample_count=200,
        tolerances={"defect": 1e-8},
    ),
    "expectation_detect": Suite(
        _suite_expectation_detect,
        "a state-preserving expectation onto a unital subalgebra "
        "exists exactly when the subalgebra is stable under the modular flow; otherwise "
        "a strict norm drop is exhibited",
        sample_count=20,
        tolerances={"defect_min": 1e-6, "gap_min": 1e-3, "invariants": 1e-9, "search": 500},
    ),
}
