"""The three benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop of one client: the next operation starts
when the previous one has returned.  A workload is set up ``SETUPS`` times;
each set-up is timed and contributes its inputs to the operation pool.  The
timed phase runs whole cycles over the pool, each in a seeded order, so
every input carries the same weight in a run.

Why these workloads:

- ``accept_ladder``: ``classify`` on canonical maps, the paper's main
  pipeline on inputs that pass every stage.  Most of its time is spent in
  ``construct_expectation``.
- ``reject_mix``: the same instances, corrupted so that ``classify`` rejects
  early, read from JSON as the ``nclp classify`` command does.  It runs the
  metric defects and never reaches the expectation, so a gain there must
  show no change here.
- ``layer_mix``: Yeadon round trips with their dichotomy reports, batches of
  Clarkson defects, and interpolation gaps of invariant inclusions, the
  only workload that reaches ``yeadon``, ``clarkson_defect`` and the factor
  decomposition, none of which ``classify`` calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

# operations reach nclp through module attributes, so that the tracer's
# wrappers are seen when installed
from nclp import expectation, isometry, lp, samples, serialize, yeadon
from nclp.algebra import Algebra, transpose_permutation
from nclp.expectation import Subalgebra
from nclp.lp import LpMap, LpVector
from nclp.samples import random_element, random_invariant_inclusion, random_isometry_data

# instance plans for random_isometry_data: (source blocks, target plan)
PLANS = {
    "P2": ((2,), [([(0, 1)], 2)]),
    "P3": ((3,), [([(0, 1)], 2)]),
    "P4": ((4,), [([(0, 1)], 2)]),
    "M1": ((2, 1), [([(0, 2), (1, 1)], 1), ([(0, 1)], 1)]),
    "M2": ((3,), [([(0, 2)], 0)]),
}
EXPONENTS = (1.0, 1.5, 3.0, 4.0, 7.0)
SETUPS = 4
ROUNDTRIP_TOL = 1e-7
PERTURBATION = 1e-5
# layer_mix: block layouts of the Clarkson pairs, exponents of the
# interpolation gaps (the gap is signed for p >= 2) and batch sizes
CLARKSON_BLOCKS = ((2,), (3,), (4,), (1, 2))
CLARKSON_PAIRS = 96
GAP_EXPONENTS = (2.0, 3.0, 4.0, 8.0)
GAP_SAMPLES = 10
LAYOUTS = 8
DICHOTOMY_TOL = 1e-6
ISOMETRY_TOL = 1e-8
VALUE_TOL = 1e-9


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` inspects its result and
    returns the fields to record, with ``ok`` false on a wrong output."""

    label: dict
    root: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def _instances(seed: int, setup: int):
    """The canonical instances of one set-up, one per plan, with their maps
    at every exponent."""
    rng = random.Random(f"instances-{seed}-{setup}")
    out = []
    for name, (source, plan) in PLANS.items():
        instance_seed = rng.randrange(2**31)
        data = random_isometry_data(instance_seed, source, plan=plan)
        for p in EXPONENTS:
            label = {
                "plan": name,
                "instance": instance_seed,
                "d": data.source.total_dim,
                "D": data.target.total_dim,
                "p": p,
            }
            out.append((label, data, isometry.build_isometry(data, p)))
    return out


def roundtrip_distance(data, recovered) -> float:
    """Largest entrywise or Frobenius gap between generated and recovered
    (pi, w, E, phibar)."""
    return max(
        float(np.max(np.abs(recovered.pi.matrix - data.pi.matrix))),
        (recovered.w - data.w).frobenius(),
        float(np.max(np.abs(recovered.expectation.map.matrix - data.expectation.map.matrix))),
        (recovered.phibar.density - data.phibar.density).frobenius(),
    )


def _check_accept(data, report) -> dict:
    if not report.accepted:
        return {"ok": False, "why": f"rejected at {report.failing_stage}"}
    dist = roundtrip_distance(data, report.data)
    return {"ok": dist < ROUNDTRIP_TOL, "distance": dist}


def _check_reject(stage: str, out: dict) -> dict:
    ok = out["verdict"] == "reject" and out["failing_stage"] == stage
    return {"ok": ok, "stage": out["failing_stage"]}


def _frobenius(blocks) -> float:
    return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks)))


def _check_yeadon(out) -> dict:
    """The decomposed triple is the generating one, and the dichotomy report
    finds the map isometric with kind and amplified defect agreeing."""
    triple, back, report = out
    dist = max(
        float(np.max(np.abs(back.J.matrix - triple.J.matrix))),
        (back.w - triple.w).frobenius(),
        _frobenius([a - b for a, b in zip(back.B.data, triple.B.data)]),
    )
    ok = (
        dist < ROUNDTRIP_TOL
        and report.kind != "neither"
        and report.isometry_defect < ISOMETRY_TOL
        and report.biconditional_holds
    )
    return {"ok": ok, "distance": dist, "kind": report.kind}


def _schatten_power(blocks, p: float) -> float:
    return float(sum(np.sum(np.linalg.svd(b, compute_uv=False) ** p) for b in blocks))


def _check_clarkson(pairs, results) -> dict:
    """Each defect and witness matches a direct singular-value computation,
    and exactly orthogonal pairs satisfy the parallelogram identity."""
    worst = 0.0
    ok = len(results) == len(pairs)
    for (h, k, orthogonal), res in zip(pairs, results):
        p = h.p
        plus = [a + b for a, b in zip(h.data, k.data)]
        minus = [a - b for a, b in zip(h.data, k.data)]
        rhs = 2.0 * (_schatten_power(h.data, p) + _schatten_power(k.data, p))
        lhs = _schatten_power(plus, p) + _schatten_power(minus, p)
        witness = max(
            _frobenius([a @ b.conj().T for a, b in zip(h.data, k.data)]),
            _frobenius([a.conj().T @ b for a, b in zip(h.data, k.data)]),
        )
        gap = max(abs(res.defect - abs(lhs - rhs)), abs(res.witness - witness)) / rhs
        worst = max(worst, gap)
        ok = ok and gap < VALUE_TOL and res.orthogonal == orthogonal
        ok = ok and (res.defect < VALUE_TOL * rhs if orthogonal else witness > 0.0)
    return {"ok": ok, "worst_relative_gap": worst}


def _check_gaps(scales, gaps) -> dict:
    """An invariant inclusion has a state-preserving expectation, so every
    interpolation gap vanishes."""
    worst = max(abs(g) / s for g, s in zip(gaps, scales))
    return {"ok": len(gaps) == len(scales) and worst < VALUE_TOL, "worst_relative_gap": worst}


def _classify(T, phi, p):
    return isometry.classify(T, phi, p)


def _classify_json(map_text: str, state_text: str) -> dict:
    """The ``nclp classify map.json --state state.json`` path in-process."""
    T = serialize.lp_map_from_json(json.loads(map_text))
    phi = serialize.state_from_json(json.loads(state_text))
    return serialize.classification_report_to_json(isometry.classify(T, phi, T.p))


def _yeadon_roundtrip(seed: int, p: float):
    """Generate a tracial-source triple, assemble its map, decompose it again
    and report its Jordan dichotomy."""
    triple, weights = samples.random_yeadon_triple(seed, p)
    T = yeadon.build_yeadon_map(triple, p, weights)
    back = yeadon.yeadon_decompose(T, p, weights)
    report = yeadon.jordan_dichotomy_report(triple, p, weights, tol=DICHOTOMY_TOL)
    return triple, back, report


def _clarkson_batch(pairs):
    return [lp.clarkson_defect(h, k) for h, k, _ in pairs]


def _interpolation_gaps(parent, basis, phibar, xs):
    """Interpolation gaps on a fresh copy of the inclusion, so that its factor
    decomposition is computed inside the operation."""
    A = Subalgebra(parent, basis, validate=False)
    return [expectation.interpolation_gap(A, phibar, x, p) for x in xs for p in GAP_EXPONENTS]


class Workload:
    """Inputs made by ``setup`` calls; ``cycle(k)`` lists the k-th cycle."""

    def __init__(self, seed: int):
        self.seed = seed
        self.pool: list[Op] = []
        self._order = random.Random(f"order-{seed}")

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Op]:
        ops = list(self.pool)
        self._order.shuffle(ops)
        return ops


class AcceptLadder(Workload):
    def setup(self, index: int) -> None:
        for label, data, T in _instances(self.seed, index):
            self.pool.append(
                Op(
                    label=label,
                    root="op",
                    run=partial(_classify, T, data.reference_state, label["p"]),
                    check=partial(_check_accept, data),
                )
            )


class RejectMix(Workload):
    def setup(self, index: int) -> None:
        for label, data, T in _instances(self.seed, index):
            rng = np.random.default_rng([self.seed, index, len(self.pool)])
            noise = rng.standard_normal(T.matrix.shape) + 1j * rng.standard_normal(T.matrix.shape)
            scale = PERTURBATION * np.linalg.norm(T.matrix) / np.linalg.norm(noise)
            variants = {
                "isometry": T.matrix + scale * noise,
                "multiplicativity": T.matrix @ transpose_permutation(T.source),
            }
            state_text = json.dumps(serialize.state_to_json(data.reference_state))
            for stage, matrix in variants.items():
                corrupted = LpMap(T.source, T.target, T.p, matrix)
                map_text = json.dumps(serialize.lp_map_to_json(corrupted))
                self.pool.append(
                    Op(
                        label={**label, "expect": stage},
                        root="op",
                        run=partial(_classify_json, map_text, state_text),
                        check=partial(_check_reject, stage),
                    )
                )


def _orthogonal_pair(blocks, p, rng):
    """A pair with exactly disjoint left and right supports: in each block,
    h fills a top-left rectangle and k the complementary bottom-right one
    (a 1x1 block goes to one side)."""
    h_blocks, k_blocks = [], []
    for n in blocks:
        g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rows = int(rng.integers(1, n)) if n >= 2 else int(rng.integers(0, 2))
        cols = int(rng.integers(1, n)) if n >= 2 else rows
        h, k = np.zeros((n, n), complex), np.zeros((n, n), complex)
        h[:rows, :cols] = g1[:rows, :cols]
        k[rows:, cols:] = g2[rows:, cols:]
        h_blocks.append(h)
        k_blocks.append(k)
    alg = Algebra(tuple(blocks))
    return LpVector(alg, p, h_blocks), LpVector(alg, p, k_blocks)


class LayerMix(Workload):
    """Each set-up adds one Yeadon round trip and one invariant inclusion for
    every layout of the generators' menus (``random_yeadon_triple`` and
    ``random_invariant_inclusion`` pick the layout as seed mod ``LAYOUTS``),
    so every run does the same mix of work on fresh draws; the inclusion's
    operation takes ``GAP_SAMPLES`` interpolation gaps at every exponent of
    ``GAP_EXPONENTS``.  Per exponent it adds a batch of ``CLARKSON_PAIRS``
    Clarkson pairs, half exactly orthogonal and half generic, over
    ``CLARKSON_BLOCKS``."""

    def setup(self, index: int) -> None:
        seeds = random.Random(f"layer-mix-{self.seed}-{index}")
        rng = np.random.default_rng([self.seed, index])
        for layout in range(LAYOUTS):
            triple_seed = LAYOUTS * seeds.randrange(2**27) + layout
            p = EXPONENTS[(layout + index) % len(EXPONENTS)]
            self.pool.append(
                Op(
                    label={"kind": "yeadon", "instance": triple_seed, "p": p},
                    root="op",
                    run=partial(_yeadon_roundtrip, triple_seed, p),
                    check=_check_yeadon,
                )
            )
            inclusion_seed = LAYOUTS * seeds.randrange(2**27) + layout
            A, phibar = random_invariant_inclusion(inclusion_seed)
            small = A.decomposition.algebra
            xs = [random_element(small, rng) for _ in range(GAP_SAMPLES)]
            scales = [x.frobenius() for x in xs for _ in GAP_EXPONENTS]
            self.pool.append(
                Op(
                    label={"kind": "interpolation", "instance": inclusion_seed},
                    root="op",
                    run=partial(_interpolation_gaps, A.parent, A.basis, phibar, xs),
                    check=partial(_check_gaps, scales),
                )
            )
        for p in EXPONENTS:
            pairs = []
            for j in range(CLARKSON_PAIRS):
                blocks = CLARKSON_BLOCKS[j % len(CLARKSON_BLOCKS)]
                if j % 2 == 0:
                    pairs.append((*_orthogonal_pair(blocks, p, rng), True))
                else:
                    alg = Algebra(blocks)
                    h = LpVector.from_element(random_element(alg, rng), p)
                    k = LpVector.from_element(random_element(alg, rng), p)
                    pairs.append((h, k, False))
            self.pool.append(
                Op(
                    label={"kind": "clarkson", "pairs": len(pairs), "p": p},
                    root="op",
                    run=partial(_clarkson_batch, pairs),
                    check=partial(_check_clarkson, pairs),
                )
            )


WORKLOADS = {
    "accept_ladder": AcceptLadder,
    "reject_mix": RejectMix,
    "layer_mix": LayerMix,
}
