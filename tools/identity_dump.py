"""Dump the values a refactor must leave byte-identical, as one JSON file.

    python tools/identity_dump.py OUT.json [--src DIR]

The file holds every suite report at seeds 0, 1 and 7 (timing stripped),
and the ``classify`` verdict, failing stage, defects and warnings of
``random_isometry_data`` seeds 0-11 at p in {1, 1.5, 3, 7}: for the canonical
map as built, composed with the transpose, and with 1e-5 of seeded noise.
An accepted record also holds the sha256 of the bytes of the recovered
``pi.matrix``, ``w``, ``expectation.map.matrix`` and ``phibar`` density, so
a last-bit change in the recovered data shows even where the defects hide it.
The Yeadon records hold, for ``random_yeadon_triple`` seeds 0-7 at p in
{1, 1.5, 3, 4}, the sha256 of the J, w and B that ``yeadon_decompose``
recovers, the largest entry gap from that J to the generating one, and the
``jordan_dichotomy_report`` fields, once on the triple that
``build_yeadon_map`` assembled and once on a fresh triple of copies of its
J, w and B.  The polar records hold the sha256 of the four parts of
``polar_decompose`` (``w``, ``modulus``, ``s_left``, ``s_right``) on seeded
full-rank, rank-deficient and zero vectors of layouts (3,), (2, 3) and
(1, 2, 2), with the parts read in two orders.  The spectral records
hold the sha256 of ``power_element(+-1/p)``, ``complex_power``,
``log_pseudo``, ``modular_automorphism``, ``connes_cocycle`` and
``density_transport`` on seeded faithful states and on non-faithful ones, or
the error a call raised.  The decomposition records hold the factor blocks,
the multiplicities and the sha256 of ``embed.matrix`` of
``Subalgebra.decomposition`` for ``random_invariant_inclusion`` and
``random_noninvariant_inclusion`` seeds 0-7, for the pi images of
``random_isometry_data`` seeds 0-11, whose decomposition is pi itself, and
for plain-basis copies of the same images, which run the generic pass.
The L_p layer records hold the ``interpolation_gap`` values of
``random_invariant_inclusion`` seeds 0-7 at three seeded x and p in
{2, 3, 4, 8}, all on one subalgebra and state, and the sha256 of
``lp_inclusion`` and ``complement_projection`` of ``random_isometry_data``
seeds 0-11 at p in {1.5, 3}.
The norm records hold, on layouts (1, 1, 1, 1), (2, 1, 2), (1, 2),
(1, 2, 1, 2) and (3, 1, 3), whose repeated block sizes share one SVD call
and one sum of powers, in an order that differs from the blocks' where a
size repeats after another, at p in {1, 1.5, 3, 7, 49, 2000} and at scales
1, 1e-150 and 1e150, for an orthogonal and a generic pair h, k: the
``clarkson_defect`` fields, ``lp_norm`` of h and k plain and weighted, and
the weighted ``lp_norms`` of the rows h, k, h + k.
The frobenius records hold, on seeded layouts (1,), (3,) and (2, 1, 3) whose
blocks are Gaussian, zero, with one NaN or infinite entry, or with squares
that sum near the float max, each block read as a C-ordered array, its
transpose, its conjugate transpose and a strided view: the Frobenius norm
of the blocks, of the element they make and of its adjoint, and the stacked
norms of the rows b and 2 b.
The validate records hold, for ``random_isometry_data`` seeds 0-11, the
outcome of ``build_isometry`` at p = 3 and then p = 1.5 on one data object
(the sha256 of the map's matrix, or the error's type and message) with pi
as built, composed with the transpose, moved by seeded noise of relative
size 1e-12, 1e-9 and 1e-5, and with its first unit column zeroed, which is
not injective; and with pi as built but w halved, or the reference state
replaced by another faithful state.
The json records hold, for ``random_isometry_data`` seeds 0-11, the sha256
of the ``json.dumps`` text of ``isometry_data_to_json`` and of the reference
state's ``state_to_json``, and at p in {1, 1.5, 3, 7} of the canonical map's
``lp_map_to_json`` (and the sha256 of the matrix ``lp_map_from_json``
reads back from that text) and of ``classification_report_to_json`` for the canonical map,
which accepts and carries the recovered data, and for the map composed with
the transpose, which rejects.
The certificate records hold, for the pi images of ``random_isometry_data``
seeds 0-11 and the ``random_invariant_inclusion`` layouts of seeds 0-7 with
their expectation matrices M, the first message ``_certify_expectation``
raises (or null) on M and on each perturbation of ``bad_idempotents`` from
``tests/dense_oracles.py`` that breaks one of its checks, and the outcome of
``takesaki_invariant`` (its fields, or the error) on the expectation's state
and on a state of rank one in the first block, whose support cuts the
subalgebra.
The stage2 records hold, for the pi that ``extract_pi`` recovers from the
canonical map of ``random_isometry_data`` seeds 0-11 at p in {1, 3}, as
recovered, moved by seeded noise of relative size 1e-9 and composed with the
transpose: the Glimm defect ``unit_system_defect``, the Glimm defect of the
Jordan split (``jordan_defect`` of ``homomorphism_kind``) and the kind
``homomorphism_kind`` finds.
The stage5 records hold, for the pi images of ``random_isometry_data`` seeds
0-11, as built and moved by seeded noise of relative size 1e-9, each with the
generated state, and for the pi that ``classify`` recovers from the canonical
maps of the five benchmark plans at seeds 0-3 and p in {1, 1.5, 3, 4, 7}, with
the recovered state: which decider certified the expectation (``bounds`` when
the bounds of ``_closed_form`` hold, ``certificate`` when the whole
certificate ran, or the error ``construct_expectation`` raised), the unit
defect |W Pi - I|_F and the largest ratio of a bound to its tolerance.
The stage1 records hold, for every map of the classify records and for the
canonical maps of the five benchmark plans at seeds 0-3 and p in
{1, 1.5, 3, 4, 7}, the size m and the ranks (k_l, k_r) of the joint left and
right supports of the images in each target block, and the largest ratio
to ``SUPPORT_ALLOWANCE`` of the bound on what measuring the sampled defects
on those supports would change if every rank-deficient block compressed,
over the plans of ``isometry_defect`` and ``two_isometry_defect``; per
plan (n = 1, then 2), the kernel its image stacks take (``trace`` for Gram
traces, ``gram`` for Gram eigenvalues, ``svd``), and the largest relative gap between the image
norms the defects read, the Gram sums of the row and column witnesses
included, and the SVD's of the stacks over the rows of both plans.
The conditioning records hold, for the canonical data of the five
benchmark plans at seeds 0-1 with the preserved state moved to
rhobar^s / Tr rhobar^s, s in {1, 8, 12, 16} (``conditioning_ladder`` from
``tests/dense_oracles.py``), the smallest eigenvalue of the reference
state and the ``classify`` verdict and failing stage at p in
{1, 1.5, 3, 7}, or the error the set-up raised; a change of extractor shows
there as a moved verdict.
``nclp`` is imported from ``DIR`` (default: this checkout's ``src/``), so
two checkouts are compared by dumping each and running ``cmp``, or
``tools/identity_diff.py`` where last bits of floats may move.
BLAS runs on one thread, so that reductions happen in one fixed order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = SRC.parent / "tests"
SUITE_SEEDS = (0, 1, 7)
CLASSIFY_SEEDS = range(12)
EXPONENTS = (1.0, 1.5, 3.0, 7.0)
NOISE = 1e-5
YEADON_SEEDS = range(8)
YEADON_EXPONENTS = (1.0, 1.5, 3.0, 4.0)
SPECTRAL_LAYOUTS = ((2,), (3,), (2, 1), (1, 1, 2))
SPECTRAL_SEEDS = range(3)
SPECTRAL_EXPONENTS = (1.0, 1.5, 3.0, 4.0)
INCLUSION_SEEDS = range(8)
IMAGE_SEEDS = range(12)
GAP_SAMPLES = 3
GAP_EXPONENTS = (2.0, 3.0, 4.0, 8.0)
LP_LAYER_EXPONENTS = (1.5, 3.0)
NORM_LAYOUTS = ((1, 1, 1, 1), (2, 1, 2), (1, 2), (1, 2, 1, 2), (3, 1, 3))
NORM_EXPONENTS = (1.0, 1.5, 3.0, 7.0, 49.0, 2000.0)
NORM_SCALES = (1.0, 1e-150, 1e150)
FROBENIUS_LAYOUTS = ((1,), (3,), (2, 1, 3))
FROBENIUS_FILLS = ("gaussian", "zero", "nan", "inf", "near_max")
VALIDATE_SEEDS = range(12)
VALIDATE_EXPONENTS = (3.0, 1.5)
VALIDATE_NOISE = (1e-12, 1e-9, 1e-5)
STAGE2_SEEDS = range(12)
STAGE2_EXPONENTS = (1.0, 3.0)
STAGE2_NOISE = 1e-9
STAGE5_NOISE = 1e-9
STAGE5_SEEDS = range(4)
STAGE5_EXPONENTS = (1.0, 1.5, 3.0, 4.0, 7.0)
# the instance plans of the benchmark workloads: (source blocks, target plan)
STAGE5_PLANS = {
    "P2": ((2,), [([(0, 1)], 2)]),
    "P3": ((3,), [([(0, 1)], 2)]),
    "P4": ((4,), [([(0, 1)], 2)]),
    "M1": ((2, 1), [([(0, 2), (1, 1)], 1), ([(0, 1)], 1)]),
    "M2": ((3,), [([(0, 2)], 0)]),
}
CONDITIONING_EXPONENTS = (1.0, 1.5, 3.0, 7.0)
POLAR_LAYOUTS = ((3,), (2, 3), (1, 2, 2))
POLAR_SEEDS = range(2)
POLAR_ORDERS = (("w", "modulus", "s_left", "s_right"), ("s_right", "s_left", "modulus", "w"))


def _digest(array) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _recovered_digests(data) -> dict:
    return {
        "pi": _digest(data.pi.matrix),
        "w": _digest(data.w.vec()),
        "expectation": _digest(data.expectation.map.matrix),
        "phibar": _digest(data.phibar.density.vec()),
    }


def _classify_variants():
    """(seed, p, name, map, state) for the canonical map of each
    ``random_isometry_data`` seed at each exponent, composed with the
    transpose, and with seeded noise."""
    import numpy as np

    from nclp.algebra import transpose_permutation
    from nclp.isometry import build_isometry
    from nclp.lp import LpMap
    from nclp.samples import random_isometry_data

    for seed in CLASSIFY_SEEDS:
        data = random_isometry_data(seed)
        flip = transpose_permutation(data.source)
        for p in EXPONENTS:
            T = build_isometry(data, p)
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(T.matrix.shape) + 1j * rng.standard_normal(T.matrix.shape)
            variants = {
                "canonical": T.matrix,
                "transposed": T.matrix @ flip,
                "noisy": T.matrix + NOISE * noise,
            }
            for name, matrix in variants.items():
                yield seed, p, name, LpMap(T.source, T.target, p, matrix), data.reference_state


def _classify_records():
    from nclp.isometry import classify

    for seed, p, name, F, state in _classify_variants():
        report = classify(F, state, p)
        record = {
            "seed": seed,
            "p": p,
            "map": name,
            "verdict": report.verdict,
            "failing_stage": report.failing_stage,
            "defects": report.defects,
            "warnings": report.warnings,
        }
        if report.accepted:
            record["recovered"] = _recovered_digests(report.data)
        yield record


def _stage1_record(F) -> dict:
    """(m, k_l, k_r) of each target block's image supports; the largest
    ratio to the allowance of the bound on what compressing every
    rank-deficient block would change, over the plans of both defects; per
    plan, the kernel its image stacks take (Gram traces, eigenvalues or the
    SVD), as the route table `nclp.lp._stack_route` names it; and the
    largest relative gap
    between the image norms the defects read (`_image_norms`, the Gram sums
    of the row and column witnesses included) and the SVD's of the stacks,
    over the rows of both plans."""
    import numpy as np

    from nclp.isometry import SUPPORT_ALLOWANCE, _image_norms, _image_stacks, _image_supports, _plan
    from nclp.lp import _grouped_norms, _stack_groups, _stack_route

    supports = _image_supports(F)
    total = sum(s.tail * s.size ** (1.0 / F.p) for s in supports if s.compresses)
    worst, kernels, gap = 0.0, [], 0.0
    for n in (1, 2):
        plan = _plan(F.source, n, 60, 0)
        norms = plan.norms(F.p)
        keep = ~(norms < 1e-14)
        ratio = float(np.max(plan.l1[keep] / norms[keep], initial=0.0))
        worst = max(worst, ratio * total / SUPPORT_ALLOWANCE)
        stacks = _image_stacks(F, plan, norms)
        # one route for every stack, else some fell back to the SVD
        routes = {_stack_route(stack, F.p, images=True)[0] for stack in stacks}
        kernels.append(routes.pop() if len(routes) == 1 else "svd")
        got = _image_norms(F, plan, norms)
        want = np.asarray(_grouped_norms(_stack_groups(stacks), F.p))
        read = want > 0.0
        gap = max(gap, float(np.max(np.abs(got[read] - want[read]) / want[read], initial=0.0)))
    return {
        "blocks": [[s.size, s.left, s.right] for s in supports],
        "bound_ratio": worst,
        "kernel": kernels,
        "kernel_gap": gap,
    }


def _stage1_records():
    from nclp.isometry import build_isometry
    from nclp.samples import random_isometry_data

    for seed, p, name, F, _ in _classify_variants():
        yield {"seed": seed, "p": p, "map": name, **_stage1_record(F)}
    for plan, (source, layout) in STAGE5_PLANS.items():
        for seed in STAGE5_SEEDS:
            data = random_isometry_data(seed, source, plan=layout)
            for p in STAGE5_EXPONENTS:
                record = _stage1_record(build_isometry(data, p))
                yield {"plan": plan, "seed": seed, "p": p, **record}


def _text_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _json_records():
    from nclp import serialize as ser
    from nclp.algebra import transpose_permutation
    from nclp.isometry import build_isometry, classify
    from nclp.lp import LpMap
    from nclp.samples import random_isometry_data

    for seed in CLASSIFY_SEEDS:
        data = random_isometry_data(seed)
        flip = transpose_permutation(data.source)
        record = {
            "seed": seed,
            "isometry_data": _text_digest(ser.isometry_data_to_json(data)),
            "reference_state": _text_digest(ser.state_to_json(data.reference_state)),
        }
        for p in EXPONENTS:
            T = build_isometry(data, p)
            transposed = LpMap(T.source, T.target, p, T.matrix @ flip)
            accept = classify(T, data.reference_state, p)
            reject = classify(transposed, data.reference_state, p)
            lp_map = ser.lp_map_to_json(T)
            back = ser.lp_map_from_json(json.loads(json.dumps(lp_map)))
            record[f"lp_map({p})"] = _text_digest(lp_map)
            record[f"lp_map_read({p})"] = _digest(back.matrix)
            record[f"accept({p})"] = _text_digest(ser.classification_report_to_json(accept))
            record[f"reject({p})"] = _text_digest(ser.classification_report_to_json(reject))
        yield record


def _outcome(fn):
    """The sha256 of the value fn returns, or its error's type and message."""
    try:
        value = fn()
    except Exception as exc:  # the outcome recorded is the exception itself
        return f"{type(exc).__name__}: {exc}"
    return _digest(value.vec())


def _yeadon_records():
    import numpy as np

    from nclp.algebra import AlgebraElement, AlgebraMap
    from nclp.lp import LpVector
    from nclp.samples import random_yeadon_triple
    from nclp.yeadon import (
        YeadonTriple,
        build_yeadon_map,
        jordan_dichotomy_report,
        yeadon_decompose,
    )

    for seed in YEADON_SEEDS:
        for p in YEADON_EXPONENTS:
            triple, weights = random_yeadon_triple(seed, p)
            T = build_yeadon_map(triple, p, weights)
            back = yeadon_decompose(T, p, weights)
            report = jordan_dichotomy_report(triple, p, weights)
            J, w, B = triple.J, triple.w, triple.B
            fresh = YeadonTriple(
                J=AlgebraMap(J.source, J.target, J.matrix.copy()),
                w=AlgebraElement(w.algebra, [b.copy() for b in w.data]),
                B=LpVector(B.algebra, B.p, [b.copy() for b in B.data]),
            )
            yield {
                "seed": seed,
                "p": p,
                "J": _digest(back.J.matrix),
                "j_gap": float(np.max(np.abs(back.J.matrix - J.matrix))),
                "w": _digest(back.w.vec()),
                "B": _digest(back.B.vec()),
                "dichotomy": vars(report),
                "fresh_dichotomy": vars(jordan_dichotomy_report(fresh, p, weights)),
            }


def _polar_vectors(algebra, rng):
    """Blocks of a full-rank vector, of one of rank one in each block, of
    one with a zero first block, and of the zero vector."""
    import numpy as np

    shapes = [(n, n) for n in algebra.blocks]
    full = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    return {
        "full_rank": full,
        "rank_one": [np.outer(g[:, 0], g[0].conj()) for g in full],
        "zero_block": [0 * g if b == 0 else g for b, g in enumerate(full)],
        "zero": [0 * g for g in full],
    }


def _polar_records():
    from nclp.algebra import Algebra
    from nclp.lp import LpVector, polar_decompose
    from nclp.samples import rng_for

    for blocks in POLAR_LAYOUTS:
        algebra = Algebra(blocks)
        for seed in POLAR_SEEDS:
            vectors = _polar_vectors(algebra, rng_for(seed))
            for name, data in vectors.items():
                for order in POLAR_ORDERS:
                    pol = polar_decompose(LpVector(algebra, 3.0, data))
                    yield {
                        "blocks": list(blocks),
                        "seed": seed,
                        "vector": name,
                        "order": list(order),
                        "parts": {part: _digest(getattr(pol, part).vec()) for part in order},
                    }


def _nonfaithful_state(algebra, rng):
    """A state whose first block has rank one, so its kernel is nonzero."""
    import numpy as np

    from nclp.algebra import State
    from nclp.samples import random_element

    blocks = [b @ b.conj().T for b in random_element(algebra, rng).data]
    v = blocks[0][:, 0]
    blocks[0] = np.outer(v, v.conj())
    return State(algebra, blocks, normalize=True)


def _spectral_records():
    from nclp.algebra import Algebra, random_faithful_state
    from nclp.modular import connes_cocycle, density_transport, modular_automorphism
    from nclp.samples import random_element, rng_for

    for blocks in SPECTRAL_LAYOUTS:
        algebra = Algebra(blocks)
        for seed in SPECTRAL_SEEDS:
            rng = rng_for(seed)
            faithful = random_faithful_state(algebra, seed)
            other = random_faithful_state(algebra, seed + 100)
            singular = _nonfaithful_state(algebra, rng)
            x = random_element(algebra, rng)
            z = complex(rng.standard_normal(), rng.standard_normal())
            pairs = {"faithful": (faithful, other), "nonfaithful": (singular, faithful)}
            for name, (phi, psi) in pairs.items():
                record = {"blocks": list(blocks), "seed": seed, "state": name}
                for p in SPECTRAL_EXPONENTS:
                    record[f"power(1/{p})"] = _outcome(lambda: phi.power_element(1.0 / p))
                    record[f"power(-1/{p})"] = _outcome(lambda: phi.power_element(-1.0 / p))
                    record[f"transport({p})"] = _outcome(lambda: density_transport(psi, phi, p))
                record["complex_power"] = _outcome(lambda: phi.complex_power(z))
                record["log_pseudo"] = _outcome(phi.log_pseudo)
                record["modular"] = _outcome(lambda: modular_automorphism(phi, 0.7, x))
                record["cocycle(phi, psi)"] = _outcome(lambda: connes_cocycle(phi, psi, z))
                record["cocycle(psi, phi)"] = _outcome(lambda: connes_cocycle(psi, phi, z))
                record["cocycle(phi, phi)"] = _outcome(lambda: connes_cocycle(phi, phi, -1j / 3))
                yield record


def _decomposition_records():
    from nclp.expectation import Subalgebra
    from nclp.samples import (
        random_invariant_inclusion,
        random_isometry_data,
        random_noninvariant_inclusion,
    )

    subalgebras = [
        (kind, seed, make(seed)[0])
        for kind, make in (
            ("invariant", random_invariant_inclusion),
            ("noninvariant", random_noninvariant_inclusion),
        )
        for seed in INCLUSION_SEEDS
    ]
    images = [Subalgebra.from_map_image(random_isometry_data(seed).pi) for seed in IMAGE_SEEDS]
    subalgebras += [("pi_image", seed, A) for seed, A in zip(IMAGE_SEEDS, images)]
    subalgebras += [
        ("pi_image_generic", seed, Subalgebra(A.parent, A.basis, validate=False))
        for seed, A in zip(IMAGE_SEEDS, images)
    ]
    for kind, seed, A in subalgebras:
        dec = A.decomposition
        yield {
            "subalgebra": kind,
            "seed": seed,
            "blocks": list(dec.algebra.blocks),
            "multiplicities": list(dec.multiplicities),
            "embed": _digest(dec.embed.matrix),
        }


def _lp_layer_records():
    from nclp.expectation import complement_projection, interpolation_gap, lp_inclusion
    from nclp.samples import (
        random_element,
        random_invariant_inclusion,
        random_isometry_data,
        rng_for,
    )

    for seed in INCLUSION_SEEDS:
        A, phibar = random_invariant_inclusion(seed)
        rng = rng_for(seed)
        xs = [random_element(A.decomposition.algebra, rng) for _ in range(GAP_SAMPLES)]
        yield {
            "inclusion": seed,
            "gaps": {
                str(p): [interpolation_gap(A, phibar, x, p) for x in xs] for p in GAP_EXPONENTS
            },
        }
    for seed in IMAGE_SEEDS:
        data = random_isometry_data(seed)
        E = data.expectation
        record = {"pi_image": seed}
        for p in LP_LAYER_EXPONENTS:
            record[f"lp_inclusion({p})"] = _digest(lp_inclusion(E.subalgebra, E, p).matrix)
            record[f"complement_projection({p})"] = _digest(complement_projection(data, p).matrix)
        yield record


def _orthogonal_blocks(blocks, rng):
    """Blocks of h and k with disjoint left and right supports: h fills a
    top-left corner of each block and k the complementary bottom-right one;
    the 1 x 1 blocks alternate between h and k."""
    import numpy as np

    h_blocks, k_blocks = [], []
    for b, n in enumerate(blocks):
        g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        cut = n // 2 if n > 1 else b % 2
        h, k = np.zeros((n, n), complex), np.zeros((n, n), complex)
        h[:cut, :cut] = g[0, :cut, :cut]
        k[cut:, cut:] = g[1, cut:, cut:]
        h_blocks.append(h)
        k_blocks.append(k)
    return h_blocks, k_blocks


def _norm_records():
    import numpy as np

    from nclp.algebra import Algebra
    from nclp.lp import LpVector, clarkson_defect, lp_norm, lp_norms
    from nclp.samples import random_element, rng_for

    for layout, blocks in enumerate(NORM_LAYOUTS):
        algebra = Algebra(blocks)
        rng = rng_for(layout)
        weights = tuple(rng.uniform(0.5, 2.0, len(blocks)).tolist())
        pairs = {
            "orthogonal": _orthogonal_blocks(blocks, rng),
            "generic": tuple(random_element(algebra, rng).data for _ in range(2)),
        }
        for p in NORM_EXPONENTS:
            for name, (h_blocks, k_blocks) in pairs.items():
                for scale in NORM_SCALES:
                    h = LpVector(algebra, p, [scale * b for b in h_blocks])
                    k = LpVector(algebra, p, [scale * b for b in k_blocks])
                    rows = np.stack([h.vec(), k.vec(), (h + k).vec()])
                    yield {
                        "blocks": list(blocks),
                        "p": p,
                        "pair": name,
                        "scale": scale,
                        "clarkson": vars(clarkson_defect(h, k)),
                        "lp_norm": [lp_norm(h), lp_norm(k)],
                        "weighted": [lp_norm(h, weights), lp_norm(k, weights)],
                        "lp_norms": lp_norms(algebra, p, rows, weights).tolist(),
                    }


def _frobenius_blocks(blocks, fill, rng):
    import numpy as np

    out = []
    for b, n in enumerate(blocks):
        block = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if fill == "near_max":
            block *= 2.0**511 / n
        elif fill == "zero" and b == 0:
            block[:] = 0.0
        elif fill in ("nan", "inf") and b == 0:
            block[0, n - 1] = np.nan if fill == "nan" else -np.inf
        out.append(block)
    return out


def _frobenius_records():
    import numpy as np

    from nclp.algebra import Algebra, AlgebraElement, _frobenius, _stacked_frobenius
    from nclp.samples import rng_for

    views = {
        "c": lambda b: b,
        "transposed": lambda b: b.T,
        "adjoint": lambda b: b.conj().T,
        "strided": lambda b: np.repeat(b, 2, axis=1)[:, ::2],
    }
    for layout, blocks in enumerate(FROBENIUS_LAYOUTS):
        rng = rng_for(layout)
        for fill in FROBENIUS_FILLS:
            data = _frobenius_blocks(blocks, fill, rng)
            for name, view in views.items():
                read = [view(b) for b in data]
                x = AlgebraElement(Algebra(blocks), read)
                with np.errstate(over="ignore", invalid="ignore"):
                    yield {
                        "blocks": list(blocks),
                        "fill": fill,
                        "view": name,
                        "frobenius": _frobenius(read),
                        "element": x.frobenius(),
                        "adjoint": x.adjoint().frobenius(),
                        "stacked": _stacked_frobenius([np.array([b, 2 * b]) for b in read]).tolist(),
                    }


def _build_outcome(data, p):
    """The sha256 of the matrix build_isometry returns, or its error's type
    and message."""
    from nclp.isometry import build_isometry

    try:
        T = build_isometry(data, p)
    except Exception as exc:  # the outcome recorded is the exception itself
        return f"{type(exc).__name__}: {exc}"
    return _digest(T.matrix)


def _validate_records():
    from dataclasses import replace

    import numpy as np

    from nclp.algebra import AlgebraMap, random_faithful_state, transpose_permutation
    from nclp.samples import random_isometry_data

    for seed in VALIDATE_SEEDS:
        data = random_isometry_data(seed)
        pi, rng = data.pi, np.random.default_rng(seed)
        noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
        noise *= np.linalg.norm(pi.matrix) / np.linalg.norm(noise)
        zeroed = pi.matrix.copy()
        zeroed[:, 0] = 0.0
        matrices = {
            "as_built": pi.matrix,
            "transposed": pi.matrix @ transpose_permutation(data.source),
            **{f"noise({eps})": pi.matrix + eps * noise for eps in VALIDATE_NOISE},
            "zeroed_unit": zeroed,
        }
        variants = {
            name: replace(data, pi=AlgebraMap(data.source, data.target, matrix))
            for name, matrix in matrices.items()
        }
        variants["bad_w"] = replace(data, w=data.w * 0.5)
        other = random_faithful_state(data.source, seed + 100)
        variants["bad_restriction"] = replace(data, reference_state=other)
        for name, variant in variants.items():
            yield {
                "seed": seed,
                "variant": name,
                "outcomes": [_build_outcome(variant, p) for p in VALIDATE_EXPONENTS],
            }


def _stage2_records():
    import numpy as np

    from nclp.algebra import (
        AlgebraMap,
        homomorphism_kind,
        transpose_permutation,
        unit_system_defect,
    )
    from nclp.isometry import build_isometry, extract_pi
    from nclp.samples import random_isometry_data

    for seed in STAGE2_SEEDS:
        data = random_isometry_data(seed)
        for p in STAGE2_EXPONENTS:
            pi = extract_pi(build_isometry(data, p), data.reference_state)
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
            noise *= np.linalg.norm(pi.matrix) / np.linalg.norm(noise)
            matrices = {
                "extracted": pi.matrix,
                f"noise({STAGE2_NOISE})": pi.matrix + STAGE2_NOISE * noise,
                "transposed": pi.matrix @ transpose_permutation(data.source),
            }
            for name, matrix in matrices.items():
                F = AlgebraMap(pi.source, pi.target, matrix)
                report = homomorphism_kind(F)
                yield {
                    "seed": seed,
                    "p": p,
                    "pi": name,
                    "glimm_defect": unit_system_defect(F),
                    "jordan_defect": report.jordan_defect,
                    "kind": report.kind,
                }


def _certificate_records():
    import numpy as np

    from nclp.errors import NclpError
    from nclp.expectation import _certify_expectation, construct_expectation, takesaki_invariant
    from nclp.samples import random_invariant_inclusion, random_isometry_data, rng_for

    sys.path.insert(0, str(TESTS))
    from dense_oracles import bad_idempotents

    def first_failure(M, A, state):
        try:
            _certify_expectation(M, A, state)
        except NclpError as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def takesaki(A, state):
        try:
            return vars(takesaki_invariant(A, state))
        except NclpError as exc:
            return f"{type(exc).__name__}: {exc}"

    cases = []
    for seed in IMAGE_SEEDS:
        E = random_isometry_data(seed).expectation
        cases.append(("pi_image", seed, E.subalgebra, E.map.matrix, E.state))
    for seed in INCLUSION_SEEDS:
        A, phibar = random_invariant_inclusion(seed)
        cases.append(("inclusion", seed, A, construct_expectation(A, phibar).map.matrix, phibar))
    for kind, seed, A, M, state in cases:
        variants = {"exact": M}
        if A.dim > 1:
            bad = bad_idempotents(M, A, state, np.random.default_rng(seed))
            variants.update({name: X for name, (X, _) in bad.items()})
        yield {
            "subalgebra": kind,
            "seed": seed,
            "certificate": {name: first_failure(X, A, state) for name, X in variants.items()},
            "takesaki": takesaki(A, state),
            "takesaki_cut": takesaki(A, _nonfaithful_state(A.parent, rng_for(seed))),
        }


def _stage5_record(pi, state) -> dict:
    from nclp.errors import NclpError
    from nclp.expectation import Subalgebra, _closed_form, construct_expectation

    try:
        image = Subalgebra.from_map_image(pi)
        _, epsilon, ratio = _closed_form(image, state)
        construct_expectation(image, state)
    except NclpError as exc:
        return {"decider": f"{type(exc).__name__}: {exc}"}
    decider = "bounds" if ratio <= 1.0 else "certificate"
    return {"decider": decider, "unit_defect": epsilon, "ratio": ratio}


def _stage5_records():
    import numpy as np

    from nclp.algebra import AlgebraMap
    from nclp.isometry import build_isometry, classify
    from nclp.samples import random_isometry_data

    for seed in IMAGE_SEEDS:
        data = random_isometry_data(seed)
        pi, rng = data.pi, np.random.default_rng(seed)
        noise = rng.standard_normal(pi.matrix.shape) + 1j * rng.standard_normal(pi.matrix.shape)
        noise *= np.linalg.norm(pi.matrix) / np.linalg.norm(noise)
        moved = AlgebraMap(pi.source, pi.target, pi.matrix + STAGE5_NOISE * noise)
        for name, F in (("as_built", pi), (f"noise({STAGE5_NOISE})", moved)):
            yield {"seed": seed, "pi": name, **_stage5_record(F, data.phibar)}
    for plan, (source, layout) in STAGE5_PLANS.items():
        for seed in STAGE5_SEEDS:
            data = random_isometry_data(seed, source, plan=layout)
            for p in STAGE5_EXPONENTS:
                report = classify(build_isometry(data, p), data.reference_state, p)
                record = {"plan": plan, "seed": seed, "p": p, "verdict": report.verdict}
                if report.accepted:
                    record.update(_stage5_record(report.data.pi, report.data.phibar))
                yield record


def _conditioning_records():
    from nclp.isometry import build_isometry, classify

    sys.path.insert(0, str(TESTS))
    from dense_oracles import conditioning_ladder

    for plan, seed, s, data in conditioning_ladder(STAGE5_PLANS):
        record = {"plan": plan, "seed": seed, "s": s}
        if isinstance(data, Exception):
            yield {**record, "setup": f"{type(data).__name__}: {data}"}
            continue
        phi = data.reference_state
        for p in CONDITIONING_EXPONENTS:
            report = classify(build_isometry(data, p), phi, p)
            yield {
                **record,
                "p": p,
                "min_eig": phi.min_eig(),
                "verdict": report.verdict,
                "failing_stage": report.failing_stage,
            }


def _suite_records():
    from nclp.suites import SUITES, SuiteConfig, run_suite

    for name in sorted(SUITES):
        for seed in SUITE_SEEDS:
            report = run_suite(SuiteConfig(name, seed=seed))
            yield {"suite": name, "seed": seed, "report": report.dumps(include_timing=False)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--src", type=Path, default=SRC, help="directory that holds nclp")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import nclp

    if Path(nclp.__file__).resolve().parent != src / "nclp":
        parser.error(f"nclp was imported from {nclp.__file__}, not from {src}")
    dump = {
        "suites": list(_suite_records()),
        "classify": list(_classify_records()),
        "yeadon": list(_yeadon_records()),
        "spectral": list(_spectral_records()),
        "decomposition": list(_decomposition_records()),
        "lp_layer": list(_lp_layer_records()),
        "norms": list(_norm_records()),
        "frobenius": list(_frobenius_records()),
        "validate": list(_validate_records()),
        "json": list(_json_records()),
        "certificate": list(_certificate_records()),
        "stage2": list(_stage2_records()),
        "polar": list(_polar_records()),
        "stage5": list(_stage5_records()),
        "stage1": list(_stage1_records()),
        "conditioning": list(_conditioning_records()),
    }
    args.out.write_text(json.dumps(dump, indent=1) + "\n")
    print(", ".join(f"{len(records)} {name} records" for name, records in dump.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
