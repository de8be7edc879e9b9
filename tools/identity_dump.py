"""Dump the values a refactor must leave byte-identical, as one JSON file.

    python tools/identity_dump.py OUT.json [--src DIR]

The file holds every suite report at seeds 0, 1 and 7 (timing stripped),
and the ``classify`` verdict, failing stage, defects and warnings of
``random_isometry_data`` seeds 0-11 at p in {1, 1.5, 3, 7}: for the canonical
map as built, composed with the transpose, and with 1e-5 of seeded noise.
An accepted record also holds the sha256 of the bytes of the recovered
``pi.matrix``, ``w``, ``expectation.map.matrix`` and ``phibar`` density, so
a last-bit change in the recovered data shows even where the defects hide it.
``nclp`` is imported from ``DIR`` (default: this checkout's ``src/``), so
two checkouts are compared by dumping each and running ``cmp`` or ``diff``.
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
SUITE_SEEDS = (0, 1, 7)
CLASSIFY_SEEDS = range(12)
EXPONENTS = (1.0, 1.5, 3.0, 7.0)
NOISE = 1e-5


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


def _classify_records():
    import numpy as np

    from nclp.algebra import transpose_permutation
    from nclp.isometry import build_isometry, classify
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
                report = classify(LpMap(T.source, T.target, p, matrix), data.reference_state, p)
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
    dump = {"suites": list(_suite_records()), "classify": list(_classify_records())}
    args.out.write_text(json.dumps(dump, indent=1) + "\n")
    print(f"{len(dump['suites'])} suite reports, {len(dump['classify'])} classify records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
