"""Benchmark of the nclp classification pipeline and the layers beside it.

Run from the root of a checkout:

    python3 bench/run.py --workload accept_ladder --seed 1 --seconds 15 --trace 0

Workloads are ``accept_ladder``, ``reject_mix`` and ``layer_mix`` (see
``workloads.py``).  The run imports ``nclp`` from the checkout's ``src/``,
pins BLAS to one thread, sets the workload up ``SETUPS`` times, then runs
whole cycles of operations until ``--seconds`` have passed and at least
``MIN_OPS`` operations have run.  Every output is checked; an exception or a
wrong output counts as a failed operation.

With ``--trace 0`` the end-to-end metrics are reported, timed in reference
time (``refclock.py``); the wall-clock times are kept in the run record.
With ``--trace 1``
each operation runs twice, once plain and once under the outside-in tracer
of ``tracing.py``, and the per-layer metrics are derived from the spans.  The
last line of standard output is the JSON result; the run record and the
spans are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# single-threaded baseline: BLAS reads these when numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from refclock import REF_PROBE_MS, probe_ms, to_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100  # so the p90 has at least ten samples beyond it


def _import_nclp():
    """Import nclp from the checkout's source tree, never from elsewhere."""
    if not (SRC / "nclp" / "__init__.py").is_file():
        sys.exit(f"bench: no nclp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nclp

    if Path(nclp.__file__).resolve().parent != SRC / "nclp":
        sys.exit(f"bench: nclp imported from {nclp.__file__}, not from {SRC}")


def _metadata(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ref_probe_ms": REF_PROBE_MS,
    }


def _execute(op, tracer=None, op_id=0):
    """Run one operation and check its output; returns (latency s, record)."""
    t0 = perf_counter()
    try:
        result = op.run() if tracer is None else tracer.run(op_id, op.root, op.run)
    except Exception as exc:  # any exception is a failed operation
        return perf_counter() - t0, {"ok": False, "why": f"{type(exc).__name__}: {exc}"}
    latency = perf_counter() - t0
    try:
        return latency, op.check(result)
    except Exception as exc:
        return latency, {"ok": False, "why": f"check raised {type(exc).__name__}: {exc}"}


def _timed_phase(workload, seconds: float, tracer=None):
    """Run whole cycles of operations until the time is up, so every input
    of the run carries the same weight.  Untraced, at least MIN_OPS
    operations run, each after a reference probe.  With a tracer, each
    operation runs plain and traced, and call counts per operation are exact
    for the run's inputs."""
    records = []
    start = perf_counter()
    for k in itertools.count():
        for op in workload.cycle(k):
            if tracer is None:
                probe = probe_ms()
                latency, rec = _execute(op)
                records.append({"input": op.label, **rec, "ms": 1e3 * latency, "probe_ms": probe})
                continue
            # alternate which of the pair runs first, so neither gains from a warm cache
            plain_first = len(records) % 4 == 0
            for traced in (not plain_first, plain_first):
                latency, rec = _execute(op, tracer if traced else None, len(records) // 2)
                records.append({"input": op.label, **rec, "ms": 1e3 * latency, "traced": traced})
        elapsed = perf_counter() - start
        if elapsed >= seconds and (tracer is not None or len(records) >= MIN_OPS):
            return records, elapsed


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted average of all order statistics.

    Operation times mix distinct costs (plans, operation kinds), and a
    quantile often falls where one cost group ends and the next begins; a
    single order statistic there jumps between groups from run to run, while
    the weighted average moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # Beta CDF on a grid, by cumulating the density at the inner points
    t = np.linspace(0.0, 1.0, 20001)
    inner = t[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    mass = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(mass), [mass.sum()])) / mass.sum()
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def _end_to_end(records, setup_s) -> dict:
    """End-to-end metrics in reference time (see refclock.py): throughput
    over the time spent in operations, latency quantiles over operations."""
    probes = [rec["probe_ms"] for rec in records] + [probe_ms()]
    for rec, before, after in zip(records, probes, probes[1:]):
        rec["ref_ms"] = to_reference(rec["ms"], before, after)
    ok_ms = [rec["ref_ms"] for rec in records if rec["ok"]]
    return {
        "ops_per_s": {"value": 1e3 * len(ok_ms) / sum(ok_ms), "unit": "1/s"},
        "op_p50_ms": {"value": hd_quantile(ok_ms, 0.5), "unit": "ms"},
        "op_p90_ms": {"value": hd_quantile(ok_ms, 0.9), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_nclp()
    import workloads
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    setup_s = []  # in reference time
    before = probe_ms()
    for index in range(workloads.SETUPS):
        t0 = perf_counter()
        workload.setup(index)
        wall = perf_counter() - t0
        after = probe_ms()
        setup_s.append(to_reference(wall, before, after))
        before = after

    if args.trace:
        tracer = Tracer()
        records, elapsed = _timed_phase(workload, args.seconds, tracer)
        metrics = layer_metrics(
            tracer,
            untraced_ms=[rec["ms"] for rec in records if not rec["traced"]],
            traced_ms=[rec["ms"] for rec in records if rec["traced"]],
        )
    else:
        tracer = None
        records, elapsed = _timed_phase(workload, args.seconds)
        metrics = _end_to_end(records, setup_s)
    failed = sum(not rec["ok"] for rec in records)

    meta = _metadata(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "meta": meta,
        "elapsed_s": elapsed,
        "setup_s": setup_s,
        "ops": records,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))
    print("meta " + json.dumps(meta))
    print(f"ops {len(records)} over {elapsed:.2f} s, {failed} failed; record {OUT / stem}.json")
    for rec in records:
        if not rec["ok"]:
            print("failed " + json.dumps(rec))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
