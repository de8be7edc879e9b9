"""Reference clock for timings on a shared host whose speed drifts.

On the 2-core virtual machine this benchmark was written on, the same code
runs up to twice as slowly for seconds to minutes at a time, because other
tenants share the physical cores.  Wall-clock medians then depend on when a
run happened more than on the code.

The reference clock divides that drift out.  A fixed probe, made of the same
kind of work nclp does (singular values and products of complex blocks of
sizes 1 to 4, driven from Python), is timed next to every measured interval;
the interval is reported as ``wall time * REF_PROBE_MS / probe time``, its
duration on a host where the probe takes ``REF_PROBE_MS``.  On the machine
above, in its fast state, the probe takes about that long, so reference time
is close to wall time there.  Of the probes tried there, this one's slowdown
tracked that of all three workloads' operations most closely.  The probe
does not call nclp, so a change to nclp moves reference time exactly as it
moves wall time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_PROBE_MS = 1.2

_rng = np.random.default_rng(0)
_BLOCKS = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n)) for n in (1, 2, 3, 4)]


def probe_ms() -> float:
    """Wall time of the fixed probe, in milliseconds."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(16):
        for b in _BLOCKS:
            acc += float(np.sum(np.linalg.svd(b, compute_uv=False) ** 1.5))
            acc += float(np.linalg.norm(b @ b.conj().T))
    return 1e3 * (perf_counter() - t0)


def to_reference(wall: float, probe_before: float, probe_after: float) -> float:
    """A wall-clock interval in reference time, from the probes around it."""
    return wall * REF_PROBE_MS / (0.5 * (probe_before + probe_after))
