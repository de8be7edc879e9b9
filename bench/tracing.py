"""Outside-in tracer for the nclp benchmark.

The tracer wraps public nclp functions from outside the package: each
function is replaced by a recording wrapper under every name an nclp module
binds it to (``nclp.isometry.construct_expectation`` and
``nclp.samples.construct_expectation`` are the same function, patched in both
places), so calls between modules are seen without editing the library.

Each call records a span (name, start, end, parent span, operation id, tag)
in memory.  Self time and call counts are derived from the spans afterwards:
a span's self time is its duration minus the durations of its direct
children.  The tracer is installed only around traced operations; untraced
operations run the original functions.

``TARGETS`` lists the layer boundaries.  ``nclp.modular``, ``nclp.cli`` and
``nclp.suites`` are on no workload's path and have none.  Only operations are
traced, so generators called during set-up show in ``setup_s``, not here.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
from time import perf_counter

# (defining module, function) for every layer boundary the trace records
TARGETS = (
    ("expectation", "construct_expectation"),
    ("expectation", "takesaki_invariant"),
    ("expectation", "restrict_state"),
    ("expectation", "interpolation_gap"),
    ("algebra", "homomorphism_kind"),
    ("lp", "lp_norm"),
    ("lp", "amplify_map"),
    ("lp", "polar_decompose"),
    ("lp", "clarkson_defect"),
    ("isometry", "isometry_defect"),
    ("isometry", "two_isometry_defect"),
    ("isometry", "extract_pi"),
    ("isometry", "extract_polar_data"),
    ("isometry", "verify_state_restriction"),
    ("isometry", "build_isometry"),
    ("isometry", "classify"),
    ("serialize", "lp_map_from_json"),
    ("serialize", "state_from_json"),
    ("serialize", "classification_report_to_json"),
    ("samples", "random_yeadon_triple"),
    ("yeadon", "build_yeadon_map"),
    ("yeadon", "yeadon_decompose"),
    ("yeadon", "jordan_dichotomy_report"),
)

def _nclp_modules() -> list:
    """The nclp package and every submodule, imported."""
    import nclp

    mods = [nclp]
    for info in pkgutil.iter_modules(nclp.__path__):
        mods.append(importlib.import_module(f"nclp.{info.name}"))
    return mods


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent, op id, tag)
        self._stack: list[int] = []
        self._op = -1
        self._patches = []  # (module, attribute, original, wrapper)
        modules = _nclp_modules()
        for mod_name, fn_name in TARGETS:
            original = getattr(importlib.import_module(f"nclp.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        # the classify span is tagged with the stage that rejected, so the
        # wasted work of stage 1 can be attributed
        tags_stage = name == "isometry.classify"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            tag = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if tags_stage:
                    tag = result.failing_stage
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self._op, tag)

        return wrapper

    def run(self, op_id: int, root: str, fn):
        """Call fn() with the wrappers installed, under a root span."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self._op = op_id
        root_wrapper = self._wrap(root, fn)
        try:
            return root_wrapper()
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op", "tag"],
            "names": self.names,
            "spans": self.spans,
        }


def layer_metrics(tracer: Tracer, *, untraced_ms, traced_ms) -> dict:
    """Per-layer metrics from the spans of the traced operations.

    ``<layer>.<function>.self_ms`` and ``.calls`` are means per traced
    operation; ``<layer>.share`` is the layer's self time over the summed
    operation time.
    """
    spans = tracer.spans
    self_s = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    n_ops = max(len(roots), 1)
    op_total = sum(spans[i][2] - spans[i][1] for i in roots) or 1.0

    by_name: dict[str, list[float]] = {}
    for span, own in zip(spans, self_s):
        by_name.setdefault(tracer.names[span[0]], []).append(own)

    metrics: dict = {}
    layer_self: dict[str, float] = {}

    def add(name: str, value: float, unit: str):
        metrics[name] = {"value": value, "unit": unit}

    for mod_name, fn_name in TARGETS:
        own = by_name.get(f"{mod_name}.{fn_name}", [])
        add(f"{mod_name}.{fn_name}.self_ms", 1e3 * sum(own) / n_ops, "ms")
        add(f"{mod_name}.{fn_name}.calls", len(own) / n_ops, "count")
        layer_self[mod_name] = layer_self.get(mod_name, 0.0) + sum(own)
    for layer, total in layer_self.items():
        add(f"{layer}.share", total / op_total, "ratio")

    # two_isometry_defect calls whose classify already failed at stage 1
    classify_id = tracer.names.index("isometry.classify")
    two_id = tracer.names.index("isometry.two_isometry_defect")
    two_calls = wasted = 0
    for span in spans:
        if span[0] != two_id:
            continue
        two_calls += 1
        parent = span[3]
        while parent >= 0 and spans[parent][0] != classify_id:
            parent = spans[parent][3]
        if parent >= 0 and spans[parent][5] == "isometry":
            wasted += 1
    add("isometry.two_isometry_defect.wasted_frac", wasted / two_calls if two_calls else 0.0, "ratio")
    add(
        "trace.overhead",
        statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0,
        "ratio",
    )
    return metrics
