"""Smoke test of the benchmark workloads: one set-up at seed 0, then one
operation of each kind through its own output check, so a change that turns
benchmark operations into failures shows up in the test suite.  On
``layer_mix`` that is one operation per kind and layout: every layout of
the Yeadon and inclusion generators, and every Clarkson exponent, so that a
slip that breaks only some factor shapes fails here.  Every layer boundary
the tracer wraps must still exist, so that removing a function from the
package cannot break a traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
TRACING_PY = WORKLOADS_PY.parent / "tracing.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# the label field that tells an operation's kind apart, per workload
KIND_FIELD = {"accept_ladder": "plan", "reject_mix": "expect", "layer_mix": "kind"}


def _variant(workloads, name: str, label: dict):
    """The kind of an operation, and on ``layer_mix`` its layout (a Yeadon or
    inclusion seed picks it as seed mod ``LAYOUTS``) or Clarkson exponent."""
    kind = label[KIND_FIELD[name]]
    if name != "layer_mix":
        return kind
    if kind == "clarkson":
        return kind, label["p"]
    return kind, label["instance"] % workloads.LAYOUTS


@pytest.mark.parametrize("name", sorted(KIND_FIELD))
def test_one_operation_of_each_kind_passes_its_check(name):
    workloads = _workloads()
    assert set(workloads.WORKLOADS) == set(KIND_FIELD)
    workload = workloads.WORKLOADS[name](0)
    workload.setup(0)
    firsts = {}
    for op in workload.pool:
        firsts.setdefault(_variant(workloads, name, op.label), op)
    assert len(firsts) > 1
    if name == "layer_mix":
        kinds = [key[0] for key in firsts]
        layouts = workloads.LAYOUTS
        assert (kinds.count("yeadon"), kinds.count("interpolation")) == (layouts, layouts)
        assert kinds.count("clarkson") == len(workloads.EXPONENTS)
    for variant, op in firsts.items():
        result = op.check(op.run())
        assert result["ok"], (variant, op.label, result)


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"nclp.{module}"), name)), (module, name)
