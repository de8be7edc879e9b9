"""JSON encoding of every artifact type.

Complex scalars are [re, im] pairs.  An element is {"blocks": [...]} with each
block a row-major matrix of pairs; vectorization order in map matrices is the
same: blocks in order, rows before columns.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from typing import Any

import numpy as np

from .algebra import Algebra, AlgebraElement, AlgebraMap, State, _require_finite
from .errors import DataInvalid, ExponentUnsupported, NonFinite, NonPositiveDim, ShapeMismatch
from .expectation import ConditionalExpectation, Subalgebra
from .isometry import ClassificationReport, IsometryData
from .lp import LpMap, LpVector


def _key(obj: dict, key: str):
    """obj[key], or ShapeMismatch naming the key when obj is no JSON object
    holding it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ShapeMismatch(f"a JSON object with the key {key!r} is required")
    return obj[key]


def _exponent(value) -> float:
    """The exponent p read from JSON: a number, never a string or a boolean."""
    if type(value) not in (int, float):
        raise ExponentUnsupported(f"p must be a JSON number, got {value!r}")
    return float(value)


def _matrix_to_json(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _matrix_from_json(rows: list) -> np.ndarray:
    """The complex matrix of rows of [re, im] pairs, bitwise as complex(re, im).

    Raises ShapeMismatch unless rows is a list of equal rows of [re, im]
    pairs of JSON numbers: ragged or wrongly nested rows, strings (numeric
    ones too), nulls and booleans are refused, not coerced.  The entries are
    flattened and checked by exact type first, because numpy reads True as
    1.0 and "1.5" as 1.5, and its discovery of a nested list's shape costs
    more than the flattening."""
    try:
        pairs = list(chain.from_iterable(rows))
        values = list(chain.from_iterable(pairs))
    except TypeError:  # a number where a row or a pair belongs
        pairs = values = []
    if (
        not pairs
        or set(map(len, rows)) != {len(pairs) // len(rows)}
        or set(map(len, pairs)) != {2}
        or not set(map(type, values)) <= {int, float}
    ):
        raise ShapeMismatch("a matrix must be a list of equal rows of [re, im] number pairs")
    try:
        flat = np.array(values, dtype=float)
    except OverflowError:
        raise NonFinite("a matrix entry is an integer beyond the range of a double") from None
    return flat.view(complex).reshape(len(rows), -1)


def algebra_to_json(algebra: Algebra) -> dict:
    return {"blocks": list(algebra.blocks)}


def algebra_from_json(obj: dict) -> Algebra:
    """The algebra of a list of block sizes, each an exact positive JSON
    integer: floats and booleans are refused, not truncated or counted."""
    blocks = _key(obj, "blocks")
    if not isinstance(blocks, list) or any(type(n) is not int or n < 1 for n in blocks):
        raise NonPositiveDim(f"block dimensions must be positive integers: {blocks!r}")
    return Algebra(tuple(blocks))


def element_to_json(x: AlgebraElement) -> dict:
    return {"blocks": [_matrix_to_json(b) for b in x.data]}


def element_from_json(obj: dict, algebra: Algebra | None = None) -> AlgebraElement:
    blocks = [_matrix_from_json(b) for b in _key(obj, "blocks")]
    if algebra is None:
        algebra = Algebra(tuple(b.shape[0] for b in blocks))
    return AlgebraElement(algebra, blocks)


def lp_vector_to_json(h: LpVector) -> dict:
    out = element_to_json(h)
    out["p"] = float(h.p)
    return out


def lp_vector_from_json(obj: dict, algebra: Algebra | None = None, p: float | None = None) -> LpVector:
    x = element_from_json(obj, algebra)
    if "p" in obj:
        p = _exponent(obj["p"])
    elif p is None:
        raise ShapeMismatch("vector file carries no exponent and none was given")
    return LpVector.from_element(x, float(p))


def state_to_json(state: State) -> dict:
    out = element_to_json(state.density)
    out["faithful"] = bool(state.faithful)
    return out


def state_from_json(obj: dict, algebra: Algebra | None = None) -> State:
    x = element_from_json(obj, algebra)
    return State(x.algebra, list(x.data))


def algebra_map_to_json(F: AlgebraMap) -> dict:
    return {
        "source": algebra_to_json(F.source),
        "target": algebra_to_json(F.target),
        "matrix": _matrix_to_json(F.matrix),
    }


def algebra_map_from_json(obj: dict) -> AlgebraMap:
    return AlgebraMap(
        algebra_from_json(_key(obj, "source")),
        algebra_from_json(_key(obj, "target")),
        _matrix_from_json(_key(obj, "matrix")),
    )


def lp_map_to_json(T: LpMap) -> dict:
    return {"p": float(T.p), **algebra_map_to_json(T)}


def lp_map_from_json(obj: dict) -> LpMap:
    return LpMap(
        algebra_from_json(_key(obj, "source")),
        algebra_from_json(_key(obj, "target")),
        _exponent(_key(obj, "p")),
        _matrix_from_json(_key(obj, "matrix")),
    )


def subalgebra_to_json(A: Subalgebra) -> dict:
    return {
        "parent": algebra_to_json(A.parent),
        "basis": [element_to_json(a) for a in A.basis],
    }


def subalgebra_from_json(obj: dict) -> Subalgebra:
    parent = algebra_from_json(_key(obj, "parent"))
    basis = [element_from_json(b, parent) for b in _key(obj, "basis")]
    return Subalgebra(parent, basis)


def isometry_data_to_json(data: IsometryData) -> dict:
    return {
        "source": algebra_to_json(data.source),
        "target": algebra_to_json(data.target),
        "pi": algebra_map_to_json(data.pi),
        "w": element_to_json(data.w),
        "expectation": {
            "map": algebra_map_to_json(data.expectation.map),
            "state": state_to_json(data.expectation.state),
            "subalgebra": subalgebra_to_json(data.expectation.subalgebra),
        },
        "reference_state": state_to_json(data.reference_state),
    }


def isometry_data_from_json(obj: dict) -> IsometryData:
    """The bundled data; the expectation's subalgebra is rebuilt as the image
    of pi, certified and in pi's factor order; a stored basis element raises
    NonFinite with a NaN or infinite entry, DataInvalid off the span."""
    source = algebra_from_json(_key(obj, "source"))
    target = algebra_from_json(_key(obj, "target"))
    pi = algebra_map_from_json(_key(obj, "pi"))
    w = element_from_json(_key(obj, "w"), target)
    exp_obj = _key(obj, "expectation")
    image = Subalgebra.from_map_image(pi)
    tol = 1000 * target.atol
    for b in _key(_key(exp_obj, "subalgebra"), "basis"):
        b = element_from_json(b, target)
        _require_finite(b.data, "a stored subalgebra basis element")
        if image.span_residual(b) > tol * max(1.0, b.frobenius()):
            raise DataInvalid("a stored subalgebra basis element leaves the image of pi")
    expectation = ConditionalExpectation(
        map=algebra_map_from_json(_key(exp_obj, "map")),
        state=state_from_json(_key(exp_obj, "state"), target),
        subalgebra=image,
    )
    return IsometryData(
        source=source,
        target=target,
        pi=pi,
        w=w,
        expectation=expectation,
        reference_state=state_from_json(_key(obj, "reference_state"), source),
    )


def classification_report_to_json(report: ClassificationReport) -> dict:
    out: dict[str, Any] = {
        "verdict": report.verdict,
        "defects": {k: float(v) for k, v in report.defects.items()},
        "failing_stage": report.failing_stage,
        "warnings": list(report.warnings),
    }
    if report.data is not None:
        out["data"] = isometry_data_to_json(report.data)
    return out


def dump(obj: dict, path: str | None = None) -> None:
    """Write obj as one line of JSON and a newline to path, or to standard
    output.  json.dumps without an indent runs the C encoder; an indent, or
    json.dump, runs the pure-Python one."""
    text = json.dumps(obj) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
