import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dense_oracles import matrix_from_json_by_entries, matrix_to_json_by_entries
from nclp import serialize as ser
from nclp.algebra import make_algebra, random_faithful_state
from nclp.errors import (
    DataInvalid,
    EmptyBlocks,
    ExponentUnsupported,
    NonFinite,
    NonPositiveDim,
    ShapeMismatch,
)
from nclp.expectation import lp_inclusion, restrict_state
from nclp.isometry import build_isometry, classify
from nclp.lp import LpMap
from nclp.samples import random_element, random_isometry_data, random_lp_vector, rng_for

# a source of two factors whose generic decomposition of the image runs in
# the other order than pi
TWO_FACTORS = ((2, 1), [([(0, 2), (1, 1)], 1), ([(0, 1)], 1)])


def test_algebra_roundtrip():
    alg = make_algebra([2, 3])
    obj = ser.algebra_to_json(alg)
    assert obj == {"blocks": [2, 3]}
    assert ser.algebra_from_json(obj) == alg


def test_element_json_convention():
    alg = make_algebra([2])
    h = random_lp_vector(alg, 3.0, rng_for(1))
    obj = ser.lp_vector_to_json(h)
    # row-major [re, im] pairs
    assert obj["p"] == 3.0
    assert obj["blocks"][0][0][1] == [float(h.data[0][0, 1].real), float(h.data[0][0, 1].imag)]
    back = ser.lp_vector_from_json(json.loads(json.dumps(obj)))
    assert (back - h).frobenius() < 1e-15
    assert back.p == 3.0


def test_state_roundtrip():
    alg = make_algebra([2, 2])
    phi = random_faithful_state(alg, 5)
    back = ser.state_from_json(json.loads(json.dumps(ser.state_to_json(phi))))
    assert (back.density - phi.density).frobenius() < 1e-15
    assert back.faithful


def test_lp_map_roundtrip():
    alg = make_algebra([2])
    rng = rng_for(7)
    T = LpMap(alg, alg, 2.5, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    back = ser.lp_map_from_json(json.loads(json.dumps(ser.lp_map_to_json(T))))
    assert np.array_equal(back.matrix, T.matrix)
    assert back.p == 2.5


def test_vector_without_exponent_rejected():
    alg = make_algebra([2])
    obj = ser.element_to_json(random_lp_vector(alg, 3.0, rng_for(2)))
    with pytest.raises(ShapeMismatch):
        ser.lp_vector_from_json(obj)


def test_isometry_data_roundtrip_classifies():
    data = random_isometry_data(5)
    obj = json.loads(json.dumps(ser.isometry_data_to_json(data)))
    back = ser.isometry_data_from_json(obj)
    T = build_isometry(back, 3.0)
    report = classify(T, back.reference_state, 3.0)
    assert report.accepted


def test_subalgebra_roundtrip():
    data = random_isometry_data(1)
    A = data.expectation.subalgebra
    back = ser.subalgebra_from_json(json.loads(json.dumps(ser.subalgebra_to_json(A))))
    assert back.parent == A.parent
    assert len(back.basis) == len(A.basis)
    for a, b in zip(back.basis, A.basis):
        assert (a - b).frobenius() < 1e-15


def _roundtrip(data):
    return ser.isometry_data_from_json(json.loads(json.dumps(ser.isometry_data_to_json(data))))


def test_loaded_image_keeps_the_factor_order_of_pi():
    data = random_isometry_data(1, TWO_FACTORS[0], plan=TWO_FACTORS[1])
    back = _roundtrip(data)
    E = back.expectation
    assert E.subalgebra.decomposition.algebra == data.source
    # the restriction of the loaded state is the reference state, in the source order
    rho_A = restrict_state(E.subalgebra, E.state)
    assert (rho_A.density - back.reference_state.density).frobenius() <= 1e-7
    loaded = lp_inclusion(E.subalgebra, E, 3)
    E0 = data.expectation
    before = lp_inclusion(E0.subalgebra, E0, 3)
    assert np.max(np.abs(loaded.matrix - before.matrix)) < 1e-12


def test_a_stored_basis_element_off_the_image_is_rejected():
    data = random_isometry_data(1, TWO_FACTORS[0], plan=TWO_FACTORS[1])
    obj = json.loads(json.dumps(ser.isometry_data_to_json(data)))
    stray = random_element(data.target, rng_for(3))
    obj["expectation"]["subalgebra"]["basis"][1] = ser.element_to_json(stray)
    with pytest.raises(DataInvalid, match="leaves the image of pi"):
        ser.isometry_data_from_json(obj)


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_a_stored_basis_element_with_a_non_finite_entry_is_rejected(entry):
    # its span residual is NaN, which the span test (residual > tolerance)
    # let through
    data = random_isometry_data(1, TWO_FACTORS[0], plan=TWO_FACTORS[1])
    obj = json.loads(json.dumps(ser.isometry_data_to_json(data)))
    obj["expectation"]["subalgebra"]["basis"][1]["blocks"][0][0][0][0] = entry
    with pytest.raises(NonFinite, match="stored subalgebra basis element"):
        ser.isometry_data_from_json(obj)


# entries at the edges of the doubles: signed zeros, the smallest subnormal
# and the largest finite magnitudes
EDGE_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)


@st.composite
def _complex_matrices(draw):
    pairs = draw(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
            elements=st.one_of(
                st.sampled_from(EDGE_ENTRIES), st.floats(allow_nan=False, allow_infinity=False)
            ),
        )
    )
    return pairs.view(complex)[..., 0]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_complex_matrices())
def test_the_matrix_codec_equals_the_per_entry_oracle(mat):
    obj = ser._matrix_to_json(mat)
    want = matrix_to_json_by_entries(mat)
    assert obj == want
    text = json.dumps(obj)
    assert text == json.dumps(want)
    back = ser._matrix_from_json(json.loads(text))
    assert back.dtype == complex and back.shape == mat.shape
    # bitwise, so that -0.0 and 0.0 differ
    assert back.view(float).tobytes() == mat.view(float).tobytes()


MALFORMED_MATRICES = {
    "ragged_rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    "pair_of_three": [[[1.0, 0.0, 0.0]]],
    "pair_of_one": [[[1.0]]],
    "string": [[["x", 0.0]]],
    "numeric_string": [[["1.5", 0.0]]],
    "null": [[[None, 0.0]]],
    "boolean_among_numbers": [[[True, 0.0], [0.0, 0.0]]],
    "booleans_only": [[[True, False]]],
    "too_deep": [[[[1.0, 0.0]]]],
    "too_shallow": [[1.0, 0.0]],
    "not_a_list": 1.0,
    "empty": [],
    "empty_row": [[]],
    "dict_pair": [[{"re": 1.0, "im": 0.0}]],
}


@pytest.mark.parametrize("rows", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES.keys())
def test_a_malformed_matrix_is_refused_at_the_boundary(rows):
    alg = make_algebra([1])
    obj = {"p": 3.0, "source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": rows}
    with pytest.raises(ShapeMismatch, match="rows of \\[re, im\\] number pairs"):
        ser.lp_map_from_json(obj)
    with pytest.raises(ShapeMismatch, match="rows of \\[re, im\\] number pairs"):
        ser.element_from_json({"blocks": [rows]}, alg)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_entry_still_reaches_the_finiteness_check(text):
    rows = json.loads(f"[[[1, {text}]]]")
    obj = {"p": 3.0, "source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": rows}
    with pytest.raises(NonFinite, match="map matrix has a NaN or infinite entry"):
        ser.lp_map_from_json(obj)
    with pytest.raises(NonFinite, match="density has a NaN or infinite entry"):
        ser.state_from_json({"blocks": [rows]})


def test_an_integer_beyond_the_doubles_is_non_finite():
    with pytest.raises(NonFinite, match="beyond the range of a double"):
        ser._matrix_from_json([[[10**400, 0]]])


def test_integer_entries_read_as_complex_re_im():
    rows = [[[1, 0], [0, -2]], [[3, 4], [-0.0, 5]]]
    back = ser._matrix_from_json(rows)
    assert back.view(float).tobytes() == matrix_from_json_by_entries(rows).view(float).tobytes()


@pytest.mark.parametrize(
    "blocks",
    [[2.7, True], [2.0], [True], [2, False], ["2"], [0], [-1], [None], 2, {"n": 2}],
    ids=["float_and_bool", "integral_float", "bool", "false", "string", "zero", "negative",
         "null", "not_a_list", "object"],
)
def test_block_sizes_must_be_exact_positive_integers(blocks):
    with pytest.raises(NonPositiveDim, match="block dimensions must be positive integers"):
        ser.algebra_from_json({"blocks": blocks})
    obj = {"p": 3.0, "source": {"blocks": blocks}, "target": {"blocks": [1]}, "matrix": [[[1, 0]]]}
    with pytest.raises(NonPositiveDim):
        ser.lp_map_from_json(obj)


def test_an_empty_block_list_is_refused():
    with pytest.raises(EmptyBlocks):
        ser.algebra_from_json({"blocks": []})


@pytest.mark.parametrize("p", ["3", None, True, [3.0], {"p": 3}], ids=str)
def test_the_exponent_must_be_a_json_number(p):
    alg = make_algebra([1])
    obj = {"p": p, "source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[[1, 0]]]}
    with pytest.raises(ExponentUnsupported, match="p must be a JSON number"):
        ser.lp_map_from_json(obj)
    vector = dict(ser.element_to_json(random_element(alg, rng_for(0))), p=p)
    with pytest.raises(ExponentUnsupported, match="p must be a JSON number"):
        ser.lp_vector_from_json(vector, p=3.0)


def test_an_integer_exponent_reads_as_a_float():
    obj = {"p": 3, "source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[[1, 0]]]}
    T = ser.lp_map_from_json(obj)
    assert T.p == 3.0 and type(T.p) is float


def _without(obj, path):
    """A deep copy of obj with the key at the end of path removed."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return obj


LP_MAP_KEYS = [("p",), ("source",), ("target",), ("matrix",), ("source", "blocks")]
ISOMETRY_KEYS = [
    ("source",),
    ("pi",),
    ("pi", "matrix"),
    ("w",),
    ("expectation",),
    ("expectation", "map"),
    ("expectation", "state"),
    ("expectation", "subalgebra", "basis"),
    ("reference_state",),
    ("reference_state", "blocks"),
]


def test_a_missing_key_is_named():
    T = LpMap(make_algebra([1]), make_algebra([1]), 3.0, np.eye(1))
    lp_map = ser.lp_map_to_json(T)
    for path in LP_MAP_KEYS:
        with pytest.raises(ShapeMismatch, match=f"the key '{path[-1]}' is required"):
            ser.lp_map_from_json(_without(lp_map, path))
    data = ser.isometry_data_to_json(random_isometry_data(2))
    for path in ISOMETRY_KEYS:
        with pytest.raises(ShapeMismatch, match=f"the key '{path[-1]}' is required"):
            ser.isometry_data_from_json(_without(data, path))
    with pytest.raises(ShapeMismatch, match="the key 'blocks' is required"):
        ser.state_from_json([])


def test_the_cli_names_a_missing_exponent(tmp_path, capsys):
    from nclp.cli import main

    T = LpMap(make_algebra([1]), make_algebra([1]), 3.0, np.eye(1))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_without(ser.lp_map_to_json(T), ("p",))))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(ser.state_to_json(random_faithful_state(make_algebra([1]), 0))))
    assert main(["classify", str(path), "--state", str(state), "--p", "3"]) == 2
    assert "the key 'p' is required" in capsys.readouterr().err
