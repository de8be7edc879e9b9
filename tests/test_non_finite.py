"""Non-finite input is refused with NonFinite before it reaches LAPACK.

Under numpy 2.4 a complex SVD with vectors does not return on a matrix of
3 x 3 or more whose first entry is infinite, and a NaN entry raises
LinAlgError instead.  Each case therefore runs in a child process with a
timeout, so that a regression to the hang fails in seconds instead of
stalling the run; the child times the refusing call itself.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 30  # the child's imports included
CALL_LIMIT_S = 1.0

PRELUDE = """
import json, time
import numpy as np
from nclp import serialize as ser
from nclp.algebra import AlgebraElement, make_algebra
from nclp.expectation import Subalgebra
from nclp.lp import LpVector, mazur_map, polar_decompose
from nclp.samples import patterned_inclusion

def gaussian_block(entry):
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b[0, 0] = entry
    return LpVector(make_algebra([3]), 3.0, [b])

def diagonal_block(entry):
    b = np.eye(2, dtype=complex)
    b[0, 0] = entry
    return LpVector(make_algebra([2]), 3.0, [b])
"""

# each case sets up `call`, a function of no arguments that must raise
CASES = {
    # Python's json reads the number 1e400 as inf
    "subalgebra_from_json_1e400": """
        obj = ser.subalgebra_to_json(patterned_inclusion(3)[0])
        obj["basis"][0]["blocks"][0][1][2][0] = 271828.0
        text = json.dumps(obj).replace("271828.0", "1e400")
        call = lambda: ser.subalgebra_from_json(json.loads(text))
    """,
    "subalgebra_nan_basis": """
        A = patterned_inclusion(3)[0]
        blocks = [b.copy() for b in A.basis[0].data]
        blocks[0][0, 0] = np.nan
        basis = [AlgebraElement(A.parent, blocks), *A.basis[1:]]
        call = lambda: Subalgebra(A.parent, basis, validate=False)
    """,
    "polar_decompose_inf": """
        h = gaussian_block(np.inf)
        call = lambda: polar_decompose(h)
    """,
    "polar_decompose_nan": """
        h = gaussian_block(np.nan)
        call = lambda: polar_decompose(h)
    """,
    "mazur_map_inf": """
        h = diagonal_block(np.inf)
        call = lambda: mazur_map(h, 1.5)
    """,
    "mazur_map_nan": """
        h = diagonal_block(np.nan)
        call = lambda: mazur_map(h, 1.5)
    """,
}

REPORT = """
start = time.perf_counter()
try:
    call()
    error = None
except Exception as exc:
    error = type(exc).__name__
print(json.dumps({"error": error, "seconds": time.perf_counter() - start}))
"""


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_raises_non_finite_at_once(case):
    code = PRELUDE + textwrap.dedent(CASES[case]) + REPORT
    try:
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{case}: no answer within {CHILD_TIMEOUT_S} s")
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert outcome["error"] == "NonFinite"
    assert outcome["seconds"] < CALL_LIMIT_S
