"""The comparison of identity dumps: which changes it lets through."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

DIFF_PY = Path(__file__).resolve().parent.parent / "tools" / "identity_diff.py"


@pytest.fixture(scope="module")
def diff():
    spec = importlib.util.spec_from_file_location("identity_diff", DIFF_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(x: float, report: dict) -> dict:
    return {
        "classify": [{"seed": 0, "verdict": "accept", "defects": {"isometry": x, "nan": math.nan}}],
        "suites": [{"suite": "clarkson", "report": json.dumps(report)}],
    }


def test_floats_within_the_bound_match(diff):
    old = _dump(0.5, {"worst": 3.0, "inf": math.inf})
    new = _dump(0.5 + 4e-13, {"worst": 3.0 * (1 + 1e-13), "inf": math.inf})
    assert diff.differences(old, new) == []


def test_every_other_change_is_reported_by_path(diff):
    old = _dump(0.5, {"worst": 3.0, "inf": math.inf, "ok": True})
    new = _dump(0.5 + 2e-12, {"worst": 3.0, "inf": -math.inf, "ok": 1})
    new["classify"][0]["verdict"] = "reject"
    del new["classify"][0]["defects"]["nan"]
    new["classify"].append(new["classify"][0])
    assert [path for path, _ in diff.differences(old, new)] == [
        "classify",
        "classify[0].verdict",
        "classify[0].defects.isometry",
        "classify[0].defects.nan",
        "suites[0].report.inf",
        "suites[0].report.ok",
    ]


def test_the_exit_status_tells_a_difference(diff, tmp_path, capsys):
    old, same, moved = (tmp_path / name for name in ("old.json", "same.json", "moved.json"))
    old.write_text(json.dumps(_dump(0.5, {})))
    same.write_text(json.dumps(_dump(0.5 + 1e-13, {})))
    moved.write_text(json.dumps(_dump(0.6, {})))
    assert diff.main([str(old), str(same)]) == 0
    assert diff.main([str(old), str(moved)]) == 1
    out = capsys.readouterr().out
    assert "classify[*].defects.isometry: 1 difference\n" in out
    assert "classify[0].defects.isometry: 0.5 != 0.6" in out
    assert diff.main([str(old)]) == 2


def test_bitwise_moves_within_the_bound_are_summarized(diff, tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old_dump = _dump(0.5, {"worst": 3.0, "inf": math.inf})
    old_dump["classify"].append(old_dump["classify"][0])
    new_dump = _dump(0.5 + 2e-13, {"worst": 3.0 * (1 + 1e-13), "inf": math.inf})
    new_dump["classify"].append(_dump(0.5 + 4e-13, {})["classify"][0])
    old.write_text(json.dumps(old_dump))
    new.write_text(json.dumps(new_dump))
    moves = []
    assert diff.differences(old_dump, new_dump, moves=moves) == []
    assert [path for path, _ in moves] == [
        "classify[0].defects.isometry",
        "classify[1].defects.isometry",
        "suites[0].report.worst",
    ]
    assert diff.main([str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "no differences"
    assert lines[1] == (
        "moved bitwise: classify[*].defects.isometry: 2 values, largest 4e-13 of max(1, |old|)"
    )
    assert lines[2].startswith("moved bitwise: suites[*].report.worst: 1 value, largest 1e-13")
    assert len(lines) == 3
