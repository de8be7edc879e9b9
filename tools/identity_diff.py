"""Compare two identity dumps, allowing last-bit changes of floats.

    python tools/identity_diff.py OLD.json NEW.json

The files are written by ``tools/identity_dump.py``.  They match when they
hold the same records in the same order, with equal strings, booleans and
integers, and floats within 1e-12 * max(1, |old|), where NaN matches NaN
and an infinity matches the same infinity.  A string that holds a JSON
object or array, such as a suite report, is compared as that document.
Every other difference is printed, grouped by its path with the record
indices replaced by ``*``, and the exit status is 1 when there is one.
After the verdict, every path whose floats moved within the bound is
summarized on one line: how many values moved and the largest move,
|new - old| / max(1, |old|).
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

FLOAT_TOL = 1e-12


def _floats_match(old: float, new: float) -> bool:
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) and math.isnan(new)
    if math.isinf(old) or math.isinf(new):
        return old == new
    return abs(new - old) <= FLOAT_TOL * max(1.0, abs(old))


def _document(value):
    """The JSON object or array a string holds, or None."""
    if isinstance(value, str) and value.startswith(("{", "[")):
        try:
            return json.loads(value)
        except ValueError:
            return None
    return None


def _generic(path: str) -> str:
    return re.sub(r"\[\d+\]", "[*]", path)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def differences(old, new, path: str = "", moves=None) -> list[tuple[str, str]]:
    """(path, message) for every difference of new from old.  A float that
    matches but is not equal appends (path, |new - old| / max(1, |old|)) to
    `moves` when a list is given."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in old:
            if key in new:
                out += differences(old[key], new[key], _join(path, key), moves)
            else:
                out.append((_join(path, key), "missing in NEW"))
        out += [(_join(path, key), "only in NEW") for key in new if key not in old]
        return out
    if isinstance(old, list) and isinstance(new, list):
        out = []
        if len(old) != len(new):
            out.append((path, f"{len(old)} records in OLD, {len(new)} in NEW"))
        for i, (a, b) in enumerate(zip(old, new)):
            out += differences(a, b, f"{path}[{i}]", moves)
        return out
    if isinstance(old, float) and isinstance(new, float):
        if not _floats_match(old, new):
            return [(path, f"{old!r} != {new!r}")]
        if moves is not None and old != new and not math.isnan(old):
            moves.append((path, abs(new - old) / max(1.0, abs(old))))
        return []
    if type(old) is type(new) and old == new:
        return []
    old_doc, new_doc = _document(old), _document(new)
    if old_doc is not None and new_doc is not None:
        return differences(old_doc, new_doc, path, moves)
    return [(path, f"{old!r} != {new!r}")]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(name).read_text()) for name in args)
    groups, moves = defaultdict(list), []
    for path, message in differences(old, new, moves=moves):
        groups[_generic(path)].append((path, message))
    for generic, found in groups.items():
        print(f"{generic}: {len(found)} difference{'s' * (len(found) != 1)}")
        for path, message in found:
            print(f"  {path}: {message}")
    total = sum(len(found) for found in groups.values())
    print(f"{total} differences" if total else "no differences")
    moved = defaultdict(list)
    for path, move in moves:
        moved[_generic(path)].append(move)
    for generic, found in moved.items():
        count = f"{len(found)} value{'s' * (len(found) != 1)}"
        print(f"moved bitwise: {generic}: {count}, largest {max(found):.2g} of max(1, |old|)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
