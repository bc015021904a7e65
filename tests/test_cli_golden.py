"""Golden CLI regression: every deterministic subcommand on every builtin.

``tests/golden/<command>.json`` maps each builtin name to the exit code and
the parsed JSON stdout of ``oqwalk <command> --builtin <name>``.  The test
re-runs each command in process and compares the parsed documents: keys,
strings, bools, ints and exit codes exactly, floats to 1e-9 relative
(1e-12 absolute near zero).

Re-record after an intended output change with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from oqwalk import BUILTIN_NAMES
from oqwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "validate": ["validate"],
    "analyze": ["analyze"],
    "asymptotics": ["asymptotics"],
    "rate": ["rate"],
    "simulate": ["simulate", "-P", "200", "-N", "200", "--seed", "7"],
}

REL_TOL = 1e-9
ABS_TOL = 1e-12


def run(command: str, name: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(COMMANDS[command] + ["--builtin", name])
    text = out.getvalue()
    return {"exit_code": code, "stdout": json.loads(text) if text else None}


def mismatches(expected, actual, path="$"):
    """Paths at which ``actual`` departs from ``expected``."""
    if type(expected) is not type(actual):
        return [f"{path}: {type(expected).__name__} != {type(actual).__name__}"]
    if isinstance(expected, float):
        ok = math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return [] if ok else [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_matches_golden(command):
    golden = json.loads((GOLDEN / f"{command}.json").read_text())
    assert sorted(golden) == sorted(BUILTIN_NAMES)
    for name in BUILTIN_NAMES:
        diff = mismatches(golden[name], run(command, name))
        assert not diff, (command, name, diff[:5])


def test_comparison_is_strict_about_types_and_tolerant_of_rounding():
    assert mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}) == []
    assert mismatches(0.0, 1e-13) == []
    assert mismatches(1.0, 1.0 + 1e-6)
    assert mismatches(2, 3)
    assert mismatches(2, 2.0)
    assert mismatches(True, 1)
    assert mismatches(None, 0.0)
    assert mismatches({"a": 1}, {"b": 1})
    assert mismatches([1], [1, 2])


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for command in COMMANDS:
        doc = {name: run(command, name) for name in BUILTIN_NAMES}
        (GOLDEN / f"{command}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
