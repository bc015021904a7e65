"""Byte sweep of the command-line interface, for changes that must not move output.

Runs a fixed list of ``oqwalk`` invocations in one process through
``oqwalk.cli.main`` and records, per invocation, the exit code and the sha256
of stdout, of stderr and of every ``--out`` artifact.  The list covers the six
commands on the bundled models and on the seeded benchmark documents
(``perfbench/docs.py``, seeds 31 and 32: valid n = 4 and n = 8 walks, an
n = 9 walk beyond the dense cap, a malformed and a non-stochastic document),
``analyze`` on the seed-31 n = 4 walk with its +1 step moved to +20 and to
10^30, initial-state documents, every range check, argparse errors and
``--help``.

Usage, from the repository root::

    PYTHONPATH=src python tests/byte_sweep.py OUT.json
    PYTHONPATH=src python tests/byte_sweep.py OUT.json --against OTHER.json

Point ``PYTHONPATH`` at another checkout's ``src`` to sweep that version;
``--against`` compares the new record with an earlier one, prints each
invocation that differs and "N/N identical", and exits 1 on any difference.
Temporary paths are written as ``{docs}`` and ``{out}`` in the record's keys
and in the hashed text, so records from different runs compare.  This file
is a script; pytest does not collect it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import docs  # noqa: E402  (perfbench/docs.py: the seeded model documents)

import oqwalk.cli  # noqa: E402
from model_zoo import moved_step_document  # noqa: E402

BUILTINS = ("std_example", "periodic_example", "breakdown_example",
            "antidiag_example", "classical_dilation")
DOC_SEEDS = (31, 32)

# Run on every model source.
PER_MODEL = (
    "validate",
    "analyze",
    "asymptotics --out {out}",
    "asymptotics --random-initial 5 --u-points 11",
    "rate --out {out}",
    "simulate -P 40 -N 30 --seed 7 --out {out}",
    "simulate -P 300 -N 64 --seed 3 --out {out}",
    "simulate -P 37 -N 3000 --seed 5",
    "oracle-check -P 5 --out {out}",
)

STATE_DOCUMENT = {"sites": [
    {"position": [0], "block": [[{"re": 0.75, "im": 0.0}, {"re": 0.0, "im": 0.25}],
                                [{"re": 0.0, "im": -0.25}, {"re": 0.25, "im": 0.0}]]},
    {"position": [2], "block": [[{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                                [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]]},
]}

EXTRA = (
    "validate --model {docs}/missing.json",
    "asymptotics --builtin std_example --u-points 11 --initial {docs}/state.json",
    "simulate --builtin std_example -P 40 -N 30 --initial {docs}/state.json",
    "asymptotics --builtin std_example --u-points 11 --initial {docs}/bad_state.json",
    "asymptotics --builtin std_example --u-points 11 --initial {docs}/missing.json",
    "oracle-check --builtin std_example -P 3 -u 0.25 -u -2",
    "oracle-check --builtin periodic_example -P 3 -u 3",
    "validate --builtin classical_dilation --p 1.5",
    "analyze --builtin classical_dilation --p 1.5",
    # First return words at length 21, and none within the default lengths.
    "analyze --model {docs}/n4_step20_31.json",
    "analyze --model {docs}/n4_step1e30_31.json",
    # Each range check alone, at and beyond its edge.
    "simulate --builtin std_example -P 0 -N 5",
    "simulate --builtin std_example -P -1 -N 5",
    "simulate --builtin std_example -P 5 -N 0",
    "simulate --builtin std_example -P 5 -N -3",
    "simulate --builtin std_example -P 5 -N 5 --seed -1",
    "simulate --builtin std_example -P 5 -N 5 --seed 18446744073709551616",
    "simulate --builtin std_example -P 5 -N 5 --seed 18446744073709551615",
    "asymptotics --builtin std_example --u-min 1 --u-max 1",
    "asymptotics --builtin std_example --u-min 2 --u-max 1",
    "asymptotics --builtin std_example --u-points 2",
    "rate --builtin std_example --u-points 0",
    "rate --builtin std_example --x-min 1 --x-max 0",
    "rate --builtin std_example --x-points 0",
    "rate --builtin std_example --x-min 0.5 --x-max 0.5 --x-points 1",
    "oracle-check --builtin std_example -P 0",
    # Several violations at once, and a range error with a missing model.
    "simulate --builtin std_example -P 0 -N 0 --seed -1",
    "rate --builtin std_example --u-min 1 --u-max 0 --u-points 2 --x-points 0",
    "asymptotics --builtin std_example --u-min 1 --u-max 0 --u-points 1",
    "rate --builtin std_example --x-min 1 --x-max 0 --x-points 0",
    "simulate --model {docs}/missing.json -P 0",
    # argparse errors.
    "",
    "validate",
    "validate --model {docs}/n4_31.json --builtin std_example",
    "simulate --builtin std_example --initial {docs}/state.json --random-initial 3",
    "simulate --builtin std_example -P x",
    "frobnicate --builtin std_example",
    # Help texts.
    "--help",
    "validate --help",
    "analyze --help",
    "asymptotics --help",
    "rate --help",
    "simulate --help",
    "oracle-check --help",
)


def call_list() -> list[str]:
    sources = [f"--builtin {name}" for name in BUILTINS]
    sources.append("--builtin classical_dilation --p 0.3")
    sources += [f"--model {{docs}}/{stem}_{seed}.json" for seed in DOC_SEEDS
                for stem in ("n4", "n8", "n9", "malformed", "nonstochastic")]
    calls = []
    for command in PER_MODEL:
        name, _, options = command.partition(" ")
        calls += [" ".join(filter(None, (name, source, options))) for source in sources]
    return calls + list(EXTRA)


def write_documents(directory: Path) -> None:
    for seed in DOC_SEEDS:
        for name, text in docs.generate(seed).items():
            stem = name.removesuffix(".json")
            (directory / f"{stem}_{seed}.json").write_text(text)
    for name, step in (("step20", 20), ("step1e30", 10**30)):
        (directory / f"n4_{name}_31.json").write_text(moved_step_document(step))
    state = json.dumps(STATE_DOCUMENT)
    (directory / "state.json").write_text(state)
    (directory / "bad_state.json").write_text(state[: len(state) // 2])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(template: str, doc_dir: Path, work: Path) -> dict:
    """Run one invocation; its ``--out`` directory is a fresh one under ``work``."""
    out_dir = Path(tempfile.mkdtemp(dir=work))
    paths = {"{docs}": str(doc_dir), "{out}": str(out_dir)}
    argv = shlex.split(template)
    for key, path in paths.items():
        argv = [a.replace(key, path) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        try:
            code = oqwalk.cli.main(argv)
        except SystemExit as exc:  # argparse errors and --help
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except Exception as exc:  # a traceback in the real command
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1

    def clean(text: str) -> bytes:
        for key, path in paths.items():
            text = text.replace(path, key)
        return text.encode()

    files = {p.relative_to(out_dir).as_posix(): _sha(clean(p.read_text()))
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return {"exit": code, "stdout": _sha(clean(stdout.getvalue())),
            "stderr": _sha(clean(stderr.getvalue())), "files": files}


def sweep() -> dict:
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        doc_dir, work = Path(tmp) / "docs", Path(tmp) / "out"
        doc_dir.mkdir()
        work.mkdir()
        write_documents(doc_dir)
        return {f"oqwalk {t}".strip(): run_one(t, doc_dir, work) for t in call_list()}


def compare(new: dict, old: dict) -> int:
    """Print every invocation whose record differs; return the count that differ."""
    differing = sorted(k for k in new.keys() | old.keys() if new.get(k) != old.get(k))
    for key in differing:
        print(f"differs: {key}")
    total = len(new.keys() | old.keys())
    print(f"{total - len(differing)}/{total} identical")
    return len(differing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="where to write the JSON record")
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier record to compare with")
    args = parser.parse_args(argv)
    record = sweep()
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    codes = {}
    for entry in record.values():
        codes[entry["exit"]] = codes.get(entry["exit"], 0) + 1
    print(f"{len(record)} invocations; exit codes {dict(sorted(codes.items()))}")
    if args.against is not None:
        return 1 if compare(record, json.loads(args.against.read_text())) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
