"""Byte sweep of the command-line interface, for changes that must not move output.

Runs a fixed list of ``oqwalk`` invocations in one process through
``oqwalk.cli.main`` and records, per invocation, the exit code and the sha256
of stdout, of stderr and of every ``--out`` artifact.  The list covers the six
commands on the bundled models and on the seeded benchmark documents
(``perfbench/docs.py``, seeds 31 and 32: valid n = 4 and n = 8 walks, an
n = 9 walk beyond the dense cap, a malformed and a non-stochastic document),
``analyze`` on the seed-31 n = 4 walk with its +1 step moved to +20 and to
10^30, ``analyze`` on a period-4 two-level walk and on a block-cyclic walk
of period 6, ``analyze`` and ``asymptotics`` on a period-6 walk whose
cyclic blocks differ in size, ``oracle-check`` and ``rate`` on the 10^30 walk, six commands on
that walk with its first entry set to 1e308, tilt grids with a point on the
block crossing of ``breakdown_example`` and a five-point ``rate`` grid across
it, ``rate`` on a three-level direct sum whose blocks have different drifts
and on three reducible walks whose blocks are larger than 1 x 1,
``asymptotics`` and ``simulate`` on walks without a unique invariant state
(that sum, ``std_example`` summed with itself, a sum of two n = 4 walks and
two rays fed by a transient level), ``analyze`` on a two-level walk whose
common ray leaks by 9e-9,
``rate`` and ``asymptotics`` on ``breakdown_example`` and on a diagonal pair
whose blocks tie at every tilt, each written in a rotated internal basis,
``classical_dilation`` tilts where lambda exceeds the largest double, tilt
windows where the Perron extraction of a valid model fails (one of them
+-1e6), a window reaching a tilt where the shifted map is nilpotent,
windows whose span overflows, ``asymptotics`` on a 2-D walk,
initial-state documents (one with a NaN entry), every range check, ``--p``
on a model other than ``classical_dilation``, input and output paths that
cannot be read or written, non-finite numeric arguments,
an ``oracle-check`` whose moments underflow, argparse errors and ``--help``.

Every ``.json`` artifact and every stdout that parses as JSON must be
standard JSON: a ``NaN`` or ``Infinity`` token stops the sweep with the
invocation's name.

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
from oqwalk import builtin, dump_model  # noqa: E402
from model_zoo import (  # noqa: E402
    STEPS_2D,
    block_cyclic_model,
    block_sum_model,
    c2_sample,
    huge_entry_document,
    leaning_ray_model,
    moved_step_document,
    equal_modulus_diagonal_model,
    nilpotent_step_model,
    random_isometry_model,
    rotated,
    three_level_two_block_model,
    transient_fed_rays_model,
)

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
    # Narrow batches, which choose and renormalize in Python scalars; the
    # N = 3 run crosses a draw block (2^14 // 3 steps).
    "simulate -P 400 -N 1 --seed 9",
    "simulate -P 6000 -N 3 --seed 11 --out {out}",
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
    # Walk periods beyond the steps' own 2: a two-level walk of period 4, and
    # period 6, the lcm of the steps' 2 and the auxiliary map's 3.
    "analyze --model {docs}/c2_period4.json",
    "analyze --model {docs}/block_cyclic_111.json",
    "analyze --model {docs}/block_cyclic_121.json",
    "asymptotics --model {docs}/block_cyclic_121.json",
    # A lattice box too large for the exact propagator.
    "oracle-check --model {docs}/n4_step1e30_31.json -P 5",
    # An entry of 1e308: the stochasticity residual is NaN.
    "validate --model {docs}/n4_huge_31.json",
    "analyze --model {docs}/n4_huge_31.json",
    "asymptotics --model {docs}/n4_huge_31.json",
    "rate --model {docs}/n4_huge_31.json",
    "simulate --model {docs}/n4_huge_31.json -P 40 -N 30",
    "oracle-check --model {docs}/n4_huge_31.json -P 5",
    # A grid point on the crossing of breakdown_example's blocks, ln(2)/2.
    "asymptotics --builtin breakdown_example --u-min 0.34657359027997264 --u-max 2 "
    "--u-points 5",
    "rate --builtin breakdown_example --u-min -0.34657359027997264 "
    "--u-max 0.34657359027997264",
    # A five-point grid whose cells each hold at most one block crossing.
    "rate --builtin breakdown_example --u-points 5",
    # Tilts where lambda exceeds the largest double, and a step of 10^30.
    "asymptotics --builtin classical_dilation --u-min 700 --u-max 800 --u-points 3",
    "rate --model {docs}/n4_step1e30_31.json",
    # A direct sum whose blocks have different drifts: a kink at u = 0.
    "rate --model {docs}/three_level.json",
    # Reducible tables whose top blocks are larger than 1 x 1, so that their
    # Newton steps take bordered solves.
    "rate --model {docs}/std_sum.json",
    "rate --model {docs}/block_sum_n8.json",
    "rate --model {docs}/transient_fed.json",
    # Walks without a unique invariant state: mixtures of recurrent blocks,
    # with equal drifts (std_sum) and different ones.
    "asymptotics --model {docs}/three_level.json --out {out}",
    "simulate --model {docs}/three_level.json -P 40 -N 30",
    "asymptotics --model {docs}/std_sum.json --out {out}",
    "simulate --model {docs}/std_sum.json -P 40 -N 30 --seed 7 --out {out}",
    "asymptotics --model {docs}/block_sum_n8.json --out {out}",
    "simulate --model {docs}/block_sum_n8.json -P 40 -N 30",
    "asymptotics --model {docs}/transient_fed.json --out {out}",
    "simulate --model {docs}/transient_fed.json -P 40 -N 30",
    # A common ray that leaks by 9e-9, inside the ray gate.
    "analyze --model {docs}/leaning_ray.json",
    # Reducible walks out of the basis that makes their zeros exact.
    "rate --model {docs}/rotated_equal_modulus.json",
    "asymptotics --model {docs}/rotated_equal_modulus.json",
    "rate --model {docs}/rotated_breakdown.json",
    "asymptotics --model {docs}/rotated_breakdown.json",
    # Tilt windows where the Perron extraction fails on a valid model.
    "asymptotics --builtin std_example --u-min=-15 --u-max=15",
    "asymptotics --builtin std_example --u-min=-17 --u-max=17",
    "rate --builtin periodic_example --u-min=-40 --u-max=40",
    "rate --builtin std_example --u-min=-1e6 --u-max=1e6",
    # A window reaching u = 400, where the shifted map has spectral radius 0.
    "asymptotics --model {docs}/nilpotent.json --u-min 398 --u-max 400 --u-points 3",
    "rate --model {docs}/nilpotent.json --u-min 398 --u-max 400 --u-points 3",
    # Finite windows whose span overflows.
    "asymptotics --builtin std_example --u-min=-1e308 --u-max=1e308",
    "rate --builtin std_example --u-min=-1e308 --u-max=1e308",
    "rate --builtin std_example --x-min=-1e308 --x-max=1e308",
    # A walk on Z^2, whose curve runs along the first axis.
    "asymptotics --model {docs}/isometry_2d.json",
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
    # Non-finite numbers, which argparse's float accepts.
    "asymptotics --builtin std_example --u-min -1 --u-max inf --u-points 3",
    "rate --builtin std_example --u-min=-1 --u-max=inf",
    "rate --builtin std_example --x-max=inf --x-points 3",
    "oracle-check --builtin std_example -P 2 -u inf",
    # Both scaled moments underflow from p = 103 on: 13 gaps written as null.
    "oracle-check --builtin classical_dilation --p 0.001 -P 115 -u 50 --out {out}",
    # Paths that cannot be read or written, and a document that is not UTF-8.
    "rate --builtin std_example --out {docs}/n4_31.json",
    "validate --model {docs}",
    "simulate --builtin std_example -P 5 -N 5 --initial {docs}",
    "validate --model {docs}/not_utf8.json",
    # A NaN block entry, and --p on a model other than classical_dilation.
    "simulate --builtin std_example -P 5 -N 2 --initial {docs}/nan_state.json",
    "validate --builtin std_example --p 0.3",
    "validate --model {docs}/n4_31.json --p 0.3",
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
    (directory / "n4_huge_31.json").write_text(huge_entry_document())
    dump_model(three_level_two_block_model(), directory / "three_level.json")
    std = builtin("std_example")
    dump_model(block_sum_model(std, std), directory / "std_sum.json")
    dump_model(block_sum_model(random_isometry_model(3, n=4), random_isometry_model(4, n=4)),
               directory / "block_sum_n8.json")
    dump_model(transient_fed_rays_model(), directory / "transient_fed.json")
    dump_model(leaning_ray_model(9e-9), directory / "leaning_ray.json")
    dump_model(nilpotent_step_model(), directory / "nilpotent.json")
    for name, model in (("equal_modulus", equal_modulus_diagonal_model()),
                        ("breakdown", builtin("breakdown_example"))):
        dump_model(rotated(model, 1), directory / f"rotated_{name}.json")
    dump_model(random_isometry_model(3, n=2, steps=STEPS_2D), directory / "isometry_2d.json")
    dump_model(c2_sample(100)[80], directory / "c2_period4.json")
    for sizes in ((1, 1, 1), (1, 2, 1)):
        name = "".join(map(str, sizes))
        dump_model(block_cyclic_model(0, sizes), directory / f"block_cyclic_{name}.json")
    state = json.dumps(STATE_DOCUMENT)
    (directory / "state.json").write_text(state)
    (directory / "bad_state.json").write_text(state[: len(state) // 2])
    (directory / "not_utf8.json").write_bytes(b'{"operators": "\xff"}')
    zero, one = {"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}
    nan = {"re": float("nan"), "im": 0.0}
    (directory / "nan_state.json").write_text(json.dumps(
        {"sites": [{"position": [0], "block": [[nan, zero], [zero, one]]}]}))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _NonStandardJSON(Exception):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` token; not a ``ValueError``,
    so that it passes through ``json.loads``."""


def _refuse_constant(name: str):
    raise _NonStandardJSON(name)


def _require_standard_json(template: str, what: str, text: str) -> None:
    """Stop the sweep if ``text`` holds a non-standard JSON constant; text
    that is not JSON at all (help, ``oracle-check`` lines, nothing) passes."""
    try:
        json.loads(text, parse_constant=_refuse_constant)
    except _NonStandardJSON as exc:
        sys.exit(f"oqwalk {template}: {what} holds non-standard JSON ({exc})")
    except json.JSONDecodeError:
        pass


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

    _require_standard_json(template, "stdout", stdout.getvalue())
    files = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            name, text = p.relative_to(out_dir).as_posix(), p.read_text()
            if p.suffix == ".json":
                _require_standard_json(template, name, text)
            files[name] = _sha(clean(text))
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
