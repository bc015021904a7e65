"""oqwalk benchmark: seeded workloads, end-to-end metrics, and a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Workloads (``--workload all`` runs the four in turn from this one process):

* ``cli_session``: a fixed sequence of ``oqwalk`` subprocess calls;
* ``spectral``: in-process full analysis of n = 2, 4 and 8 models;
* ``sampler``: wide seeded trajectory batches at n = 2 and n = 8;
* ``oracle_replay``: exact path-sum oracles, single trajectories, row replay.

The inputs are documents generated from ``--seed`` (``docs.py``); each
workload runs in its own interpreter with ``PYTHONPATH=src`` and one BLAS
thread, closed loop with one caller, repeating its fixed round of operations
until ``--seconds`` have passed.  ``--trace 0`` prints the end-to-end metrics
and the workload's own metrics; ``--trace 1`` adds a traced round and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` its metrics are

* ``setup_s``: median over five fresh interpreters of the time from spawn,
  through ``import oqwalk``, model loading and warm-up, to the first timed
  operation;
* ``wall_norm``: median over rounds of the round's wall time in probe units,
  each operation's time divided by the mean of the reference-probe times
  measured just before and after it (``probe.py``); the raw ``wall_s`` is
  printed next to it;
* ``peak_rss_mb``: peak resident memory of the workload process and its
  children.

An operation is *failed* when it crashes, exits with an undocumented code, or
returns a wrong answer; ``correct`` is false only for a wrong answer (or a
traced run that fails its coverage self-check).  Generated files, results and
spans go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import os

# Pin the BLAS pools before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_session", "spectral", "sampler", "oracle_replay")
E2E_UNITS = {"setup_s": "s", "wall_norm": "probe", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5  # set-ups timed per run, the workload's own included
CHILD_TIMEOUT_S = 170


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list[str], env: dict, result: Path) -> tuple[float, dict]:
    """Run one workload process; returns (seconds from spawn to ready, result)."""
    result.unlink(missing_ok=True)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *argv,
                             "--result", str(result)], env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process timed out after {CHILD_TIMEOUT_S} s")
    if code != 0 or not result.is_file():
        raise RuntimeError(f"workload process exited with code {code}")
    data = json.loads(result.read_text())
    return data["ready"] - t0, data


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import docs  # numpy; imported after the thread pins above

    out = root / ".bench_out" / name / f"seed-{seed}"
    doc_dir = docs.write(seed, out / "docs")
    env = _child_env(root)
    common = ["--workload", name, "--docs", str(doc_dir.relative_to(root)),
              "--seed", str(seed)]
    setups = [_run_child(common + ["--setup-only"], env, out / "setup.json")[0]
              for _ in range(SETUP_REPEATS - 1)]
    ready, data = _run_child(
        common + ["--seconds", str(seconds), "--trace", str(int(trace)),
                  "--spans", str(out / "spans.json")],
        env, out / f"result-trace{int(trace)}.json")
    setups.append(ready)
    data["setups"] = setups
    data["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_norm": statistics.median(data["rounds_norm"]),
        "peak_rss_mb": data["peak_rss_mb"],
    }
    return data


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, data: dict, trace: bool) -> dict:
    """Print one workload's metrics; return the metrics for the JSON line."""
    v = data["versions"]
    print(f"# env nproc={os.cpu_count()} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} numpy={v['numpy']} scipy={v['scipy']} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
          f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']}")
    rounds = data["rounds"]
    print(f"# workload={name} rounds={len(rounds)} closed loop, 1 caller")
    m = data["metrics"]
    print(f"{name} setup_s {_fmt(m['setup_s'])} s  (median of {len(data['setups'])} set-ups)")
    print(f"{name} wall_norm {_fmt(m['wall_norm'])} probe  (median of {len(rounds)} rounds; "
          f"each operation's time / mean of the probe times around it)")
    print(f"{name} wall_s {_fmt(statistics.median(rounds))} s  (median of {len(rounds)} rounds)")
    print(f"{name} probe_s {_fmt(data['probe_s'])} s  (median of {data['probes']} reference probes)")
    print(f"{name} peak_rss_mb {_fmt(m['peak_rss_mb'])} MB")
    ratio = data["failed"] / data["attempted"]
    print(f"{name} failed_ratio {_fmt(ratio)} ratio  "
          f"({data['failed']} failed / {data['attempted']} attempted)")
    for key, (value, unit, note) in data["detail"].items():
        print(f"{name} {key} {_fmt(value)} {unit}  ({note})")
    if "repeat_sha256" in data:
        print(f"{name} repeated-call stdout sha256 {data['repeat_sha256']}")
    for problem in data["problems"]:
        print(f"{name} FAILED {problem}")
    if not trace:
        return {k: {"value": m[k], "unit": u} for k, u in E2E_UNITS.items()}

    tr = data["trace"]
    units = tr["units"]
    for key, value in tr["layers"].items():
        base = tr["bases"].get(key)
        print(f"{name} {key} {_fmt(value)} {units[key]}" + (f"  ({base})" if base else ""))
    print(f"{name} traced round: {tr['spans']} spans, {tr['traced_attempted']} operations")
    for problem in tr["traced_problems"]:
        print(f"{name} traced FAILED {problem}")
    for problem in tr["self_check"]:
        print(f"{name} SELF-CHECK {problem}")
    print(f"{name} coverage self-check {'failed' if tr['self_check'] else 'passed'}")
    return {k: {"value": v, "unit": units[k]} for k, v in tr["layers"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="oqwalk benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oqwalk" / "__init__.py").is_file():
        print("error: run from the root of an oqwalk checkout (src/oqwalk is missing)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, data in results.items():
        shown = report(name, data, bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in shown.items()})
    correct = all(d["incorrect"] == 0 and not (args.trace and (
        d["trace"]["self_check"] or d["trace"]["traced_incorrect"])) for d in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["attempted"] for d in results.values()),
        "failed": sum(d["failed"] for d in results.values()),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
