"""One benchmark workload in its own interpreter.

Started by ``perfbench/run.py`` with ``PYTHONPATH=src`` and the BLAS thread
pools pinned to one thread.  The process loads its models from the generated
documents (``load``), warms up, then runs the workload's fixed round of
operations, closed loop with one caller, until ``--seconds`` have passed.
With ``--trace 1`` it then loads and runs one more round with every public
entry point of the package wrapped (see ``spans.py``) and derives the
per-layer metrics from the recorded spans.  Results go to ``--result`` as
JSON; ``--setup-only`` stops after the warm-up, so the caller can time set-up
on its own.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import oqwalk
import oqwalk.cli
from oqwalk import (
    asymptotic_stats,
    batch_statistics,
    bn_decomposition,
    builtin,
    derive_seed,
    exact_distribution,
    is_irreducible_L,
    is_irreducible_M,
    is_regular,
    lambda_curve,
    load_model,
    mgf_check,
    period,
    rate_function,
    sample_trajectory,
    validate_model,
)

import spans
from checks import Ledger, at_most, clt_batch, close, rate_table
from probe import reference_probe

# Per-layer metrics of the traced run: name -> unit.  BENCHMARK.json lists
# the same names.
LAYER_METRICS = {
    "import.oqwalk_s": "s",
    "import.scipy_s": "s",
    "cli.main_s": "s",
    "cli.startup_share": "ratio",
    "model.load_model.calls": "count",
    "model.load_model.s": "s",
    "model.validate_model.calls": "count",
    "model.validate_model.s": "s",
    "numerics.eigendecompose.calls": "count",
    "numerics.eigendecompose.s": "s",
    "numerics.solve_on_traceless.calls": "count",
    "numerics.solve_on_traceless.s": "s",
    "numerics.psd_check.calls": "count",
    "numerics.project_to_state.calls": "count",
    "linalg.eig.calls": "count",
    "linalg.eig.s": "s",
    "linalg.eigvals.calls": "count",
    "linalg.eigvals.s": "s",
    "superop.weighted_superop.calls": "count",
    "superop.weighted_superop.s": "s",
    "superop.spectral_radius.calls": "count",
    "superop.spectral_radius.s": "s",
    "superop.perron.calls": "count",
    "superop.perron.s": "s",
    "superop.apply_M.calls": "count",
    "superop.apply_M.s": "s",
    "superop.power_apply.calls": "count",
    "superop.power_apply.s": "s",
    "structure.is_irreducible_L.s": "s",
    "structure.period.s": "s",
    "structure.is_regular.s": "s",
    "structure.bn_decomposition.s": "s",
    "structure.is_irreducible_M.s": "s",
    "asymptotics.asymptotic_stats.s": "s",
    "asymptotics.lambda_curve.s": "s",
    "asymptotics.rate_function.s": "s",
    "asymptotics.log_lambda.calls": "count",
    "asymptotics.radius_solves_per_grid_point": "count",
    "trajectories.batch_statistics.s": "s",
    "trajectories.engine_ns_per_traj_step": "ns",
    "trajectories.engine_other_ns_per_traj_step": "ns",
    "trajectories.sample_trajectory.ns_per_step": "ns",
    "trajectories.exact_distribution.s": "s",
    "trajectories.mgf_check.s": "s",
    "trajectories.state_bytes": "B",
    "rng.unit_draws_array.calls": "count",
    "rng.unit_draws_array.ns_per_draw": "ns",
    "rng.derive_seeds.s": "s",
    "cli.self_s": "s",
    "model.self_s": "s",
    "numerics.self_s": "s",
    "linalg.self_s": "s",
    "superop.self_s": "s",
    "structure.self_s": "s",
    "asymptotics.self_s": "s",
    "trajectories.self_s": "s",
    "rng.self_s": "s",
    "trace.overhead_s": "s",
}

def trace_targets():
    """(owner, attribute, span name, amount) for every traced entry point."""
    from oqwalk import model, numerics, rng, structure, superop, trajectories, asymptotics
    targets = [(np.linalg, f, f"linalg.{f}", None) for f in ("eig", "eigvals")]
    for module, names in (
        (model, ("load_model", "validate_model")),
        (numerics, ("eigendecompose", "solve_on_traceless", "psd_check",
                    "project_to_state")),
        (superop, ("weighted_superop", "spectral_radius", "perron", "apply_M")),
        (structure, ("is_irreducible_L", "period", "is_regular",
                     "bn_decomposition", "is_irreducible_M")),
        (asymptotics, ("asymptotic_stats", "rate_function", "log_lambda")),
        (trajectories, ("exact_distribution", "mgf_check")),
        (rng, ("derive_seeds",)),
    ):
        layer = module.__name__.rsplit(".", 1)[1]
        targets += [(module, f, f"{layer}.{f}", None) for f in names]
    targets += [
        (superop.Superoperator, "power_apply", "superop.power_apply", None),
        (asymptotics, "lambda_curve", "asymptotics.lambda_curve",
         lambda model, parameters, *a, **k: len(parameters)),
        (trajectories, "batch_statistics", "trajectories.batch_statistics",
         lambda model, n_steps, n_traj, *a, **k: n_traj * model.internal_dim**2 * 16),
        (trajectories, "sample_trajectory", "trajectories.sample_trajectory",
         lambda model, n_steps, *a, **k: n_steps),
        (trajectories, "_engine", "trajectories.engine",
         lambda model, state, n_steps, seeds, record: len(seeds) * n_steps),
        (rng, "unit_draws_array", "rng.unit_draws_array",
         lambda seeds, k: len(seeds)),
        (oqwalk.cli, "main", "cli.main", None),
    ]
    return targets


def layer_metrics(recorded) -> tuple[dict, dict]:
    """Per-layer metrics from spans, plus the bases of the derived ratios."""
    tot = spans.totals(recorded)
    zero = {"calls": 0, "s": 0.0, "amount": 0}
    get = lambda name: tot.get(name, zero)  # noqa: E731
    m = {}
    self_s = spans.layer_self_times(recorded)
    for name in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s"):  # "<layer>.<function>.calls" / ".s"
            m[name] = get(span)[field]
        elif field == "self_s":
            m[name] = self_s.get(span, 0.0)

    idx = range(len(recorded))
    name_of = lambda i: recorded[i][spans.NAME]  # noqa: E731
    dur = lambda i: recorded[i][spans.END] - recorded[i][spans.START]  # noqa: E731
    in_curve = sum(1 for i in idx if name_of(i) == "superop.spectral_radius"
                   and spans.within(recorded, i, "asymptotics.lambda_curve"))
    grid = get("asymptotics.lambda_curve")["amount"]
    engines = [i for i in idx if name_of(i) == "trajectories.engine"
               and spans.within(recorded, i, "trajectories.batch_statistics")]
    traj_steps = sum(recorded[i][spans.AMOUNT] for i in engines)
    engine_s = sum(dur(i) for i in engines)
    draws_s = sum(dur(i) for i in idx if name_of(i) == "rng.unit_draws_array"
                  and spans.within(recorded, i, "trajectories.batch_statistics"))
    mains = [dur(i) for i in idx if name_of(i) == "cli.main"]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    single = get("trajectories.sample_trajectory")
    draws = get("rng.unit_draws_array")
    m.update({
        "cli.main_s": statistics.median(mains) if mains else 0.0,
        "asymptotics.radius_solves_per_grid_point": ratio(in_curve, grid),
        "trajectories.engine_ns_per_traj_step": ratio(engine_s * 1e9, traj_steps),
        "trajectories.engine_other_ns_per_traj_step":
            ratio((engine_s - draws_s) * 1e9, traj_steps),
        "trajectories.sample_trajectory.ns_per_step":
            ratio(single["s"] * 1e9, single["amount"]),
        "trajectories.state_bytes": max(
            (recorded[i][spans.AMOUNT] for i in idx
             if name_of(i) == "trajectories.batch_statistics"), default=0),
        "rng.unit_draws_array.ns_per_draw": ratio(draws["s"] * 1e9, draws["amount"]),
    })
    bases = {
        "asymptotics.radius_solves_per_grid_point":
            f"{in_curve} spectral_radius calls inside lambda_curve / {grid} grid points "
            f"over {get('asymptotics.lambda_curve')['calls']} curves",
        "trajectories.engine_ns_per_traj_step":
            f"{engine_s:.6f} s over {traj_steps} traj-steps in batch engines",
        "trajectories.state_bytes": "N * n^2 * 16 of the largest batch, computed "
                                    "from the call arguments, not measured",
        "rng.unit_draws_array.ns_per_draw": f"{draws['s']:.6f} s over {draws['amount']} draws",
    }
    return m, bases


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------------
# Workloads.
# --------------------------------------------------------------------------

class Workload:
    """A fixed round of operations on models loaded from generated documents."""

    # Per-layer metrics that must be nonzero in this workload's traced run.
    assigned: tuple[str, ...] = ()

    def __init__(self, docs: Path, seed: int):
        self.docs = docs
        self.seed = seed

    def load(self) -> None:
        """Build or load the models the round needs."""

    def warm_up(self) -> None:
        """Untimed first touch of every code path of the round."""

    def round(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def traced_round(self, ledger: Ledger) -> None:
        self.round(ledger)

    def untraced_reference(self, rounds: list[float]) -> float:
        """Untraced wall time of what ``traced_round`` runs."""
        return _median(rounds)

    def detail(self, ledger: Ledger) -> dict:
        """Workload-specific end-to-end metrics: name -> [value, unit, note]."""
        return {}


_COMMON_ASSIGNED = ("import.oqwalk_s", "import.scipy_s", "model.validate_model.calls")

# Expected answers for the bundled models, from the closed forms in the
# package's reference tests.
_EXPECTED = {
    "std_example": {"irreducible": True, "period": 1, "drift": 0.0, "variance": 8 / 9},
    "periodic_example": {"irreducible": True, "period": 2, "drift": 0.25, "variance": 7 / 8},
    "breakdown_example": {"irreducible": False, "kink": math.log(2) / 2,
                          "upper_bound_only": True},
    "n4": {"irreducible": True, "period": 1, "kinks": 0, "upper_bound_only": False},
    "n8": {"irreducible": True, "period": 1, "kinks": 0, "upper_bound_only": False},
}


def structural_report(model) -> dict:
    """The structural part of ``oqwalk analyze``: validity, irreducibility,
    period and regularity, recurrent split, lattice irreducibility."""
    report = {"valid": validate_model(model).is_valid}
    irr = is_irreducible_L(model)
    report["irreducible"] = bool(irr.irreducible)
    if irr.irreducible:
        report["period"] = period(model).period
        report["regular"] = bool(is_regular(model).regular)
    report["recurrent_dimension"] = bn_decomposition(model).recurrent_dimension
    report["lattice_verdict"] = is_irreducible_M(model).verdict
    return report


class Spectral(Workload):
    """Full analysis of each model: structure, drift/covariance, tilted curve, rate table."""

    assigned = _COMMON_ASSIGNED + (
        "model.load_model.calls",
        "numerics.eigendecompose.calls", "numerics.solve_on_traceless.calls",
        "numerics.psd_check.calls", "numerics.project_to_state.calls",
        "linalg.eig.calls", "linalg.eigvals.calls",
        "superop.weighted_superop.calls", "superop.spectral_radius.calls",
        "superop.perron.calls",
        "structure.is_irreducible_L.s", "structure.period.s", "structure.is_regular.s",
        "structure.bn_decomposition.s", "structure.is_irreducible_M.s",
        "asymptotics.asymptotic_stats.s", "asymptotics.lambda_curve.s",
        "asymptotics.rate_function.s", "asymptotics.log_lambda.calls",
        "asymptotics.radius_solves_per_grid_point",
    )
    # (tilt grid, rate-table velocities as offsets from the drift) per model.
    # One radius solve at n = 8 (a 64 x 64 superoperator) takes about 4 ms,
    # so a 41-point curve there is a single 8 s call and the rate table
    # another 9 s; the n = 8 model uses 5 grid points and 3 velocities, which
    # keeps every call near a second, short enough for the reference probes
    # around it to follow the machine's speed.
    FINE = (np.linspace(-4.0, 4.0, 41), np.linspace(-0.2, 0.2, 5))
    COARSE = (np.linspace(-4.0, 4.0, 5), np.linspace(-0.2, 0.2, 3))

    def load(self):
        models = [(name, builtin(name)) for name in
                  ("std_example", "periodic_example", "breakdown_example")]
        models += [(name, load_model(self.docs / f"{name}.json")) for name in ("n4", "n8")]
        self.models = [(label, model, *(self.COARSE if model.internal_dim > 4 else self.FINE))
                       for label, model in models]

    def warm_up(self):
        model = self.models[0][1]
        structural_report(model)
        asymptotic_stats(model)
        lambda_curve(model, np.linspace(-1.0, 1.0, 5))

    def round(self, ledger):
        for label, model, grid, offsets in self.models:
            want = _EXPECTED[label]
            t0, probe0 = time.perf_counter(), ledger.probe_s
            ledger.op(f"{label}.structure", lambda: structural_report(model),
                      verify=lambda r: self._structure_problems(r, want))
            stats = ledger.op(f"{label}.asymptotic_stats", lambda: asymptotic_stats(model),
                              verify=lambda s: self._stats_problems(s, want))
            ledger.op(f"{label}.lambda_curve", lambda: lambda_curve(model, grid),
                      verify=lambda c: self._curve_problems(c, want))
            drift = float(stats.mean[0]) if stats is not None else 0.0
            xs = drift + offsets
            ledger.op(f"{label}.rate_function",
                      lambda: rate_function(model, xs, points=len(grid)),
                      verify=lambda r: self._rate_problems(r, drift, want))
            ledger.times[f"analysis.n{model.internal_dim}"].append(
                time.perf_counter() - t0 - (ledger.probe_s - probe0))

    @staticmethod
    def _structure_problems(report, want):
        problems = [] if report["valid"] else ["model reported invalid"]
        if report["irreducible"] != want["irreducible"]:
            problems.append(f"irreducible = {report['irreducible']}")
        if "period" in want and report.get("period") != want["period"]:
            problems.append(f"period = {report.get('period')}, expected {want['period']}")
        return problems

    @staticmethod
    def _stats_problems(stats, want):
        problems = at_most("covariance route gap", stats.route_gap, 1e-9)
        if "drift" in want:
            problems += close("drift", float(stats.mean[0]), want["drift"], 1e-9)
            problems += close("variance", float(stats.covariance[0, 0]), want["variance"], 1e-9)
        return problems

    @staticmethod
    def _curve_problems(curve, want):
        kinks = [k.u for k in curve.kinks]
        if "kink" in want:
            if len(kinks) != 1:
                return [f"kinks at {kinks}, expected one at {want['kink']!r}"]
            return close("kink location", kinks[0], want["kink"], 1e-6)
        if len(kinks) != want.get("kinks", 0):
            return [f"unexpected kinks at {kinks}"]
        return []

    @staticmethod
    def _rate_problems(table, drift, want):
        problems = rate_table(list(table.x_grid), list(table.rate), drift)
        if table.upper_bound_only != want.get("upper_bound_only", False):
            problems.append(f"upper_bound_only = {table.upper_bound_only}")
        return problems

    def detail(self, ledger):
        out = {}
        for n in (2, 4, 8):
            grid, offsets = self.COARSE if n > 4 else self.FINE
            times = ledger.times[f"analysis.n{n}"]
            out[f"analysis_s.n{n}"] = [
                _median(times), "s",
                f"{len(grid)}-point curve, {len(offsets)}-point rate table, "
                f"median of {len(times)}"]
        return out


class Sampler(Workload):
    """Wide seeded batches; drift and covariance are computed in set-up and passed in."""

    assigned = _COMMON_ASSIGNED + (
        "model.load_model.calls",
        "trajectories.batch_statistics.s", "trajectories.engine_ns_per_traj_step",
        "trajectories.engine_other_ns_per_traj_step", "trajectories.state_bytes",
        "rng.unit_draws_array.calls", "rng.unit_draws_array.ns_per_draw",
        "rng.derive_seeds.s",
    )
    # (label, trajectories N, steps P).  At n = 8 the state array N n^2 16 B
    # is 2.25 MiB, above a 2 MiB L2; at n = 2 it is 128 KiB.  The engine's
    # cost per traj-step does not depend on P, so P is kept short enough
    # (under a second per batch) for the reference probes around each batch
    # to follow the machine's speed; each round runs every batch from
    # ROOTS_PER_ROUND root seeds.
    BATCHES = (("n2", 2048, 125), ("n8", 2304, 125))
    ROOTS_PER_ROUND = 3

    def load(self):
        models = {"n2": builtin("std_example"), "n8": load_model(self.docs / "n8.json")}
        self.batches = []
        for label, n_traj, n_steps in self.BATCHES:
            model = models[label]
            stats = asymptotic_stats(model)
            self.batches.append((label, model, n_traj, n_steps, stats.mean, stats.covariance))

    def warm_up(self):
        # Full-width batches, so the allocator has grown to the round's arrays.
        for _, model, n_traj, _, mean, cov in self.batches:
            batch_statistics(model, 20, n_traj, self.seed, mean=mean, covariance=cov)

    def round(self, ledger):
        for j in range(self.ROOTS_PER_ROUND):
            root = derive_seed(self.seed, j)
            for label, model, n_traj, n_steps, mean, cov in self.batches:
                ledger.op(
                    f"batch.{label}",
                    lambda: batch_statistics(model, n_steps, n_traj, root,
                                             mean=mean, covariance=cov),
                    verify=lambda b: clt_batch(float(b.mean_standardized[0]), b.ks_distance,
                                               n_traj, n_steps, float(cov[0, 0])),
                )

    def detail(self, ledger):
        out = {}
        for label, _, n_traj, n_steps, _, _ in self.batches:
            t = _median(ledger.times[f"batch.{label}"])
            out[f"traj_steps_per_s.{label}"] = [
                n_traj * n_steps / t if t else 0.0, "1/s",
                f"N={n_traj} P={n_steps}, median of {len(ledger.times[f'batch.{label}'])}"]
        return out


class OracleReplay(Workload):
    """Exact path-sum oracles near the path budget, single trajectories, row replay."""

    assigned = _COMMON_ASSIGNED + (
        "model.load_model.calls",
        "superop.apply_M.calls", "superop.power_apply.calls",
        "trajectories.exact_distribution.s", "trajectories.mgf_check.s",
        "trajectories.sample_trajectory.ns_per_step",
        "rng.unit_draws_array.calls", "rng.derive_seeds.s",
    )
    HORIZON = 16          # 2^16 paths of the 2^20 budget
    TILT = 0.5
    LONG_STEPS = 5000     # one trajectory, N = 1
    REPLAY = (64, 400, (0, 17, 38, 63))  # batch N, P, replayed rows

    def load(self):
        self.oracle_models = [(name, builtin(name)) for name in ("std_example", "periodic_example")]
        self.n4 = load_model(self.docs / "n4.json")
        stats = asymptotic_stats(self.n4)
        self.n4_moments = (stats.mean, stats.covariance)
        self.rounds_run = 0

    def warm_up(self):
        model = self.oracle_models[0][1]
        exact_distribution(model, 4)
        mgf_check(model, [self.TILT], 4)
        sample_trajectory(model, 10, 1)

    def round(self, ledger):
        for label, model in self.oracle_models:
            ledger.op(f"exact.{label}", lambda: exact_distribution(model, self.HORIZON),
                      verify=lambda d: close("exact mass", sum(d.masses.values()), 1.0, 1e-10)
                      + at_most("tv_gap", d.tv_gap, 1e-10))
            ledger.op(f"mgf.{label}", lambda: mgf_check(model, [self.TILT], self.HORIZON),
                      verify=lambda r: at_most("mgf relative gap", r.relative_gap, 1e-10))
        std = self.oracle_models[0][1]
        stream = derive_seed(self.seed, self.rounds_run)
        self.rounds_run += 1
        ledger.op("single.std_example", lambda: sample_trajectory(std, self.LONG_STEPS, stream),
                  verify=self._walk_problems)

        n_traj, n_steps, rows = self.REPLAY
        mean, cov = self.n4_moments
        batch = ledger.op("replay.batch", lambda: batch_statistics(
            self.n4, n_steps, n_traj, self.seed, mean=mean, covariance=cov))
        for i in rows:
            ledger.op("replay.row",
                      lambda: sample_trajectory(self.n4, n_steps, derive_seed(self.seed, i)),
                      verify=lambda t: self._replay_problems(t, batch, i))

    def _walk_problems(self, traj):
        steps = np.diff(traj.positions[:, 0])
        if traj.positions.shape != (self.LONG_STEPS + 1, 1) or not np.all(np.abs(steps) == 1):
            return ["single trajectory is not a nearest-neighbour path of the requested length"]
        return []

    @staticmethod
    def _replay_problems(traj, batch, i):
        if batch is None:
            return ["no batch to replay"]
        if (traj.positions[0] != batch.initials[i]).any() or \
                (traj.positions[-1] != batch.finals[i]).any():
            return [f"row {i} replays to {traj.positions[-1]} != batch {batch.finals[i]}"]
        return []

    def detail(self, ledger):
        single = ledger.times["single.std_example"]
        exact = ledger.times["exact.std_example"] + ledger.times["exact.periodic_example"]
        mgf = ledger.times["mgf.std_example"] + ledger.times["mgf.periodic_example"]
        t = _median(single)
        return {
            "replay_steps_per_s": [self.LONG_STEPS / t if t else 0.0, "1/s",
                                   f"P={self.LONG_STEPS} N=1, median of {len(single)}"],
            "exact_law_s": [_median(exact), "s", f"p={self.HORIZON}, median of {len(exact)}"],
            "mgf_check_s": [_median(mgf), "s", f"p={self.HORIZON}, median of {len(mgf)}"],
        }


class CliSession(Workload):
    """A fixed sequence of ``oqwalk`` subprocess calls, normal and error paths."""

    assigned = _COMMON_ASSIGNED + ("cli.main_s", "cli.startup_share",
                                   "asymptotics.asymptotic_stats.s")
    SIM = ["-P", "200", "-N", "200"]

    def __init__(self, docs, seed):
        super().__init__(docs, seed)
        self.stdout_seen: dict[tuple, bytes] = {}
        self.first_round_walls: list[float] = []

    def load(self):
        d = self.docs
        std = ["--builtin", "std_example"]
        n4 = ["--model", str(d / "n4.json")]
        sim = self.SIM + ["--seed", str(self.seed)]
        self.calls = []
        for src in (std, n4):
            self.calls += [
                (["validate", *src], 0), (["analyze", *src], 0), (["asymptotics", *src], 0),
                (["rate", *src], 0), (["simulate", *src, *sim], 0),
                (["oracle-check", *src, "-P", "8"], 0),
            ]
        self.calls += [
            (["validate", "--model", str(d / "malformed.json")], 2),
            (["validate", "--model", str(d / "nonstochastic.json")], 3),
            (["analyze", "--model", str(d / "n9.json")], 3),
            (["simulate", "--model", str(d / "n9.json"), *sim], 3),
            (["validate", *std], 0),  # repeat of the first call: stdout must not change
        ]

    @staticmethod
    def _subprocess(argv):
        proc = subprocess.run([sys.executable, "-m", "oqwalk.cli", *argv],
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr.decode()

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = oqwalk.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue().encode(), err.getvalue()

    def warm_up(self):
        self._subprocess(self.calls[0][0])

    @staticmethod
    def _outcome(expected, result):
        code, _, err = result
        problems = [] if code == expected else [f"exit {code}, documented {expected}"]
        if "Traceback" in err:
            problems.append("traceback on stderr: " + err.strip().splitlines()[-1])
        return problems

    def _same_stdout(self, argv, result):
        first = self.stdout_seen.setdefault(tuple(argv), result[1])
        return [] if first == result[1] else ["stdout differs from an earlier identical call"]

    def _session(self, ledger, key, run):
        for argv, expected in self.calls:
            ledger.op(key, lambda: run(argv),
                      outcome=lambda r: self._outcome(expected, r),
                      verify=lambda r: self._same_stdout(argv, r))

    def round(self, ledger):
        self._session(ledger, "call", self._subprocess)
        if not self.first_round_walls:
            self.first_round_walls = ledger.times["call"][-len(self.calls):]

    def traced_round(self, ledger):
        # In process, so that spans reach from cli.main down; stdout must
        # match the subprocess calls byte for byte.
        self._session(ledger, "in_process", self._in_process)

    def untraced_reference(self, rounds):
        t0 = time.perf_counter()
        self.traced_round(Ledger())
        return time.perf_counter() - t0

    def repeat_digest(self) -> str:
        return hashlib.sha256(self.stdout_seen[tuple(self.calls[-1][0])]).hexdigest()

    def detail(self, ledger):
        calls = ledger.times["call"]
        return {"cli_call_p50_s": [_median(calls), "s", f"median of {len(calls)} calls"]}


WORKLOADS = {
    "cli_session": CliSession,
    "spectral": Spectral,
    "sampler": Sampler,
    "oracle_replay": OracleReplay,
}


# --------------------------------------------------------------------------
# Traced run.
# --------------------------------------------------------------------------

def _median_wall(argv, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=120)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def import_metrics() -> dict:
    """``import oqwalk`` minus a bare interpreter, and the scipy share from -X importtime."""
    bare = _median_wall([sys.executable, "-c", "pass"], 5)
    full = _median_wall([sys.executable, "-c", "import oqwalk"], 5)
    shares = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oqwalk"],
                              check=True, capture_output=True, text=True, timeout=120)
        shares.append(scipy_import_s(proc.stderr))
    return {"import.oqwalk_s": full - bare, "import.scipy_s": statistics.median(shares)}


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the scipy modules that a non-scipy module imported.

    ``-X importtime`` prints each module after its imports, indented two
    spaces per level, so a line's importer is the next line indented less.
    """
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            label = parts[2].rstrip()
            rows.append((len(label) - len(label.lstrip()), label.strip(), int(parts[1])))
    is_scipy = lambda name: name.split(".")[0] == "scipy"  # noqa: E731
    total_us = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if not is_scipy(name):
            continue
        importer = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if not is_scipy(importer):
            total_us += cumulative
    return total_us / 1e6


def traced_run(workload: Workload, rounds: list[float], spans_path: Path) -> dict:
    reference = workload.untraced_reference(rounds)
    tracer = spans.Tracer()
    spans.install(tracer, trace_targets(),
                  spans.package_modules("oqwalk") + [sys.modules[__name__]])
    ledger = Ledger()
    workload.load()
    t0 = time.perf_counter()
    workload.traced_round(ledger)
    traced_wall = time.perf_counter() - t0
    tracer.write(spans_path)

    metrics, bases = layer_metrics(tracer.spans)
    metrics.update(import_metrics())
    if isinstance(workload, CliSession):
        walls = sum(workload.first_round_walls)
        mains = sum(s[spans.END] - s[spans.START] for s in tracer.spans
                    if s[spans.NAME] == "cli.main")
        metrics["cli.startup_share"] = 1.0 - mains / walls if walls else 0.0
        bases["cli.startup_share"] = (f"1 - {mains:.3f} s in-process main / "
                                      f"{walls:.3f} s subprocess wall over "
                                      f"{len(workload.calls)} calls")
    else:
        metrics["cli.startup_share"] = 0.0
    metrics["trace.overhead_s"] = traced_wall - reference
    bases["trace.overhead_s"] = (f"traced round {traced_wall:.4f} s - untraced "
                                 f"{reference:.4f} s")

    problems = []
    if metrics["linalg.eigvals.calls"] != metrics["superop.spectral_radius.calls"]:
        problems.append("coverage: linalg.eigvals.calls != superop.spectral_radius.calls")
    problems += [f"coverage: {name} is 0 on this workload"
                 for name in workload.assigned if not metrics[name]]
    return {
        "layers": {k: metrics[k] for k in LAYER_METRICS},
        "units": LAYER_METRICS,
        "bases": bases,
        "self_check": problems,
        "traced_attempted": ledger.attempted,
        "traced_incorrect": ledger.incorrect,
        "traced_problems": ledger.problems,
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--docs", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.docs, args.seed)
    workload.load()
    workload.warm_up()
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        ledger = Ledger(probe=reference_probe)
        rounds, rounds_norm = [], []
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < args.seconds:
            t0, probe0, norm0 = time.perf_counter(), ledger.probe_s, ledger.normalized
            workload.round(ledger)
            rounds.append(time.perf_counter() - t0 - (ledger.probe_s - probe0))
            rounds_norm.append(ledger.normalized - norm0)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update({
            "rounds": rounds,
            "rounds_norm": rounds_norm,
            "probe_s": statistics.median(ledger.probes),
            "probes": len(ledger.probes),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "incorrect": ledger.incorrect,
            "problems": ledger.problems,
            "detail": workload.detail(ledger),
            "peak_rss_mb": rss_kb / 1024.0,
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        })
        if isinstance(workload, CliSession):
            result["repeat_sha256"] = workload.repeat_digest()
        if args.trace:
            result["trace"] = traced_run(workload, rounds, args.spans)
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
