"""What the benchmark in ``perfbench/`` uses of the package stays in place.

The benchmark traces entry points by owner and attribute name and calls the
exact oracles positionally; renaming or re-signing any of them would break
its runs, not these tests' package.
"""
import gc
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

import oqwalk.cli
import oqwalk.superop
import oqwalk.trajectories
from oqwalk import batch_statistics, builtin, exact_distribution, mgf_check, rate_function
from oqwalk.rng import unit_draws_array
from oqwalk.trajectories import _engine

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_module(name):
    """Import one of the benchmark's modules from ``perfbench/``."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_entry_point_resolves_to_a_callable():
    targets = bench_module("workloads").trace_targets()
    assert targets
    for owner, name, span, _ in targets:
        assert callable(getattr(owner, name, None)), span


def test_the_exact_law_reaches_the_traced_apply_M(monkeypatch):
    # oracle_replay's traced self-check needs superop.apply_M.calls > 0, so
    # the iterated-map route of the exact law must go through apply_M, as
    # the benchmark wraps it: in superop and under every name bound to it.
    spans = bench_module("spans")
    modules = spans.package_modules("oqwalk")
    original = oqwalk.superop.apply_M
    for module in modules:  # monkeypatch restores each binding install replaces
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, original)
    tracer = spans.Tracer()
    spans.install(tracer, [(oqwalk.superop, "apply_M", "superop.apply_M", None)], modules)
    exact_distribution(builtin("std_example"), 5)
    assert spans.totals(tracer.spans)["superop.apply_M"]["calls"] == 5


def test_a_reducible_rate_table_reaches_the_traced_perron(monkeypatch):
    # spectral's traced self-check needs superop.perron.calls > 0.  Grids and
    # irreducible tables take stacked extractions, so that count comes from
    # the lone block-Newton steps of a reducible table, which must go through
    # perron as the benchmark wraps it: in superop and under every name bound
    # to it.
    spans = bench_module("spans")
    modules = spans.package_modules("oqwalk")
    original = oqwalk.superop.perron
    for module in modules:  # monkeypatch restores each binding install replaces
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, original)
    tracer = spans.Tracer()
    spans.install(tracer, [(oqwalk.superop, "perron", "superop.perron", None)], modules)
    rate_function(builtin("breakdown_example"), [-0.5, 0.0, 0.5])
    assert spans.totals(tracer.spans)["superop.perron"]["calls"] > 0


def test_exact_oracles_run_positionally():
    model = builtin("std_example")
    dist = exact_distribution(model, 4)
    assert abs(sum(dist.masses.values()) - 1.0) <= 1e-10
    report = mgf_check(model, [0.5], 4)
    assert np.isfinite(report.relative_gap) and report.relative_gap <= 1e-10


def test_draw_amount_counts_every_draw_of_a_batch(monkeypatch):
    # rng.unit_draws_array.ns_per_draw divides by the summed len(seeds), so
    # a batch must pass one seed per draw: N (P + 1) in all.
    drawn = []

    def counting(seeds, k):
        drawn.append(len(seeds))
        return unit_draws_array(seeds, k)

    monkeypatch.setattr(oqwalk.trajectories, "unit_draws_array", counting)
    model = builtin("std_example")
    # (P, N, calls): draw 0, then one call per block of 2^14 // N steps
    for n_steps, n_traj, calls in ((37, 3000, 9), (300, 64, 3), (40, 1, 2),
                                   (3, 16384, 4)):
        drawn.clear()
        batch_statistics(model, n_steps, n_traj, 5, mean=[0.0], covariance=[[1.0]])
        assert sum(drawn) == n_traj * (n_steps + 1)
        assert len(drawn) == calls


def test_amount_lambdas_read_the_positional_parameters():
    # perfbench's amount lambdas take (model, state, n_steps, seeds, record)
    # and (seeds, k) positionally
    names = lambda fn: list(inspect.signature(fn).parameters)  # noqa: E731
    assert names(_engine) == ["model", "initial_state", "n_steps",
                              "stream_seeds", "record"]
    assert names(unit_draws_array) == ["seeds", "k"]


def test_only_the_program_freezes_the_import_heap(capsys):
    # perfbench's traced cli_session round calls main(argv) in one process,
    # 17 times; its collector must stay as it was.  The program (argv read
    # from sys.argv) freezes what the imports made.
    src = str(Path(oqwalk.cli.__file__).parents[1])
    program = (f"import gc, sys; sys.path.insert(0, {src!r}); import oqwalk.cli; "
               "before = gc.get_freeze_count(); "
               "sys.argv = ['oqwalk', 'validate', '--builtin', 'std_example']; "
               "code = oqwalk.cli.main(); "
               "print(before, gc.get_freeze_count(), code, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    before, after, code = map(int, proc.stderr.split())
    assert (before, code) == (0, 0) and after > 0
    frozen = gc.get_freeze_count()
    assert oqwalk.cli.main(["validate", "--builtin", "std_example"]) == 0
    assert gc.get_freeze_count() == frozen
