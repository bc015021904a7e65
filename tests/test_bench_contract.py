"""What the benchmark in ``perfbench/`` uses of the package stays in place.

The benchmark traces entry points by owner and attribute name and calls the
exact oracles positionally; renaming or re-signing any of them would break
its runs, not these tests' package.
"""
import inspect
import sys
from pathlib import Path

import numpy as np

import oqwalk.trajectories
from oqwalk import batch_statistics, builtin, exact_distribution, mgf_check
from oqwalk.rng import unit_draws_array
from oqwalk.trajectories import _engine

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_entry_point_resolves_to_a_callable():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    targets = workloads.trace_targets()
    assert targets
    for owner, name, span, _ in targets:
        assert callable(getattr(owner, name, None)), span


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
