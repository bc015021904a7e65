"""What the benchmark in ``perfbench/`` uses of the package stays in place.

The benchmark traces entry points by owner and attribute name and calls the
exact oracles positionally; renaming or re-signing any of them would break
its runs, not these tests' package.
"""
import sys
from pathlib import Path

import numpy as np

from oqwalk import builtin, exact_distribution, mgf_check

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
