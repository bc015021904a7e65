"""Tests of the benchmark code itself: generator, span arithmetic, checks.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import docs  # noqa: E402
import spans  # noqa: E402


# -- generator ------------------------------------------------------------------

def test_generator_is_deterministic_in_the_seed():
    assert docs.generate(7) == docs.generate(7)
    other = docs.generate(8)
    assert all(docs.generate(7)[name] != other[name] for name in docs.DOCUMENTS)


def _operators(text):
    doc = json.loads(text)
    return doc["internal_dim"], np.array([
        [[z["re"] + 1j * z["im"] for z in row] for row in step["matrix"]]
        for step in doc["steps"]
    ])


@pytest.mark.parametrize("name, n", [("n4.json", 4), ("n8.json", 8), ("n9.json", 9)])
def test_generated_models_are_stochastic_isometries(name, n):
    dim, ops = _operators(docs.generate(3)[name])
    assert dim == n and ops.shape == (2, n, n)
    gram = sum(op.conj().T @ op for op in ops)
    assert np.abs(gram - np.eye(n)).max() < 1e-12


def test_generated_error_documents_are_broken_as_documented():
    generated = docs.generate(3)
    with pytest.raises(json.JSONDecodeError):
        json.loads(generated["malformed.json"])
    n, ops = _operators(generated["nonstochastic.json"])
    gram = sum(op.conj().T @ op for op in ops)
    assert np.linalg.norm(gram - np.eye(n)) > 1e-3


def test_write_puts_every_document_on_disk(tmp_path):
    docs.write(5, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(docs.DOCUMENTS)


# -- spans ----------------------------------------------------------------------

def test_self_time_is_duration_minus_child_coverage():
    recorded = [
        ["a.root", 0.0, 10.0, -1, 0],
        ["b.child", 1.0, 3.0, 0, 0],
        ["b.child", 2.0, 5.0, 0, 0],      # overlaps the first child: union is [1, 5]
        ["c.grandchild", 2.5, 4.5, 2, 0],  # covers its parent, not the root
        ["b.child", 8.0, 12.0, 0, 0],     # clipped to the root's end
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 1.0, 2.0, 4.0])
    assert spans.layer_self_times(recorded) == pytest.approx({"a": 4.0, "b": 7.0, "c": 2.0})


def test_totals_and_ancestry():
    recorded = [
        ["x.outer", 0.0, 4.0, -1, 3],
        ["y.inner", 1.0, 2.0, 0, 5],
        ["y.inner", 5.0, 6.0, -1, 7],
    ]
    tot = spans.totals(recorded)
    assert tot["y.inner"] == {"calls": 2, "s": 2.0, "amount": 12}
    assert spans.within(recorded, 1, "x.outer") and not spans.within(recorded, 2, "x.outer")


def test_install_traces_import_bound_aliases():
    def leaf(x):
        return x + 1

    defining = types.ModuleType("fakepkg.defining")
    defining.leaf = leaf
    caller = types.ModuleType("fakepkg.caller")
    caller.renamed = leaf
    caller.run = lambda x: caller.renamed(x) * 2

    tracer = spans.Tracer()
    replaced = spans.install(
        tracer,
        [(defining, "leaf", "fake.leaf", lambda x: x),
         (caller, "run", "fake.run", None)],
        [defining, caller],
    )
    assert replaced == 3  # both owners, plus the alias caller.renamed
    assert caller.run(3) == 8 and defining.leaf(1) == 2
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["fake.run", "fake.leaf", "fake.leaf"]
    assert tracer.spans[1][spans.PARENT] == 0 and tracer.spans[2][spans.PARENT] == -1
    assert tracer.spans[1][spans.AMOUNT] == 3


# -- checks ---------------------------------------------------------------------

def test_a_wrong_value_is_a_failed_incorrect_operation():
    ledger = checks.Ledger()
    ledger.op("drift.right", lambda: 0.25, verify=lambda v: checks.close("drift", v, 0.25, 1e-9))
    ledger.op("drift.wrong", lambda: 0.26, verify=lambda v: checks.close("drift", v, 0.25, 1e-9))
    assert (ledger.attempted, ledger.failed, ledger.incorrect) == (2, 1, 1)
    assert ledger.problems[0].startswith("drift.wrong: drift = 0.26")


def test_a_crash_or_bad_exit_fails_without_making_the_run_incorrect():
    ledger = checks.Ledger()
    ledger.op("boom", lambda: 1 / 0)
    ledger.op("exit", lambda: 1, outcome=lambda code: [] if code == 3 else ["exit 1"])
    assert (ledger.attempted, ledger.failed, ledger.incorrect) == (2, 2, 0)
    assert len(ledger.times["boom"]) == 1


def test_probe_brackets_normalize_each_operation():
    probes = iter([2.0, 4.0, 6.0])
    ledger = checks.Ledger(probe=lambda: next(probes))
    ledger.op("a", lambda: None)
    ledger.op("b", lambda: None)
    t_a, t_b = ledger.times["a"][0], ledger.times["b"][0]
    assert ledger.probes == [2.0, 4.0, 6.0]
    assert ledger.normalized == pytest.approx(t_a / 3.0 + t_b / 5.0)


def test_nan_never_passes():
    assert checks.close("x", float("nan"), 0.0, 1.0)
    assert checks.at_most("x", float("nan"), 1.0)


def test_rate_table_checks():
    x = [-0.2, -0.1, 0.0, 0.1, 0.2]
    assert checks.rate_table(x, [0.04, 0.01, 0.0, 0.01, 0.04], 0.0) == []
    assert checks.rate_table(x, [0.04, 0.01, 0.0, 0.01, 0.04], 0.1)  # 0.01 at the drift
    assert checks.rate_table(x, [0.04, 0.03, 0.0, 0.03, 0.04], 0.0)  # not convex
    assert checks.rate_table(x, [0.04, 0.01, -1e-3, 0.01, 0.04], 0.0)  # negative


def test_clt_batch_bounds():
    n, p = 4096, 1000
    assert checks.dkw_epsilon(n, 1e-6) == pytest.approx(np.sqrt(np.log(2e6) / (2 * n)))
    assert checks.clt_batch(0.01, 0.02, n, p, 8 / 9) == []
    assert checks.clt_batch(0.2, 0.02, n, p, 8 / 9)   # mean 12.8 standard errors off
    assert checks.clt_batch(0.01, 0.3, n, p, 8 / 9)   # KS far above eps + one atom


def test_spectral_checks_flag_a_wrong_variance():
    workloads = pytest.importorskip("workloads")
    want = {"drift": 0.0, "variance": 8 / 9}
    good = types.SimpleNamespace(route_gap=0.0, mean=np.array([0.0]),
                                 covariance=np.array([[8 / 9]]))
    bad = types.SimpleNamespace(route_gap=0.0, mean=np.array([0.0]),
                                covariance=np.array([[0.9]]))
    assert workloads.Spectral._stats_problems(good, want) == []
    assert workloads.Spectral._stats_problems(bad, want)


# -- traced-run bookkeeping -------------------------------------------------------

def test_scipy_import_time_counts_top_level_scipy_imports_once():
    workloads = pytest.importorskip("workloads")
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       500 |        600 |     scipy.linalg",
        "import time:        50 |        650 |   oqwalk.numerics",
        "import time:       300 |        300 |   scipy.special",
        "import time:        10 |        960 | oqwalk",
    ])
    assert workloads.scipy_import_s(text) == pytest.approx(900e-6)


def test_benchmark_json_lists_the_layer_metrics():
    workloads = pytest.importorskip("workloads")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == workloads.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
