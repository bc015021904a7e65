"""Operation ledger and the correctness checks the workloads apply.

Every timed operation goes through :meth:`Ledger.op`.  An operation counts as
*failed* when it raises, or when one of its checks reports a problem.  Checks
come in two kinds:

* ``outcome`` problems: the program did not deliver its documented outcome
  (a crash, a traceback, an undocumented exit code);
* ``value`` problems: the program delivered an answer and the answer is wrong.

Both count against ``failed``; only value problems make a run incorrect.
Each check returns a list of problem strings, empty when it passes.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict


class Ledger:
    """Counts operations, failures and per-key wall times of one run."""

    def __init__(self, probe=None):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        # With a reference probe (see probe.py), each operation is bracketed
        # by probe runs and ``normalized`` sums op time / mean bracket time.
        self.probe = probe
        self.probes: list[float] = []
        self.probe_s = 0.0
        self.normalized = 0.0

    def op(self, key: str, fn, verify=None, outcome=None):
        """Time ``fn()``, then apply ``outcome`` and ``verify`` to its result.

        Returns the result, or None when ``fn`` raised.
        """
        self.attempted += 1
        if self.probe and not self.probes:
            self._run_probe()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a crash is a failed operation, not a harness error
            self._timed(key, time.perf_counter() - t0)
            self.failed += 1
            self.problems.append(f"{key}: raised {type(exc).__name__}: {exc}")
            return None
        self._timed(key, time.perf_counter() - t0)
        crashes = outcome(result) if outcome else []
        wrong = verify(result) if verify else []
        if crashes or wrong:
            self.failed += 1
            self.incorrect += bool(wrong)
            self.problems.extend(f"{key}: {p}" for p in crashes + wrong)
        return result

    def _run_probe(self) -> float:
        t0 = time.perf_counter()
        self.probes.append(self.probe())
        self.probe_s += time.perf_counter() - t0
        return self.probes[-1]

    def _timed(self, key: str, seconds: float) -> None:
        self.times[key].append(seconds)
        if self.probe:
            before = self.probes[-1]
            self.normalized += seconds / ((before + self._run_probe()) / 2)


def close(label: str, value: float, expected: float, tol: float) -> list[str]:
    """|value - expected| <= tol (NaN never passes)."""
    if not abs(value - expected) <= tol:
        return [f"{label} = {value!r}, expected {expected!r} within {tol:g}"]
    return []


def at_most(label: str, value: float, limit: float) -> list[str]:
    if not value <= limit:
        return [f"{label} = {value!r} exceeds {limit:g}"]
    return []


def rate_table(x, rate, drift: float, tol: float = 1e-8) -> list[str]:
    """A rate-function table is >= 0, convex on its equally spaced grid, 0 at the drift."""
    problems = []
    if not all(math.isfinite(r) for r in rate):
        problems.append(f"rate table has non-finite values {list(rate)}")
        return problems
    if min(rate) < -tol:
        problems.append(f"rate table dips to {min(rate)!r} < 0")
    second = [rate[i - 1] - 2 * rate[i] + rate[i + 1] for i in range(1, len(rate) - 1)]
    if second and min(second) < -tol * max(1.0, max(abs(r) for r in rate)):
        problems.append(f"rate table is not convex (second difference {min(second)!r})")
    at_drift = [r for xi, r in zip(x, rate) if abs(xi - drift) <= 1e-12]
    if not at_drift:
        problems.append(f"rate grid misses the drift {drift!r}")
    else:
        problems += close("rate at the drift", at_drift[0], 0.0, tol)
    return problems


def dkw_epsilon(n: int, alpha: float) -> float:
    """Smallest eps with 2 exp(-2 n eps^2) <= alpha (Dvoretzky-Kiefer-Wolfowitz-Massart)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def clt_batch(mean_z: float, ks: float, n_traj: int, n_steps: int, variance: float,
              alpha: float = 1e-6) -> list[str]:
    """Standardized endpoint mean and KS distance of a batch against N(0, 1).

    * mean: |mean| <= z_a / sqrt(N) with z_a = 5 (two-sided Gaussian false
      alarm 5.7e-7);
    * KS: DKW bounds the sampling part by eps with false alarm ``alpha``; the
      gap between the exact P-step law and the Gaussian is allowed one lattice
      atom, 2 / sqrt(2 pi P variance) (nearest-neighbour steps keep parity).
    """
    problems = at_most("|standardized mean|", abs(mean_z), 5.0 / math.sqrt(n_traj))
    atom = 2.0 / math.sqrt(2 * math.pi * n_steps * variance)
    problems += at_most("KS distance", ks, dkw_epsilon(n_traj, alpha) + atom)
    return problems
