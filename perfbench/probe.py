"""Reference probe: a fixed kernel timed next to every measured operation.

On a shared virtual machine the speed of one core drifts with its
neighbours' load; on a 2-vCPU test VM a fixed 64 x 64 ``eigvals`` loop swung
between 41 and 66 ms within seconds, and 15-second medians of package calls
spread by 21-26 % (interquartile range over median) across four minutes.
Dividing each operation's time by the probe time measured around it cancels
that drift: the same data spread by 4.4-4.5 %.  The probe mixes the kinds of
work the package does -- LAPACK calls on small matrices, small-array numpy
arithmetic and plain interpreter loops -- and never calls the package, so a
change to the package cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

_EIG = np.random.default_rng(12345).standard_normal((16, 16))
_SMALL = np.random.default_rng(54321).standard_normal((4, 4)) + 0j


def reference_probe() -> float:
    """Seconds one pass of the fixed kernel takes (about 10 ms on an idle core)."""
    t0 = time.perf_counter()
    for _ in range(40):
        np.linalg.eigvals(_EIG)
    acc = 0.0
    for i in range(1500):
        acc += float((_SMALL @ _SMALL)[0, 0].real) * 1e-9 + i
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - t0
