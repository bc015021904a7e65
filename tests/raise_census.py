"""Census of the ``raise`` statements in ``src/oqwalk`` that no test reaches.

Runs the suite under ``tests/`` in this process with a line tracer on the
frames of ``src/oqwalk`` alone, then lists each ``raise`` statement whose
line never ran, as ``file:line`` with its exception and message.  A site
that only a monkeypatched helper, a LAPACK failure or eigensolver error can
reach is listed in ``ALLOWED`` with one line of reason.

Exit status: 0 when every unreached site is allowed; 1 when one is not, or
when an ``ALLOWED`` entry names no unreached site (so the list cannot go
stale); 2 when the suite itself fails.

Usage, from the repository root::

    PYTHONPATH=src python tests/raise_census.py [PYTEST_ARGS...]

Extra arguments go to pytest after ``tests``.  The trace slows the suite
(73 s against 57 s untraced on a 2-vCPU x86-64 host), so the census runs as
its own CI step, not in tier-1.  Tests that run ``oqwalk`` in a subprocess
are not traced.  This file is a script; pytest does not collect it.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oqwalk"

# (file, text in the raise statement): why no input reaches it, on one line.
ALLOWED = {
    ("asymptotics.py", "observable equation is inconsistent"):
        "consistent when mean is the drift, as asymptotic_stats passes; only a patched drift",
    ("asymptotics.py", "is not positive semidefinite"):
        "a CLT covariance is a limit of covariances; only a patched route term",
    ("asymptotics.py", "log lambda_u sampled on the window is not convex"):
        "log lambda_u of a CP family is convex (Kingman); only a patched curve",
    ("asymptotics.py", "rate function came out negative"):
        "I(x) >= -c(0) >= -1e-10 past the u = 0 gate; only a patched c or maximizer",
    ("asymptotics.py", "rate-function values violate convexity"):
        "a Legendre transform is convex; only patched values",
    ("structure.py", "peripheral spectrum is not the set of"):
        "an irreducible TP map's peripheral spectrum is the d-th roots; only eig error",
    ("structure.py", "adjoint spectrum misses the primitive root"):
        "the adjoint's spectrum conjugates the map's d-th roots; only eig error",
    ("structure.py", "cyclic projections do not resolve the identity"):
        "the spectral projections of W with W^d = I sum to I; only a wrong eigenvector",
    ("structure.py", "fixed spaces of the map and its adjoint pair degenerately"):
        "eigenvalue 1 of a TP map is semisimple, so its fixed spaces pair; only eig error",
    ("superop.py", "shifted solve is singular"):
        "a LAPACK failure: lam (1 + 1e-13) is no exact eigenvalue of the adjoint",
    ("trajectories.py", "propagated and iterated-map distributions disagree"):
        "the two exact-law routes agree on every model; only a patched route",
}


class LineTracer:
    """Pytest plugin that records every (file, line) run in a frame whose code
    lives under ``root``; other frames are not line-traced."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.lines: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.root) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self._call)  # each test, in case one cleared it
        try:
            yield
        finally:
            sys.settrace(None)


def raise_sites(path: Path):
    """``(line, text)`` of each ``raise`` statement in one source file; the
    text is the statement's source joined onto one line."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            text = " ".join(ast.get_source_segment(source, node).split())
            yield node.lineno, text


def main(argv: list[str]) -> int:
    tracer = LineTracer(PACKAGE)
    status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv],
                         plugins=[tracer])
    if status != 0:
        print(f"raise census: the suite failed (pytest exit {int(status)})")
        return 2
    total, unreached, allowed_hits = 0, [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in sorted(raise_sites(path)):
            total += 1
            if (str(path), line) in tracer.lines:
                continue
            keys = [key for key in ALLOWED if key[0] == path.name and key[1] in text]
            allowed_hits.update(keys)
            if not keys:
                unreached.append(f"{path.name}:{line}: {text}")
    stale = [f"{name}: {text!r}" for name, text in ALLOWED
             if (name, text) not in allowed_hits]
    print(f"raise census: {total} raise statements, {len(unreached)} unreached "
          f"outside the allowlist, {len(allowed_hits)} allowed")
    for entry in unreached:
        print("  unreached", entry)
    for entry in stale:
        print("  stale allowlist entry", entry)
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
