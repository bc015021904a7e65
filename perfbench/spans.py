"""Span recorder that times calls into the package from outside it.

:func:`install` replaces each target function by a timing wrapper in *every*
module that holds it, so callers that imported the function by name
(``from .numerics import eigendecompose``) are traced as well as callers that
go through the defining module.  Spans live in memory as
``[name, start, end, parent, amount]`` and are written out at the end;
``amount`` is a per-call work size (draws, steps, bytes) where one is given.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, AMOUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, amount=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    amount(*args, **kwargs) if amount else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: Path) -> None:
        rows = [dict(zip(("name", "start", "end", "parent", "amount"), s))
                for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")


def package_modules(package: str) -> list:
    """The loaded modules of ``package``, the package itself included."""
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))]


def install(tracer: Tracer, targets, modules) -> int:
    """Wrap every ``(owner, attribute, span_name, amount)`` target.

    ``owner`` is a module or class.  The wrapper replaces the function in the
    owner and under any name in each of ``modules`` that refers to the same
    object.  Returns the number of bindings replaced.
    """
    replaced = 0
    for owner, attr, name, amount in targets:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(original, name, amount)
        setattr(owner, attr, wrapper)
        replaced += 1
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced += 1
    return replaced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((max(spans[c][START], s[START]), min(spans[c][END], s[END]))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def within(spans, i: int, ancestor: str) -> bool:
    """Whether span ``i`` has a span named ``ancestor`` above it."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == ancestor:
            return True
        p = spans[p][PARENT]
    return False


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration, summed amount."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "amount": 0})
    for s in spans:
        row = out[s[NAME]]
        row["calls"] += 1
        row["s"] += s[END] - s[START]
        row["amount"] += s[AMOUNT]
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Summed self time per layer, the layer being the span name up to its first dot."""
    out: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        out[s[NAME].split(".", 1)[0]] += t
    return out
