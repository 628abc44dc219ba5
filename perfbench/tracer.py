"""Span tracer that wraps cslrad's layer functions from outside the package.

Each wrapper replaces a module attribute through which one layer calls the
next (``cslrad.detector.integrate``, ``cslrad.specfun.reg_lower_gamma``, ...)
and records a span ``(name, start, end, parent)`` per call.  Spans stay in
memory; ``end_pass`` folds one pass's spans into per-name calls, inclusive
time and self time (duration minus the part covered by child spans).

The two pair-kernel functions run N^2/2 times per call; a span each would
cost more than the kernel and hold millions of records, so they are
counted only and their time stays in their caller's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._spans: list = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self._counters: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self.first_pass_spans: list | None = None

    def span(self, module, attr: str, name: str, work=None) -> None:
        """Record a span per call of ``module.attr``; ``work(*args)`` gives its size."""
        fn = getattr(module, attr)
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            size = work(*args) if work is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, size)

        self._patches.append((module, attr, fn, wrapper))

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of ``module.attr`` without a span."""
        fn = getattr(module, attr)
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        self._patches.append((module, attr, fn, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)

    def begin_pass(self) -> None:
        self._spans.clear()
        self._stack.clear()
        for cell in self._counters.values():
            cell[0] = 0

    def end_pass(self) -> dict[str, dict[str, float]]:
        """Per-name {calls, s, self_s, work} of the pass that just ran."""
        spans = self._spans
        if self.first_pass_spans is None:
            self.first_pass_spans = list(spans)
        child = [0.0] * len(spans)
        for name_id, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        for i, (name_id, t0, t1, _, size) in enumerate(spans):
            agg = out[self._names[name_id]]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["work"] += size
        for name, cell in self._counters.items():
            out[name]["calls"] = cell[0]
        return dict(out)

    def write_first_pass(self, path) -> None:
        """Write the first traced pass's spans as CSV: name,start_s,end_s,parent."""
        spans = self.first_pass_spans or []
        base = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name_id, t0, t1, parent, _) in enumerate(spans):
                fh.write(f"{i},{self._names[name_id]},{t0 - base:.9f},"
                         f"{t1 - base:.9f},{parent}\n")
