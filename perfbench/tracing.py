"""Spans recorded from outside clothdet by wrapping the names callers look up.

A `Tracer` replaces module attributes such as `clothdet.cli.read_tensors`
with wrappers that record (name, start, end, parent, attributes) in memory;
`write` dumps them as JSON lines when the workload ends. Nothing is wrapped
until `Tracer.active()` is entered, and leaving it restores every original,
so untraced rounds run the package exactly as shipped.

The analysis half (`load_spans`, `durations_ms`, `self_times_ms`) runs in the
parent process on the written file. A span's self time is its duration minus
the part of it that its direct children cover.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    def wrap(self, module, attr: str, name, attrs=None) -> None:
        """Register `module.attr` for wrapping.

        `name` is the span name, or a callable of the call's (args, kwargs)
        that returns it. `attrs(args, kwargs, result)` returns counts to store
        on the span; the time spent computing them is recorded as a
        `trace.attrs` span under the same parent, so it never counts as the
        parent's own work.
        """
        self._targets.append((module, attr, name, attrs))

    def _wrapper(self, original, name, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            done = False
            start = clock()
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs is not None and done else {}
                spans[index] = (label, start, end, parent, extra)
                if attrs is not None:
                    spans.append(("trace.attrs", end, clock(), parent, {}))

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def active(self):
        self._saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in self._targets]
        try:
            for (module, attr, name, attrs), (_, _, original) in zip(self._targets, self._saved):
                setattr(module, attr, self._wrapper(original, name, attrs))
            yield self
        finally:
            for module, attr, original in self._saved:
                setattr(module, attr, original)
            self._saved = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, **extra}) + "\n")


def load_spans(path) -> list[dict]:
    if not os.path.exists(path):
        return []
    return [json.loads(line) for line in Path(path).read_text("utf-8").splitlines() if line]


def durations_ms(spans: list[dict], name: str) -> list[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == name]


def self_times_ms(spans: list[dict], name: str) -> list[float]:
    """Duration minus the union of the intervals its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for index, s in enumerate(spans):
        if s["name"] != name:
            continue
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(index, [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"] - covered) * 1e3)
    return out
