"""Spans around calls into the package, recorded from outside it.

:class:`Tracer` replaces module-level functions with timing wrappers for the
duration of a ``with`` block and puts the originals back on exit.  Each call
becomes one span ``[name, start, end, parent, instance, returned]`` kept in
memory; ``parent`` is the index of the enclosing span (or -1), ``instance``
the id of the input being processed, and ``returned`` whether the call
returned something other than ``None``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, INSTANCE, RETURNED = range(6)


class Tracer:
    def __init__(self, targets):
        """``targets``: ``(module, attribute, span_name)`` triples to wrap."""
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.instance, False])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.spans[self._open(name)]
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            span[RETURNED] = result is not None
            return result

        return traced

    @contextmanager
    def span(self, name: str, instance: int):
        """A span owned by the caller, e.g. one per processed input."""
        self.instance = instance
        span = self.spans[self._open(name)]
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        totals: dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child):
            totals[s[NAME]] += s[END] - s[START] - covered
        return dict(totals)

    def totals(self) -> dict[str, float]:
        """Total inclusive duration per span name."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s[NAME]] += s[END] - s[START]
        return dict(totals)

    def count(self, name: str, returned=None) -> int:
        return sum(
            1 for s in self.spans
            if s[NAME] == name and (returned is None or s[RETURNED] == returned)
        )

    def write(self, path) -> None:
        """One JSON object per span, start and end relative to the first."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME],
                    "start": s[START] - origin,
                    "end": s[END] - origin,
                    "parent": s[PARENT],
                    "instance": s[INSTANCE],
                    "returned": s[RETURNED],
                }) + "\n")
