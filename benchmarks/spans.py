"""In-memory spans for the traced benchmark run.

A span is (name, parent, start, end) with times from ``time.perf_counter_ns``.
Spans are opened by the benchmark around each call it makes into a potseq
module, so a span's name says which layer did the work; spans inside the
package are not recorded.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []

    def _name(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        return self._begin(self._name(name))

    def _begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else NO_PARENT)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in the order they opened")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name(name)

        def traced(*args, **kwargs):
            idx = self._begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def durations(self, parent: str | None = None) -> dict[str, list[float]]:
        """Seconds of every span, grouped by name, in recording order; with
        ``parent``, only the spans opened directly under a span of that name."""
        out: dict[str, list[float]] = {name: [] for name in self.names}
        for i, p, s, e in zip(self.name_id, self.parent, self.start, self.end):
            if parent is None or (p != NO_PARENT and self.names[self.name_id[p]] == parent):
                out[self.names[i]].append((e - s) / 1e9)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for k, p in enumerate(self.parent):
            if p != NO_PARENT:
                child[p] += dur[k]
        out: dict[str, float] = {}
        for k, d in enumerate(dur):
            name = self.names[self.name_id[k]]
            out[name] = out.get(name, 0.0) + (d - child[k]) / 1e9
        return out

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "spans": [
                [self.name_id[k], self.parent[k], self.start[k] - t0, self.end[k] - t0]
                for k in range(len(self.start))
            ],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
