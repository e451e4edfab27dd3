"""In-memory spans and counters for the benchmark's traced pass.

A span records (name, start, end, parent, item): the benchmark opens
one around each call it makes into a layer's public function, so the
spans measure the layers from outside.  Spans of one item (a campaign
run, a trace file, a request, a stream) share an ``item`` id.  Nothing
is written until :meth:`Tracer.dump` runs at the end of the pass.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, item id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: object = None):
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        rec = [name, perf_counter(), None, parent, item]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent, _item) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def top_level_s(self) -> float:
        return sum(e - s for _n, s, e, p, _i in self.spans if p < 0)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _p, _i in self.spans if n == name]

    def dump(self, path) -> None:
        """Write every span and counter as NDJSON."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None,
                    "item": item,
                }) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")
