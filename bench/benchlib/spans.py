"""The span recorder of the traced run: name, start, end, parent, op id.

Spans are recorded by the benchmark around its calls into the program's
public functions (nothing under ``src/`` knows about them), held in
memory and written out when the run ends.  Self time of a span is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": index, "name": name, "op": self.op, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a proxy's own clock) under the
        currently open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": len(self.spans), "name": name, "op": self.op,
                           "parent": parent, "start": start, "end": end})

    def write(self, path, stamp: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stamp": stamp, "spans": self.spans}, handle)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    result = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            result[span["parent"]] -= duration(span)
    return result


def per_op_totals(spans: list[dict], name: str) -> dict:
    """Op id -> total time of the spans called *name* in that op."""
    totals: dict = {}
    for span in spans:
        if span["name"] == name:
            totals[span["op"]] = totals.get(span["op"], 0.0) + duration(span)
    return totals


def median_ms(spans: list[dict], name: str, *, per_span: bool = False) -> float:
    """Median over ops of the time spent in spans called *name* (or over the
    spans themselves), in ms; 0 when the layer was never entered."""
    if per_span:
        values = [duration(s) for s in spans if s["name"] == name]
    else:
        values = list(per_op_totals(spans, name).values())
    return statistics.median(values) * 1000.0 if values else 0.0


def mean_attr(spans: list[dict], name: str, key: str | None, ops: int) -> float:
    """Per-op mean of a count attached to the spans called *name* (of the
    number of such spans when *key* is None)."""
    total = sum(
        1 if key is None else s.get(key, 0) for s in spans if s["name"] == name
    )
    return total / ops if ops else 0.0
