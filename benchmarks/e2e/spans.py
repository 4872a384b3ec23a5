"""Spans for the traced run, kept in memory and written out at exit.

A span is ``{id, req, name, parent, start_ns, end_ns, thread}``: one
timed call into a layer, made from the benchmark's own code.  Spans of
one request share ``req``; ``parent`` is the id of the enclosing span on
the same thread, or ``None`` for the request's root span (named
``"request"``).  A layer's self time is its span minus its children.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = "request"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating between ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Spans:
    """An in-memory span recorder; one per traced phase."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, req: Optional[int] = None) -> Iterator[None]:
        """Time the enclosed call as layer ``name`` of request ``req``.

        ``req`` defaults to the enclosing span's request.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = self.records[parent]["req"]
        record = self.records[self.add(name, req, perf_counter_ns(), None, parent)]
        stack.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = perf_counter_ns()
            stack.pop()

    def add(
        self,
        name: str,
        req: int,
        start_ns: int,
        end_ns: Optional[int],
        parent: Optional[int] = None,
    ) -> int:
        """Record a span from timestamps taken elsewhere; returns its id."""
        record = {
            "id": len(self.records),
            "req": req,
            "name": name,
            "parent": parent,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "thread": threading.get_ident(),
        }
        self.records.append(record)
        return record["id"]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def self_times(records: Sequence[Dict[str, object]]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [r["end_ns"] - r["start_ns"] for r in records]
    for record in records:
        if record["parent"] is not None:
            own[record["parent"]] -= record["end_ns"] - record["start_ns"]
    return own


def layer_times(records: Sequence[Dict[str, object]]) -> Dict[str, Dict[object, float]]:
    """Per layer, each request's total self time in it (ms), keyed by
    request; requests that never entered the layer are absent."""
    own = self_times(records)
    per_layer: Dict[str, Dict[object, float]] = {}
    for record, ns in zip(records, own):
        if record["name"] == ROOT:
            continue
        totals = per_layer.setdefault(record["name"], {})
        totals[record["req"]] = totals.get(record["req"], 0.0) + ns / 1e6
    return per_layer


def request_times(records: Sequence[Dict[str, object]]) -> List[float]:
    """Root span durations (ms), one per request."""
    return [
        (r["end_ns"] - r["start_ns"]) / 1e6 for r in records if r["name"] == ROOT
    ]


def coverage(records: Sequence[Dict[str, object]]) -> float:
    """The share of request time spent inside some layer span."""
    own = self_times(records)
    total = uncovered = 0
    for record, ns in zip(records, own):
        if record["name"] == ROOT:
            total += record["end_ns"] - record["start_ns"]
            uncovered += ns
    return 1.0 - uncovered / total if total else 0.0
