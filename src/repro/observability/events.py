"""Runtime lifecycle events: the serving runtime's small event schema.

A monitored run has one event stream, its recorded trace
(:mod:`repro.tracing.schema`), and every per-run tool — metrics,
reports, fault records, replay — is a fold over it
(:func:`repro.tracing.analyze_trace`).  What is left here is the
*runtime's* own lifecycle: the cache, the batch runner, the process
pool and the serve daemon report what they did as typed events to a
sink (:mod:`repro.observability.sinks`), which numbers them in
delivery order.

Event types (:data:`EVENT_TYPES`):

* ``cache-hit`` / ``cache-miss`` / ``cache-evict`` — the serving runtime's
  generated-program cache (:mod:`repro.runtime`) looked up a program.
  ``payload["key"]`` is a short digest of the cache key; ``cache-miss``
  carries ``payload["compile_time"]`` (seconds spent compiling) and
  ``cache-evict`` names the evicted entry.
* ``batch-start`` / ``batch-request`` / ``batch-end`` — one ``run_batch``
  call began, finished one request (``payload``: ``index``, ``ok``,
  ``duration``), or completed (``payload``: ``total``, ``succeeded``,
  ``failed``, ``duration``).
* ``worker-start`` / ``worker-exit`` / ``worker-crash`` — a process-pool
  worker (:mod:`repro.runtime.process_pool`) came up, shut down cleanly,
  or died unexpectedly (``payload``: ``worker``, ``pid``; ``worker-crash``
  adds ``exitcode``, ``in_flight``, the id of the request it took down,
  if any, and ``failed``, 1 if it was running one and 0 if idle — its
  queued requests go to the replacement).
* ``serve-request`` — one request finished inside a worker (``payload``:
  ``id``, ``ok``, ``duration``, plus the ``worker`` tag its
  :class:`~repro.observability.sinks.TaggedSink` merges in).
* ``serve-start`` / ``serve-end`` — the ``repro serve`` daemon began /
  stopped listening (``payload``: ``address``, ``workers``).

Event payloads are JSON-safe by construction (names and scalars), so any
event can be written to a :class:`~repro.observability.sinks.JsonlSink`
and read back losslessly with :func:`read_events`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

EVENT_TYPES: Tuple[str, ...] = (
    "cache-hit",
    "cache-miss",
    "cache-evict",
    "batch-start",
    "batch-request",
    "batch-end",
    "worker-start",
    "worker-exit",
    "worker-crash",
    "serve-start",
    "serve-request",
    "serve-end",
)


@dataclass(frozen=True)
class Event:
    """One lifecycle event: sequence number, type, JSON-safe payload."""

    seq: int
    type: str
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"seq": self.seq, "type": self.type}
        if self.payload:
            out["payload"] = dict(self.payload)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Event":
        return cls(
            seq=int(data["seq"]),
            type=str(data["type"]),
            payload=dict(data.get("payload", {})),
        )


def read_events(path) -> List[Event]:
    """Load a JSONL event log written by a ``JsonlSink``."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events


__all__ = [
    "EVENT_TYPES",
    "Event",
    "read_events",
]
