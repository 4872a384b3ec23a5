"""Typed telemetry events and the fold that replays them.

The event stream is the *generic trace* of Jahier & Ducassé (PAPERS.md):
one instrumentation point in the runtime emits a totally ordered sequence
of typed events, and every downstream tool — metrics, regression checks,
dashboards — is a fold over that sequence.  The stream is *sufficient* in
their sense: replaying a captured log through :func:`replay` reconstructs
the profiler's final counts and the fault log exactly (the event-stream
completeness test asserts this).

Event types (:data:`EVENT_TYPES`):

* ``step`` — one expression-node evaluation.  Only emitted to sinks that
  opt in (``wants_steps=True``); per-step events are voluminous.
* ``annotation-enter`` / ``annotation-exit`` — a monitor-claimed annotated
  node was entered / produced its result.  ``payload["annotation"]`` is
  the recognized annotation's name.  (Annotations no monitor claims are
  semantically erased — Definition 7.1 — and emit nothing.)
* ``monitor-pre`` / ``monitor-post`` — a monitor hook ran *successfully*;
  ``payload["changed"]`` says whether it returned a new state.  A hook
  that raises emits a ``fault`` instead.
* ``state-update`` — a hook replaced its slot's state (one per changed
  hook call, with ``payload["phase"]``).
* ``fault`` — a monitor exception was captured by the fault log
  (``payload``: ``phase``, ``error_type``, ``message``).
* ``quarantine`` — the faulting slot was disabled for the rest of the run.
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
  adds ``in_flight``, the id of the request it took down, if any).
* ``serve-request`` — one request finished inside a worker (``payload``:
  ``id``, ``ok``, ``duration``, plus the ``worker`` tag its
  :class:`~repro.observability.sinks.TaggedSink` merges in).
* ``serve-start`` / ``serve-end`` — the ``repro serve`` daemon began /
  stopped listening (``payload``: ``address``, ``workers``).

Event payloads are JSON-safe by construction (names and scalars, never
monitor states or program values), so any event can be written to a
:class:`~repro.observability.sinks.JsonlSink` and read back losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

EVENT_TYPES: Tuple[str, ...] = (
    "step",
    "annotation-enter",
    "annotation-exit",
    "monitor-pre",
    "monitor-post",
    "state-update",
    "fault",
    "quarantine",
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
    """One telemetry event: sequence number, type, slot, JSON-safe payload."""

    seq: int
    type: str
    slot: Optional[str] = None
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"seq": self.seq, "type": self.type}
        if self.slot is not None:
            out["slot"] = self.slot
        if self.payload:
            out["payload"] = dict(self.payload)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Event":
        return cls(
            seq=int(data["seq"]),
            type=str(data["type"]),
            slot=data.get("slot"),
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


@dataclass
class ReplaySummary:
    """What a fold over an event stream reconstructs.

    ``pre_counts[slot][annotation]`` counts *successful* ``pre`` hook runs
    per recognized annotation name — for the Figure 6 profiler this is
    exactly its final counter environment.  ``faults`` holds the captured
    fault records as ``(slot, phase, error_type, message)`` tuples, the
    comparable projection of :class:`repro.monitoring.faults.MonitorFault`.
    """

    steps: int = 0
    activations: Dict[str, int] = field(default_factory=dict)
    pre_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    post_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    state_transitions: int = 0
    faults: List[Tuple[str, str, str, str]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    batch_requests: int = 0
    serve_requests: int = 0
    worker_crashes: int = 0

    def feed(self, event: Event) -> None:
        kind = event.type
        slot = event.slot
        if kind == "step":
            self.steps += 1
        elif kind == "annotation-enter":
            self.activations[slot] = self.activations.get(slot, 0) + 1
        elif kind == "monitor-pre":
            per_slot = self.pre_counts.setdefault(slot, {})
            name = event.payload.get("annotation")
            per_slot[name] = per_slot.get(name, 0) + 1
        elif kind == "monitor-post":
            per_slot = self.post_counts.setdefault(slot, {})
            name = event.payload.get("annotation")
            per_slot[name] = per_slot.get(name, 0) + 1
        elif kind == "state-update":
            self.state_transitions += 1
        elif kind == "fault":
            self.faults.append(
                (
                    slot,
                    str(event.payload.get("phase")),
                    str(event.payload.get("error_type")),
                    str(event.payload.get("message")),
                )
            )
        elif kind == "quarantine":
            self.quarantined.append(slot)
        elif kind == "cache-hit":
            self.cache_hits += 1
        elif kind == "cache-miss":
            self.cache_misses += 1
        elif kind == "cache-evict":
            self.cache_evictions += 1
        elif kind == "batch-request":
            self.batch_requests += 1
        elif kind == "serve-request":
            self.serve_requests += 1
        elif kind == "worker-crash":
            self.worker_crashes += 1


def replay(events: Iterable[Event]) -> ReplaySummary:
    """Fold ``events`` into a :class:`ReplaySummary` (order-sensitive)."""
    summary = ReplaySummary()
    for event in events:
        summary.feed(event)
    return summary


def fault_tuples(faults) -> List[Tuple[str, str, str, str]]:
    """Project fault records to the comparable tuples ``replay`` produces."""
    return [
        (f.monitor_key, f.phase, f.error_type, f.message) for f in faults
    ]


__all__ = [
    "EVENT_TYPES",
    "Event",
    "ReplaySummary",
    "fault_tuples",
    "read_events",
    "replay",
]
