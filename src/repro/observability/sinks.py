"""Event sinks: where the telemetry stream goes.

A sink is anything with ``emit(event)`` and ``close()``; the runtime emits
:class:`~repro.observability.events.Event` objects in execution order and
closes nothing it did not open.  Four sinks cover the common cases:

* :class:`NullSink` — the *disabled* sink.  The runtime special-cases it:
  passing a ``NullSink`` (or no sink at all) compiles/derives the
  completely uninstrumented fast path, so disabled telemetry costs
  nothing measurable (<2%, gated in ``benchmarks/bench_engines.py``).
* :class:`InMemorySink` — appends to a list; the test-suite workhorse.
* :class:`JsonlSink` — one JSON object per line to a file or file-like
  object; the CLI's ``--trace-out FILE`` uses it, and
  :func:`repro.observability.events.read_events` reads it back.
* :class:`CallbackSink` — hands each event to a callable; the extension
  point for live dashboards or custom aggregations.

Per-``step`` events are high-volume, so sinks opt in via ``wants_steps``;
all other event types are always delivered.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, List, Mapping, Optional

from repro.observability.events import Event


class EventSink:
    """Base class / protocol for event sinks."""

    #: Opt-in to one event per expression-node evaluation.
    wants_steps: bool = False

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting after close is undefined."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(EventSink):
    """The disabled sink: recognized by the runtime, costs nothing.

    ``run_monitored(..., config=RunConfig(event_sink=NullSink()))`` takes
    the identical code path as passing no sink at all — no
    instrumentation is compiled in.  It exists so callers can thread a
    sink unconditionally and disable telemetry by configuration.
    """

    def emit(self, event: Event) -> None:  # pragma: no cover - never wired
        pass


class InMemorySink(EventSink):
    """Collects events in :attr:`events` (a plain list)."""

    def __init__(self, *, wants_steps: bool = False) -> None:
        self.wants_steps = wants_steps
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.type == kind]


class CallbackSink(EventSink):
    """Invokes ``callback(event)`` for every event."""

    def __init__(
        self, callback: Callable[[Event], None], *, wants_steps: bool = False
    ) -> None:
        self.callback = callback
        self.wants_steps = wants_steps

    def emit(self, event: Event) -> None:
        self.callback(event)


class JsonlSink(EventSink):
    """Writes one JSON object per event line (the ``--trace-out`` format).

    **Atomicity.** Each event is serialized into one buffered string
    (terminator included) and written with a *single* ``write()`` call
    under the sink's lock, so concurrent producers — batch-runner threads,
    the serve daemon's per-worker streams — can share one sink without
    ever interleaving half-lines.  (The historical two-``write`` emit let
    an 8-thread batch corrupt the very trace ``replay()`` folds over.)

    **Flush policy.** The line is buffered by the underlying file object;
    by default it reaches disk when the sink is closed (or the buffer
    fills).  Pass ``flush_each=True`` for tail-ability — every emit is
    flushed, which is what a long-lived daemon's per-worker sinks use so
    traces are observable while the process is still running.
    """

    def __init__(
        self, path_or_file, *, wants_steps: bool = False, flush_each: bool = False
    ) -> None:
        self.wants_steps = wants_steps
        self.flush_each = flush_each
        self._lock = threading.Lock()
        if hasattr(path_or_file, "write"):
            self._handle = path_or_file
            self._owned = False
        else:
            self._handle = open(path_or_file, "w", encoding="utf-8")
            self._owned = True

    def emit(self, event: Event) -> None:
        line = json.dumps(event.to_dict(), default=str) + "\n"
        with self._lock:
            self._handle.write(line)
            if self.flush_each:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._owned and self._handle is not None:
                self._handle.close()
                self._handle = None
            elif self._handle is not None and hasattr(self._handle, "flush"):
                self._handle.flush()


class TaggedSink(EventSink):
    """Forwards to an inner sink, merging constant fields into each payload.

    The serve daemon gives every worker ``TaggedSink(JsonlSink(...),
    {"worker": n})`` so each event in a per-worker trace says which worker
    produced it — and merged traces stay attributable.  Event fields other
    than the payload pass through unchanged; a payload key the event
    already carries wins over the tag.
    """

    def __init__(self, inner: EventSink, tags: Mapping[str, object]) -> None:
        self._inner = inner
        self.tags = dict(tags)

    @property
    def wants_steps(self) -> bool:  # type: ignore[override]
        return self._inner.wants_steps

    def emit(self, event: Event) -> None:
        payload = dict(self.tags)
        payload.update(event.payload)
        self._inner.emit(
            Event(seq=event.seq, type=event.type, slot=event.slot, payload=payload)
        )

    def close(self) -> None:
        self._inner.close()


def is_null_sink(sink: Optional[EventSink]) -> bool:
    """True when ``sink`` disables event emission entirely."""
    return sink is None or isinstance(sink, NullSink)


__all__ = [
    "CallbackSink",
    "EventSink",
    "InMemorySink",
    "JsonlSink",
    "NullSink",
    "TaggedSink",
    "is_null_sink",
]
