"""Event sinks: where the runtime's lifecycle events go.

A sink is anything with ``emit(kind, payload)`` and ``close()``.  The
sink, not the emitter, numbers each event: :meth:`EventSink.emit` stamps
``seq`` and delivers the :class:`~repro.observability.events.Event` under
the sink's own lock, so ``seq`` follows delivery order even when several
emitters — a cache, a batch runner, a pool's parent thread — share one
sink.  The runtime closes nothing it did not open.  Three sinks cover
the common cases:

* :class:`InMemorySink` — appends to a list; the test-suite workhorse.
* :class:`JsonlSink` — one JSON object per line to a file or file-like
  object; ``repro batch --trace-out FILE`` and the serve daemon's
  per-worker traces use it, and
  :func:`repro.observability.events.read_events` reads it back.
* :class:`CallbackSink` — hands each event to a callable; the extension
  point for live dashboards or custom aggregations.

:class:`TaggedSink` decorates any of them with constant payload fields.
Per-run detail is not on this stream: record the run (``repro record``
or ``--record-dir``) and fold over the trace (``repro analyze`` /
``repro replay``).
"""

from __future__ import annotations

import json
import threading
from typing import Callable, List, Mapping, Optional

from repro.observability.events import Event


class EventSink:
    """Base class for event sinks: numbers events, subclasses deliver them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0

    def emit(self, kind: str, payload: Optional[Mapping[str, object]] = None) -> None:
        """Number one event in delivery order and :meth:`deliver` it."""
        with self._lock:
            self._seq += 1
            self.deliver(Event(self._seq, kind, dict(payload or {})))

    def deliver(self, event: Event) -> None:
        """Store or forward one numbered event (called under the lock)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting after close is undefined."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InMemorySink(EventSink):
    """Collects events in :attr:`events` (a plain list)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Event] = []

    def deliver(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.type == kind]


class CallbackSink(EventSink):
    """Invokes ``callback(event)`` for every event."""

    def __init__(self, callback: Callable[[Event], None]) -> None:
        super().__init__()
        self.callback = callback

    def deliver(self, event: Event) -> None:
        self.callback(event)


class JsonlSink(EventSink):
    """Writes one JSON object per event line (the ``--trace-out`` format).

    **Atomicity.** Each event is serialized into one buffered string
    (terminator included) and written with a *single* ``write()`` call
    under the sink's lock, so concurrent producers — batch-runner threads,
    the serve daemon's per-worker streams — can share one sink without
    ever interleaving half-lines, and line order is ``seq`` order.

    **Flush policy.** The line is buffered by the underlying file object;
    by default it reaches disk when the sink is closed (or the buffer
    fills).  Pass ``flush_each=True`` for tail-ability — every emit is
    flushed, which is what a long-lived daemon's per-worker sinks use so
    traces are observable while the process is still running.
    """

    def __init__(self, path_or_file, *, flush_each: bool = False) -> None:
        super().__init__()
        self.flush_each = flush_each
        if hasattr(path_or_file, "write"):
            self._handle = path_or_file
            self._owned = False
        else:
            self._handle = open(path_or_file, "w", encoding="utf-8")
            self._owned = True

    def deliver(self, event: Event) -> None:
        self._handle.write(json.dumps(event.to_dict(), default=str) + "\n")
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
    produced it — and merged traces stay attributable.  The inner sink
    numbers the events; a payload key the event already carries wins over
    the tag.
    """

    def __init__(self, inner: EventSink, tags: Mapping[str, object]) -> None:
        self._inner = inner
        self.tags = dict(tags)

    def emit(self, kind: str, payload: Optional[Mapping[str, object]] = None) -> None:
        merged = dict(self.tags)
        merged.update(payload or {})
        self._inner.emit(kind, merged)

    def close(self) -> None:
        self._inner.close()


__all__ = [
    "CallbackSink",
    "EventSink",
    "InMemorySink",
    "JsonlSink",
    "TaggedSink",
]
