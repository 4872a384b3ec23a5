"""JSONL sink atomicity: concurrent emitters never interleave lines.

The serving-path regression (ISSUE PR 7 satellite): ``JsonlSink.emit``
used to make three separate ``write`` calls per event (payload, newline,
optional flush ordering), so two threads sharing one sink could
interleave mid-line and corrupt the JSONL stream — event readers then
choked on half-a-record lines.  The fix serializes one pre-rendered
string per event under a lock, the same lock under which the sink
numbers the event, so line order is ``seq`` order; these tests hammer
that guarantee and pin the :class:`TaggedSink` decorator the
process-pool workers wrap around it.
"""

import io
import json
import sys
import threading

from repro.observability import InMemorySink, JsonlSink, TaggedSink, read_events

THREADS = 8
EVENTS_PER_THREAD = 250


class TestAtomicEmit:
    def test_eight_threads_every_line_round_trips(self, tmp_path):
        """The acceptance criterion: 8 writers, every line parses, in order."""
        path = tmp_path / "hammer.jsonl"
        sink = JsonlSink(path)
        barrier = threading.Barrier(THREADS)

        def writer(thread_id):
            barrier.wait()  # maximize contention
            for n in range(EVENTS_PER_THREAD):
                sink.emit(
                    "cache-hit", {"thread": thread_id, "n": n, "key": "k" * 40}
                )

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == THREADS * EVENTS_PER_THREAD
        seen = set()
        for line in lines:
            record = json.loads(line)  # whole, never interleaved
            seen.add((record["payload"]["thread"], record["payload"]["n"]))
        assert len(seen) == THREADS * EVENTS_PER_THREAD  # nothing lost
        events = read_events(path)
        assert all(event.type == "cache-hit" for event in events)
        assert [event.seq for event in events] == list(range(1, len(lines) + 1))

    def test_emit_is_one_write_call(self):
        """Each event reaches the handle as a single newline-terminated write."""
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        sink = JsonlSink(Recorder())
        sink.emit("batch-request", {"index": 0})
        sink.emit("batch-end")
        assert len(writes) == 2
        assert all(w.endswith("\n") and json.loads(w) for w in writes)

    def test_flush_each_makes_lines_tailable(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        sink = JsonlSink(path, flush_each=True)
        sink.emit("cache-miss", {"compile_time": 0.1})
        # Visible to a concurrent reader *before* close — the daemon's
        # worker traces are tailed while the process is still running.
        assert json.loads(path.read_text().splitlines()[0])["type"] == "cache-miss"
        sink.close()


class TestTaggedSink:
    def test_tags_merge_into_payload(self):
        inner = InMemorySink()
        sink = TaggedSink(inner, {"worker": 3})
        sink.emit("serve-request", {"id": 9, "ok": True})
        [event] = inner.events
        assert event.payload == {"worker": 3, "id": 9, "ok": True}
        assert event.type == "serve-request"

    def test_event_payload_wins_on_collision(self):
        inner = InMemorySink()
        sink = TaggedSink(inner, {"worker": 3, "id": "tag-side"})
        sink.emit("serve-request", {"id": "event-side"})
        assert inner.events[0].payload["id"] == "event-side"
        assert inner.events[0].payload["worker"] == 3

    def test_inner_sink_numbers_the_events(self):
        inner = InMemorySink()
        sink = TaggedSink(inner, {"worker": 0})
        sink.emit("cache-miss")
        inner.emit("cache-hit")
        sink.emit("serve-request")
        assert [event.seq for event in inner.events] == [1, 2, 3]

    def test_close_forwards(self, tmp_path):
        inner = JsonlSink(tmp_path / "t.jsonl")
        sink = TaggedSink(inner, {"worker": 0})
        sink.close()
        assert inner._handle is None  # owned handle released by close()
