"""``repro serve``: a long-lived JSONL-over-socket monitored-evaluation daemon.

The millions-of-users entry point (ROADMAP item 2): a :class:`Server`
binds a unix-domain socket (``socket_path=``) or a TCP port (``port=``),
accepts any number of concurrent client connections, and routes every
request line through a :class:`~repro.runtime.process_pool.
ProcessPoolRunner` — real multi-core parallelism with fingerprint-sharded
warm caches, per-request cooperative timeouts, bounded-queue
backpressure, and crash-isolated workers.

**Protocol.**  One JSON object per line, in both directions.  A request
line is exactly the ``repro batch`` record format (``program`` plus
optional ``tools``/``language``/``engine``/``fault_policy``/
``max_steps``/``timeout``/``lint``/``tag``) with one extra optional key:

* ``id`` — an opaque client correlation token, echoed verbatim on the
  response line.

Responses are rendered :meth:`~repro.runtime.batch.RunResult.to_dict`
records (``ok``, ``answer``/``reports``/``faults`` or ``error``/
``error_type``, always ``duration``) and arrive in **completion order**
— that is the point of a concurrent daemon — so clients should correlate
by ``id``, not by position.  ``index`` carries the line's per-connection
sequence number for clients that prefer positional bookkeeping.

Admission control happens before execution, in this order: unparseable
JSON → ``ProtocolError``; an invalid record (unknown key, missing
program, non-positive ``timeout``) → a diagnostic ``ok=False`` record;
a full worker queue → an explicit ``Overloaded`` rejection (HTTP-429
moral equivalent — never a silent drop); and with ``lint="error"`` on
the server config, the static analyzer rejects failing programs with
their diagnostics attached (``StaticAnalysisError``), the program never
executing.

Control lines: ``{"op": "ping"}`` answers liveness, ``{"op": "stats"}``
returns serve counters plus pool stats.

Pipelined clients may half-close: write every request, ``shutdown`` the
write side, then read to EOF — the daemon drains all outstanding
responses before it closes the connection.

Telemetry: each worker streams worker-tagged cache and ``serve-request``
events to ``trace_dir/worker-N.jsonl`` (tail-able while the daemon runs);
the parent-side sink, when given, sees ``serve-start``/``serve-end`` and
worker lifecycle events.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.runtime.batch import RunRequest
from repro.runtime.config import RunConfig
from repro.runtime.process_pool import (
    DEFAULT_QUEUE_DEPTH,
    OverloadedError,
    ProcessPoolRunner,
)


class Server:
    """The serve daemon: socket listener in front of a process pool.

    Exactly one of ``socket_path`` (unix-domain) or ``port`` (TCP, with
    ``host``) selects the transport; ``port=0`` binds an ephemeral port
    and :attr:`address` reports the real one (the end-to-end tests use
    this).  All pool knobs (``workers``, ``cache_size``, ``queue_depth``,
    ``trace_dir``, ``prewarm``) pass straight through to
    :class:`ProcessPoolRunner`; ``config`` must be scalar-only (it crosses
    the process boundary).

    Response writes happen on the pool's completion callbacks under a
    per-connection lock — correct for any number of in-flight requests
    per connection, sized for trusted-network clients that drain their
    sockets.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        config: Optional[RunConfig] = None,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        cache_size: int = 128,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        trace_dir: Optional[str] = None,
        prewarm: Sequence[Union[RunRequest, Dict]] = (),
        event_sink=None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ReproError(
                "serve needs exactly one transport: socket_path= (unix) "
                "or port= (TCP)"
            )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self._pool = ProcessPoolRunner(
            workers=workers,
            config=config,
            cache_size=cache_size,
            queue_depth=queue_depth,
            trace_dir=trace_dir,
            prewarm=prewarm,
            event_sink=event_sink,
        )
        from repro.observability.sinks import is_null_sink

        self._event_sink = None if is_null_sink(event_sink) else event_sink
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[socket.socket] = []
        self._lock = threading.Lock()
        self._closing = False
        self._started = False
        self._counters = {
            "connections": 0,
            "received": 0,
            "completed": 0,
            "ok": 0,
            "failed": 0,
            "rejected": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def address(self):
        """Where the daemon listens: a unix path or a ``(host, port)`` pair."""
        if self.socket_path is not None:
            return self.socket_path
        return (self.host, self.port)

    def start(self) -> "Server":
        """Fork the workers, bind the transport, begin accepting clients."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        self._pool.start()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a dead daemon
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]  # resolve port=0
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._emit(
            "serve-start",
            {"address": str(self.address), "workers": self._pool.workers},
        )
        return self

    def close(self) -> None:
        """Stop accepting, drop connections, shut the pool down."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            connections = list(self._connections)
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the join below returns at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # some platforms refuse shutdown() on a listener
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._pool.close()
        if self.socket_path is not None and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._emit("serve-end", {"address": str(self.address)})

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`close` is called."""
        self.start()
        try:
            while not self._closing:
                threading.Event().wait(0.2)
        finally:
            self.close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- events / stats ------------------------------------------------------

    def _emit(self, event_type: str, payload: Dict[str, object]) -> None:
        if self._event_sink is None:
            return
        from repro.observability.events import Event

        self._event_sink.emit(Event(seq=0, type=event_type, payload=payload))

    def _count(self, key: str, by: int = 1) -> None:
        with self._lock:
            self._counters[key] += by

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
        return {"serve": counters, "pool": self._pool.stats()}

    # -- the socket side -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._connections.append(conn)
                self._counters["connections"] += 1
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One client: read JSONL requests, stream back completion-order results.

        Half-close pipelining is supported: a client may write its whole
        batch, ``shutdown(SHUT_WR)``, and read until EOF — on reader EOF
        the connection stays open until every outstanding response has
        been written back.
        """
        write_lock = threading.Lock()
        drained = threading.Condition()
        outstanding = [0]

        def respond(record: Dict[str, object]) -> None:
            line = (json.dumps(record) + "\n").encode("utf-8")
            try:
                with write_lock:
                    conn.sendall(line)
            except OSError:
                pass  # client went away; results are simply dropped

        def track_submit() -> None:
            with drained:
                outstanding[0] += 1

        def track_done() -> None:
            with drained:
                outstanding[0] -= 1
                drained.notify_all()

        index = 0
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("request line must be a JSON object")
                except ValueError as exc:
                    respond(
                        {
                            "index": index,
                            "ok": False,
                            "error": f"unparseable request line: {exc}",
                            "error_type": "ProtocolError",
                        }
                    )
                    index += 1
                    continue
                if "op" in record:
                    respond(self._control(record))
                    continue
                track_submit()
                self._submit_record(record, index, respond, track_done)
                index += 1
            with drained:  # EOF: drain in-flight responses before closing
                while outstanding[0] > 0 and not self._closing:
                    drained.wait(timeout=0.2)
        finally:
            try:
                reader.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    def _control(self, record: Dict[str, object]) -> Dict[str, object]:
        op = record.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            out: Dict[str, object] = {"ok": True, "op": "stats"}
            out.update(self.stats())
            return out
        return {
            "ok": False,
            "op": op,
            "error": f"unknown op {op!r}; known ops: ping, stats",
            "error_type": "ProtocolError",
        }

    def _submit_record(
        self, record: Dict[str, object], index: int, respond, track_done
    ) -> None:
        request_id = record.pop("id", None)
        self._count("received")

        def finish(done) -> None:
            # Never let a rendering bug strand the connection: a response
            # line goes out (and the drain counter drops) no matter what.
            try:
                result_record = done.result().to_dict()
            except Exception as exc:
                result_record = {
                    "index": index,
                    "ok": False,
                    "error": f"internal error rendering result: {exc}",
                    "error_type": "InternalError",
                }
            if request_id is not None:
                result_record["id"] = request_id
            self._count("completed")
            self._count("ok" if result_record.get("ok") else "failed")
            respond(result_record)
            track_done()

        try:
            future = self._pool.submit(record, index=index, block=False)
        except OverloadedError as exc:
            self._count("rejected")
            rejection = {
                "index": index,
                "ok": False,
                "tag": record.get("tag"),
                "error": str(exc),
                "error_type": "Overloaded",
            }
            if rejection["tag"] is None:
                del rejection["tag"]
            if request_id is not None:
                rejection["id"] = request_id
            respond(rejection)
            track_done()
            return
        future.add_done_callback(finish)


def connect(address) -> socket.socket:
    """A convenience client connector (tests and scripts).

    ``address`` is a unix-socket path (str) or a ``(host, port)`` pair —
    exactly what :attr:`Server.address` reports.
    """
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(address)
    else:
        host, port = address
        sock = socket.create_connection((host, port))
    return sock


__all__ = ["Server", "connect"]
