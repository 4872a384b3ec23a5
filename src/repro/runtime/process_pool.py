"""Multi-process serving: real CPU parallelism behind the batch API.

The in-process :class:`~repro.runtime.batch.BatchRunner` runs one
request after another: monitored evaluation is pure Python, and the GIL
would serialize it on threads too, so CPU-heavy traffic never scales
past one core in one process.  :class:`ProcessPoolRunner` is the
scale-out tier: it forks N worker processes, each holding its own
pre-warmed :class:`~repro.runtime.cache.CompilationCache`, and routes
requests to workers **by program fingerprint**, so every repeat of a
program lands on the worker that already compiled it and warm cache hits
shard cleanly.

The paper's soundness theorem (Section 7) is what makes the sharding
safe: monitoring cannot change the standard answer, so a request's result
is a pure function of the request — any worker may run it, and the
process boundary is invisible in the answers (the parity suite holds the
pool to the sequential oracle on both engines).

**The serialization boundary.** Requests cross to workers as small wire
dicts — the program (surface syntax or a picklable AST), tool *names*,
the language name, and the scalar :meth:`~repro.runtime.config.RunConfig.
scalars` of the config — pickled once, at submission.  Results come back
as rendered :meth:`~repro.runtime.batch.RunResult.to_dict` projections
and are rebuilt with :meth:`~repro.runtime.batch.RunResult.from_dict`;
the in-process-only fields (``metrics``, live sinks) never cross.
Anything that cannot cross fails *that request* with a clean
``ok=False`` result, never the pool.

**Dispatch.** Each worker talks to the parent over its own duplex pipe.
The requests routed to a worker wait in a parent-side deque, and the
parent sends the next one only when the worker is ready and idle — after
its ``("ready", pid)`` message or its ``("done", id, result)`` for the
last one.  At most one request is ever in a pipe, so the parent always
knows which request a worker holds.

Operational guarantees:

* **bounded backpressure** — at most ``queue_depth`` requests
  wait for a worker; a non-blocking submit to a full worker raises
  :class:`OverloadedError` (an explicit rejection the serve daemon turns
  into an ``"Overloaded"`` JSONL record — never a silent drop), and a
  blocking one waits until the worker takes its next request;
* **crash detection + restart** — a worker that dies (OOM-killed,
  segfaulted C extension, ``SIGKILL``) wakes the parent through its
  process sentinel; only the request it was running fails, with
  ``error_type="WorkerCrashed"``, and is never resent.  A replacement
  worker is started on a fresh pipe and serves the dead worker's queued
  requests once it is ready — those never reached the dead process, and
  by the soundness theorem any worker gives them the same answer;
* **no orphans** — a forked worker closes the parent-side pipe ends it
  inherited, so a killed parent (``SIGKILL``, OOM) is end of file to
  every worker, which then exits;
* **per-request cooperative timeouts** — exactly the batch runner's,
  enforced by the run's deadline inside the worker;
* **per-worker telemetry** — with ``trace_dir`` set, each worker streams
  worker-tagged ``serve-request`` and cache events to its own
  ``worker-N.jsonl`` (one single-writer :class:`~repro.observability.
  sinks.JsonlSink` per process, ``flush_each=True`` so traces are
  tail-able while the daemon runs).
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_readable
from time import perf_counter
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

# What every request runs (the lint gate, codegen, the toolbox and its
# monitors) is imported here, in the parent, so forked workers inherit it
# instead of each importing the same modules on its first request.
import repro.analysis.scope  # noqa: F401
import repro.analysis.specs  # noqa: F401
import repro.analysis.stack  # noqa: F401
import repro.monitors.callgraph  # noqa: F401
import repro.monitors.collecting  # noqa: F401
import repro.monitors.counters  # noqa: F401
import repro.monitors.coverage  # noqa: F401
import repro.monitors.demon  # noqa: F401
import repro.monitors.history  # noqa: F401
import repro.monitors.profiler  # noqa: F401
import repro.monitors.statistics  # noqa: F401
import repro.monitors.stepper  # noqa: F401
import repro.monitors.tracer  # noqa: F401
import repro.partial_eval.codegen  # noqa: F401
import repro.toolbox.registry  # noqa: F401
from repro.errors import ReproError
from repro.runtime.batch import (
    RunRequest,
    RunResult,
    admission_failure,
    admit,
    execute_request,
    language_by_name,
)
from repro.runtime.cache import CompilationCache, program_fingerprint
from repro.runtime.config import RunConfig

#: Default number of worker processes.
DEFAULT_WORKERS = 4

#: How many requests may wait for one worker before submissions are
#: rejected (non-blocking) or wait (blocking).
DEFAULT_QUEUE_DEPTH = 32

#: How long ``close()`` waits for a worker to drain and exit before
#: terminating it.
_SHUTDOWN_GRACE = 5.0

#: Workers fork where the platform can (inheriting the imports above),
#: else spawn.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class OverloadedError(ReproError):
    """A non-blocking submit found ``queue_depth`` requests already waiting
    for the target worker.

    The explicit backpressure signal: callers (the serve daemon) turn it
    into an ``ok=False`` / ``error_type="Overloaded"`` rejection so the
    client knows to back off — requests are never silently dropped.
    """


# -- the wire format ----------------------------------------------------------


def request_to_wire(
    request: RunRequest, *, request_id: int, index: int
) -> Dict[str, object]:
    """Project a request onto the process boundary.

    Programs cross as source text or AST (frozen dataclasses pickle
    cleanly); tools cross as names or picklable specs; configs cross as
    their scalar fields only.  :func:`_encode` pickles the result.
    """
    config = request.config.scalars() if request.config is not None else None
    return {
        "id": request_id,
        "index": index,
        "program": request.program,
        "tools": request.tools,
        "language": getattr(request.language, "name", None),
        "config": config,
        "tag": request.tag,
    }


def request_from_wire(wire: Dict[str, object]) -> RunRequest:
    """Rebuild the worker-side request from its wire projection."""
    scalars = wire.get("config")
    return RunRequest(
        program=wire["program"],
        tools=wire.get("tools", ()),
        language=language_by_name(wire.get("language")),
        config=RunConfig.from_scalars(dict(scalars)) if scalars else None,
        tag=wire.get("tag"),
    )


def _encode(wire: Dict[str, object]) -> bytes:
    """Pickle a wire once, at admission, so that a request which cannot
    cross (typically tools holding a lambda) fails its own slot."""
    try:
        return pickle.dumps(wire)
    except Exception as exc:
        raise ValueError(
            "request cannot cross the process boundary (not picklable: "
            f"{exc}); pass tools as toolbox names such as 'profile & trace'"
        ) from None


def route_key(program: object) -> str:
    """The routing fingerprint: equal programs always shard identically.

    Source text hashes directly; parsed ASTs reuse the compilation cache's
    :func:`~repro.runtime.cache.program_fingerprint`.  A source string
    and its parse, or two texts that differ only in whitespace or
    comments, may route to different workers.  Correctness is untouched
    (any worker may run any request), but a ``prewarm`` entry warms only
    the worker its own key routes to, so it spares the cold compile only
    for requests whose program text (or AST) is identical to the entry's.
    """
    if isinstance(program, str):
        return hashlib.sha256(program.encode("utf-8")).hexdigest()
    return program_fingerprint(program)


def _shard(program: object, workers: int) -> int:
    """The worker that ``program``'s requests (and pre-warm entry) go to."""
    return int(route_key(program)[:8], 16) % workers




# -- the worker process -------------------------------------------------------


def _worker_main(worker_id: int, conn, init, parent_ends) -> None:
    """One worker: pre-warm its shard, then serve requests until ``None``.

    Runs in the child process.  ``conn`` is this worker's own duplex pipe.
    The worker sends ``("ready", pid)`` once warm, then answers each
    request it receives with ``("done", id, result_dict)``; the parent
    sends the next request only after that answer.  It stops at ``None``
    or at end of file, when the parent is gone.

    ``parent_ends`` are the parent's ends of this worker's pipe and of
    every other worker's, which a forked child inherits; closing them
    leaves the parent the only holder, so its death is end of file here.
    """
    for end in parent_ends:
        end.close()
    # A forking parent (``repro serve``) may have turned SIGTERM into
    # KeyboardInterrupt; ``close()``'s ``terminate()`` must still kill us.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    sink = None
    trace_path = init.get("trace_path")
    if trace_path:
        from repro.observability.sinks import JsonlSink, TaggedSink

        sink = TaggedSink(
            JsonlSink(trace_path, flush_each=True), {"worker": worker_id}
        )
    cache = CompilationCache(init["cache_size"], event_sink=sink)
    base_config = RunConfig.from_scalars(dict(init["config"]))

    for wire in init.get("prewarm", ()):
        try:
            execute_request(
                0, request_from_wire(wire), config=base_config, cache=cache
            )
        except Exception:
            pass  # pre-warming is best-effort; real requests still compile

    conn.send(("ready", os.getpid()))
    while True:
        try:
            wire = conn.recv()
        except EOFError:
            break
        if wire is None:
            break
        request_id = wire["id"]
        try:
            request = request_from_wire(wire)
            result = execute_request(
                int(wire.get("index", 0)), request, config=base_config, cache=cache
            )
        except Exception as exc:  # defensive: execute_request never raises
            result = admission_failure(int(wire.get("index", 0)), wire, exc)
        if sink is not None:
            sink.emit(
                "serve-request",
                {"id": request_id, "ok": result.ok, "duration": result.duration},
            )
        conn.send(("done", request_id, result.to_dict()))
    if sink is not None:
        sink.close()


# -- the parent-side pool -----------------------------------------------------


def _closed_result(index: int, tag: Optional[str]) -> RunResult:
    """The result of a request the pool closed before it completed."""
    return RunResult(
        index=index,
        ok=False,
        tag=tag,
        error="process pool closed before this request completed",
        error_type="PoolClosed",
    )


@dataclass
class _Pending:
    """One submitted-but-unfinished request, parent side."""

    request_id: int
    index: int
    tag: Optional[str]
    future: "Future[RunResult]" = field(default_factory=Future)


class _Worker:
    """Parent-side handle: the process, the parent's end of its pipe, the
    requests waiting for it and the one it is running."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        #: ``(request id, pickled wire)`` pairs, oldest first.
        self.waiting: Deque[Tuple[int, bytes]] = deque()
        self.running: Optional[int] = None
        self.conn = None
        self.process = None
        self.ready = False

    def spawn(self, init, pool: Sequence["_Worker"]) -> None:
        self.ready = False
        self.running = None
        self.conn, child = _CONTEXT.Pipe(duplex=True)
        parent_ends = []
        if _CONTEXT.get_start_method() == "fork":
            parent_ends = [self.conn] + [
                worker.conn
                for worker in pool
                if worker is not self and worker.conn is not None
            ]
        self.process = _CONTEXT.Process(
            target=_worker_main,
            args=(self.worker_id, child, init, parent_ends),
            daemon=True,
            name=f"repro-worker-{self.worker_id}",
        )
        self.process.start()
        # The child now holds the only copy of its end, so its death is
        # this pipe's end of file.
        child.close()


class ProcessPoolRunner:
    """Execute :class:`RunRequest` batches over forked worker processes.

    The same surface as :class:`~repro.runtime.batch.BatchRunner` —
    ``run(requests)`` returns :class:`RunResult` objects in submission
    order and never raises for a request's failure — plus a streaming
    :meth:`submit` for long-lived daemons.  Construction is cheap; workers
    fork on :meth:`start` (or lazily on first use).

    ``config`` must be scalar-only (no metrics/sink/custom answers): it is
    shipped to workers via :meth:`RunConfig.scalars`.  ``prewarm`` is a
    sequence of requests (dicts or :class:`RunRequest`), each compiled at
    startup by the one worker its program routes to — and again after
    that worker restarts, so a replacement comes back warm.  :meth:`start`
    returns only once every worker has warmed its shard.  ``event_sink``
    receives the *parent-side* lifecycle events (``worker-start``/
    ``worker-exit``/``worker-crash`` and ``batch-start``/``batch-end``);
    per-request telemetry streams to the per-worker ``trace_dir`` sinks
    instead.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        config: Optional[RunConfig] = None,
        cache_size: int = 128,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        trace_dir: Optional[str] = None,
        prewarm: Sequence[Union[RunRequest, Dict]] = (),
        event_sink=None,
    ) -> None:
        self.workers = DEFAULT_WORKERS if workers is None else max(1, int(workers))
        self.config = RunConfig.checked(config)
        if int(queue_depth) < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.cache_size = int(cache_size)
        self.queue_depth = int(queue_depth)
        self.trace_dir = trace_dir
        self._prewarm_wire = []
        for index, entry in enumerate(prewarm):
            admitted = admit(index, entry, self.config)
            if isinstance(admitted, RunResult):
                raise ValueError(f"prewarm entry {index}: {admitted.error}")
            wire = request_to_wire(admitted, request_id=-1, index=0)
            _encode(wire)  # an entry that cannot cross fails here, not in a worker
            self._prewarm_wire.append(wire)
        self._event_sink = event_sink
        # One lock for all pool state; the collector notifies it whenever a
        # worker becomes ready or takes its next request.
        self._changed = threading.Condition(threading.Lock())
        self._ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        self._pool: List[_Worker] = []
        self._collector: Optional[threading.Thread] = None
        self._started = False
        self._up = False  # every worker reported ready once
        self._startup_error: Optional[str] = None
        self._closing = False
        self._crashes = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProcessPoolRunner":
        """Fork the workers and wait until every one reports ready."""
        with self._changed:
            if self._started:
                return self
            self._started = True
            for worker_id in range(self.workers):
                worker = _Worker(worker_id)
                worker.spawn(self._worker_init(worker_id), self._pool)
                self._pool.append(worker)
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collector", daemon=True
        )
        self._collector.start()
        with self._changed:
            self._changed.wait_for(
                lambda: self._startup_error is not None
                or all(worker.ready for worker in self._pool),
                timeout=60.0,
            )
            failure = self._startup_error
            if failure is None and not all(worker.ready for worker in self._pool):
                failure = "process pool failed to become ready within 60s"
            self._up = failure is None
            started = [(worker.worker_id, worker.process.pid) for worker in self._pool]
        if failure is not None:
            self.close()
            raise ReproError(failure)
        # Emit outside the pool lock: the sink is arbitrary user code and
        # must never run under (or re-take) it.
        for worker_id, pid in started:
            self._emit("worker-start", {"worker": worker_id, "pid": pid})
        return self

    def _worker_init(self, worker_id: int) -> Dict[str, object]:
        trace_path = None
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            trace_path = os.path.join(self.trace_dir, f"worker-{worker_id}.jsonl")
        return {
            "cache_size": self.cache_size,
            "config": self.config.scalars(),
            "trace_path": trace_path,
            # Only this worker's shard: no other worker's requests land here.
            "prewarm": [
                wire
                for wire in self._prewarm_wire
                if _shard(wire["program"], self.workers) == worker_id
            ],
        }

    def close(self) -> None:
        """Drain, stop the workers, and fail any still-pending futures."""
        with self._changed:
            if self._closing or not self._started:
                self._closing = True
                return
            self._closing = True
            pool = list(self._pool)
            for worker in pool:
                self._dispatch(worker)  # an idle worker with nothing queued stops
            self._changed.notify_all()
        for worker in pool:
            worker.process.join(timeout=_SHUTDOWN_GRACE)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_SHUTDOWN_GRACE)
            self._emit(
                "worker-exit",
                {"worker": worker.worker_id, "pid": worker.process.pid},
            )
        with self._changed:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for pending in leftovers:
            self._resolve(pending, _closed_result(pending.index, pending.tag))
        if self._collector is not None:
            # It closes each pipe as its worker's process ends.
            self._collector.join(timeout=_SHUTDOWN_GRACE)

    def __enter__(self) -> "ProcessPoolRunner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    def worker_pids(self) -> List[int]:
        with self._changed:
            return [worker.process.pid for worker in self._pool]

    def stats(self) -> Dict[str, object]:
        with self._changed:
            return {
                "workers": len(self._pool),
                "queue_depth": self.queue_depth,
                "pending": len(self._pending),
                # Every crash restarts its worker: one counter, two names.
                "crashes": self._crashes,
                "restarts": self._crashes,
            }

    # -- events --------------------------------------------------------------

    def _emit(self, event_type: str, payload: Dict[str, object]) -> None:
        if self._event_sink is not None:
            self._event_sink.emit(event_type, payload)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        request: Union[RunRequest, Dict],
        *,
        index: int = 0,
        block: bool = True,
        surface: str = "batch",
    ) -> "Future[RunResult]":
        """Route one request to its fingerprint shard; resolve on completion.

        Admission failures (bad record, unpicklable tools) resolve the
        returned future immediately with a diagnostic ``ok=False`` result;
        ``surface`` picks the options a dict record may set (see
        :func:`~repro.runtime.batch.admit`).
        When ``queue_depth`` requests already wait for the target worker,
        ``block=False`` raises :class:`OverloadedError` — the daemon's
        backpressure path — and ``block=True`` waits until the worker takes
        its next request, which is the batch path's flow control.
        """
        if not self._started:
            self.start()
        request = admit(index, request, self.config, surface)
        if isinstance(request, RunResult):
            return self._failed_future(request)
        request_id = next(self._ids)
        try:
            payload = _encode(
                request_to_wire(request, request_id=request_id, index=index)
            )
        except Exception as exc:
            return self._failed_future(
                admission_failure(index, {"tag": request.tag}, exc)
            )
        with self._changed:
            if self._closing:
                raise ReproError("process pool is closed")
            worker = self._pool[_shard(request.program, len(self._pool))]
            if not block and len(worker.waiting) >= self.queue_depth:
                raise OverloadedError(
                    f"worker {worker.worker_id} already has {self.queue_depth} "
                    "requests waiting; back off and retry"
                )
            pending = _Pending(request_id=request_id, index=index, tag=request.tag)
            self._pending[request_id] = pending
            # close() fails a request still pending when it ends, so a
            # submitter waiting here gives up as soon as the pool closes.
            self._changed.wait_for(
                lambda: self._closing or len(worker.waiting) < self.queue_depth
            )
            if not self._closing:
                worker.waiting.append((request_id, payload))
                self._dispatch(worker)
        return pending.future

    def run(self, requests: Sequence[Union[RunRequest, Dict]]) -> List[RunResult]:
        """Run every request; results in submission order, never raising."""
        if not self._started:
            self.start()
        total = len(requests)
        self._emit("batch-start", {"total": total, "workers": self.workers})
        start = perf_counter()
        futures = []
        for index, request in enumerate(requests):
            try:
                futures.append(self.submit(request, index=index))
            except ReproError:
                # close() ran while this batch was still submitting: the
                # slot fails as a request close() found pending would.
                if not self._closing:
                    raise
                tag = admit(index, request, self.config).tag
                futures.append(self._failed_future(_closed_result(index, tag)))
        results = [future.result() for future in futures]
        succeeded = sum(1 for result in results if result.ok)
        self._emit(
            "batch-end",
            {
                "total": total,
                "succeeded": succeeded,
                "failed": total - succeeded,
                "duration": perf_counter() - start,
            },
        )
        return results

    def _failed_future(self, result: RunResult) -> "Future[RunResult]":
        future: "Future[RunResult]" = Future()
        future.set_result(result)
        return future

    @staticmethod
    def _resolve(pending: _Pending, result: RunResult) -> None:
        if not pending.future.done():
            pending.future.set_result(result)

    def _dispatch(self, worker: _Worker) -> None:
        """Send a ready, idle ``worker`` its next request — or, once the
        pool is closing and nothing waits for it, the stop message.

        Called with the lock held.
        """
        if not worker.ready or worker.running is not None:
            return
        try:
            if worker.waiting:
                request_id, payload = worker.waiting[0]
                worker.conn.send_bytes(payload)
                worker.waiting.popleft()
                worker.running = request_id
            elif self._closing:
                worker.conn.send(None)
                worker.ready = False  # it takes nothing more
        except OSError:
            # The worker is dead, and the request never reached it: it
            # stays queued for the replacement the collector starts.
            worker.ready = False

    # -- the collector thread ------------------------------------------------

    def _collect_loop(self) -> None:
        """Read every worker's pipe; restart a worker whose process died.

        Waits on each pipe *and* each process sentinel: a process forked
        elsewhere while a pipe was being set up may hold a copy of its
        child end, and then the pipe never reads end of file — but the
        sentinel still fires.  Runs until every worker's pipe is closed.
        """
        while True:
            with self._changed:
                handles = {}
                for worker in self._pool:
                    if worker.conn is not None:
                        handles[worker.conn] = worker
                        handles[worker.process.sentinel] = worker
            if not handles:
                return
            ready = wait_for_readable(list(handles))
            for worker in dict.fromkeys(handles[handle] for handle in ready):
                self._drain(worker, died=worker.process.sentinel in ready)

    def _drain(self, worker: _Worker, *, died: bool) -> None:
        """Take every message ``worker`` sent; retire it if it died."""
        try:
            while worker.conn.poll():
                self._receive(worker, worker.conn.recv())
        except (EOFError, OSError):
            # End of file, possibly halfway through a message: the worker
            # exited or died, and only its own pipe knows.
            died = True
        if died:
            self._retire(worker)

    def _receive(self, worker: _Worker, message) -> None:
        pending = None
        with self._changed:
            if message[0] == "ready":
                worker.ready = True
            else:
                _, request_id, payload = message
                worker.running = None
                pending = self._pending.pop(request_id, None)
            self._dispatch(worker)
            self._changed.notify_all()
        if pending is not None:
            self._resolve(pending, RunResult.from_dict(payload))

    def _retire(self, worker: _Worker) -> None:
        """``worker``'s process ended: start a replacement — or, while the
        pool is still starting or already closing, only close its pipe."""
        dead = worker.process
        dead.join(timeout=_SHUTDOWN_GRACE)  # for its exit code
        with self._changed:
            worker.conn.close()
            if not self._up or self._closing:
                worker.conn, worker.ready = None, False
                if not self._up and self._startup_error is None:
                    self._startup_error = (
                        f"worker {worker.worker_id} died during startup "
                        f"(exit code {dead.exitcode})"
                    )
                self._changed.notify_all()
                return
            in_flight = worker.running
            lost = self._pending.pop(in_flight, None)
            self._crashes += 1
            worker.spawn(self._worker_init(worker.worker_id), self._pool)
        self._emit(
            "worker-crash",
            {
                "worker": worker.worker_id,
                "pid": dead.pid,
                "exitcode": dead.exitcode,
                "in_flight": in_flight,
                "failed": int(lost is not None),
            },
        )
        self._emit(
            "worker-start",
            {"worker": worker.worker_id, "pid": worker.process.pid},
        )
        if lost is not None:
            # Never resent: a request that killed its worker once may do so
            # again.  The queued ones go to the replacement.
            self._resolve(
                lost,
                RunResult(
                    index=lost.index,
                    ok=False,
                    tag=lost.tag,
                    error=(
                        f"worker {worker.worker_id} (pid {dead.pid}) died with "
                        f"exit code {dead.exitcode} while running this request; "
                        "a replacement worker was started"
                    ),
                    error_type="WorkerCrashed",
                ),
            )


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_WORKERS",
    "OverloadedError",
    "ProcessPoolRunner",
    "request_from_wire",
    "request_to_wire",
    "route_key",
]
