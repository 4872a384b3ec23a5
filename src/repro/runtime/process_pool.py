"""Multi-process serving: real CPU parallelism behind the batch API.

The thread-pooled :class:`~repro.runtime.batch.BatchRunner` buys cache
sharing and interleaved I/O, but monitored evaluation is pure Python and
the GIL serializes it — CPU-heavy traffic never scales past one core.
:class:`ProcessPoolRunner` is the scale-out tier (ROADMAP item 2): it
forks N worker processes, each holding its own pre-warmed
:class:`~repro.runtime.cache.CompilationCache`, and routes requests to
workers **by program fingerprint**, so every repeat of a program lands on
the worker that already compiled it and warm cache hits shard cleanly.

The paper's soundness theorem (Section 7) is what makes the sharding
safe: monitoring cannot change the standard answer, so a request's result
is a pure function of the request — any worker may run it, and the
process boundary is invisible in the answers (the parity suite holds the
pool to the sequential oracle on all three engines).

**The serialization boundary.** Requests cross to workers as small wire
dicts — the program (surface syntax or a picklable AST), tool *names*,
the language name, and the scalar :meth:`~repro.runtime.config.RunConfig.
scalars` of the config.  Results come back as rendered
:meth:`~repro.runtime.batch.RunResult.to_dict` projections and are
rebuilt with :meth:`~repro.runtime.batch.RunResult.from_dict`; the
in-process-only fields (``metrics``, ``monitored``, live sinks) never
cross.  Anything that cannot cross fails *that request* with a clean
``ok=False`` result, never the pool.

Operational guarantees:

* **bounded queues / backpressure** — each worker's request queue holds at
  most ``queue_depth`` entries; a non-blocking submit against a full queue
  raises :class:`OverloadedError` (an explicit rejection the serve daemon
  turns into an ``"Overloaded"`` JSONL record — never a silent drop);
* **crash detection + restart** — a worker that dies (OOM-killed,
  segfaulted C extension, ``SIGKILL``) is detected, every request it had
  accepted (the one it was running *and* any still queued to it — the
  parent cannot always tell which one was dequeued when the process
  died) fails with ``error_type="WorkerCrashed"``, a replacement worker
  is forked, and the pool keeps serving — no future ever hangs on a dead
  worker;
* **per-request cooperative timeouts** — exactly the batch runner's,
  enforced by the trampoline deadline inside the worker;
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
import queue as queue_module
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Union

# What every request runs (the lint gate, codegen, the toolbox) is
# imported here, in the parent, so forked workers inherit it instead of
# each compiling the same modules again.
import repro.analysis  # noqa: F401
import repro.partial_eval.codegen  # noqa: F401
import repro.toolbox.registry  # noqa: F401
from repro.errors import ReproError
from repro.runtime.batch import (
    DEFAULT_WORKERS,
    RunRequest,
    RunResult,
    admission_failure,
    execute_request,
    language_by_name,
)
from repro.runtime.cache import CompilationCache, program_fingerprint
from repro.runtime.config import RunConfig

#: Per-worker request-queue depth before submissions are rejected.
DEFAULT_QUEUE_DEPTH = 32

#: How long ``close()`` waits for a worker to drain and exit before
#: terminating it.
_SHUTDOWN_GRACE = 5.0


class OverloadedError(ReproError):
    """A non-blocking submit found the target worker's queue full.

    The explicit backpressure signal: callers (the serve daemon) turn it
    into an ``ok=False`` / ``error_type="Overloaded"`` rejection so the
    client knows to back off — requests are never silently dropped.
    """


# -- the wire format ----------------------------------------------------------


def request_to_wire(
    request: RunRequest, *, request_id: int, index: int
) -> Dict[str, object]:
    """Project a request onto the process boundary (picklable dict).

    Programs cross as source text or AST (frozen dataclasses pickle
    cleanly); tools cross as names or picklable specs — a tools object
    pickle rejects fails admission here, before it can wedge the queue's
    feeder thread; configs cross as their scalar fields only.
    """
    config = request.config.scalars() if request.config is not None else None
    tools = request.tools
    if not _is_plain_tools(tools):
        try:
            pickle.dumps(tools)
        except Exception as exc:
            raise ValueError(
                "tools cannot cross the process boundary (not picklable: "
                f"{exc}); pass toolbox names such as 'profile & trace'"
            ) from None
    return {
        "id": request_id,
        "index": index,
        "program": request.program,
        "tools": tools,
        "language": getattr(request.language, "name", None),
        "config": config,
        "timeout": request.timeout,
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
        timeout=wire.get("timeout"),
        tag=wire.get("tag"),
    )


def _is_plain_tools(tools: object) -> bool:
    if isinstance(tools, str):
        return True
    if isinstance(tools, (list, tuple)):
        return all(isinstance(item, str) for item in tools)
    return False


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


def _worker_main(worker_id: int, request_queue, result_queue, init) -> None:
    """One worker: pre-warm its shard, then loop requests until ``None``.

    Runs in the child process.  Protocol (messages on ``result_queue``):
    ``("ready", wid, pid)`` once warm, ``("start", wid, id)`` when a
    request is picked up, ``("done", wid, id, result_dict)`` when it
    finishes.  The start/done pair tells the parent which request was
    running if this process dies mid-run — but delivery races death, so
    the parent's crash accounting keys off its own submitted-but-unacked
    set, not these acks alone.
    """
    from repro.observability.events import Event
    from repro.observability.sinks import JsonlSink, TaggedSink

    sink = None
    trace_path = init.get("trace_path")
    if trace_path:
        sink = TaggedSink(
            JsonlSink(trace_path, flush_each=True), {"worker": worker_id}
        )
    cache = CompilationCache(init["cache_size"], event_sink=sink)
    base_config = RunConfig.from_scalars(dict(init["config"]))
    seq = itertools.count(1)

    for wire in init.get("prewarm", ()):
        try:
            execute_request(
                0, request_from_wire(wire), config=base_config, cache=cache
            )
        except Exception:
            pass  # pre-warming is best-effort; real requests still compile

    result_queue.put(("ready", worker_id, os.getpid()))
    while True:
        wire = request_queue.get()
        if wire is None:
            break
        request_id = wire["id"]
        result_queue.put(("start", worker_id, request_id))
        try:
            request = request_from_wire(wire)
            result = execute_request(
                int(wire.get("index", 0)), request, config=base_config, cache=cache
            )
        except Exception as exc:  # defensive: execute_request never raises
            result = admission_failure(int(wire.get("index", 0)), wire, exc)
        if sink is not None:
            sink.emit(
                Event(
                    seq=next(seq),
                    type="serve-request",
                    payload={
                        "id": request_id,
                        "ok": result.ok,
                        "duration": result.duration,
                    },
                )
            )
        result_queue.put(("done", worker_id, request_id, result.to_dict()))
    if sink is not None:
        sink.close()


# -- the parent-side pool -----------------------------------------------------


@dataclass
class _Pending:
    """One submitted-but-unfinished request, parent side."""

    request_id: int
    index: int
    tag: Optional[str]
    worker: int
    future: "Future[RunResult]" = field(default_factory=Future)
    started: bool = False


class _Worker:
    """Parent-side handle: process + its dedicated bounded request queue."""

    def __init__(self, worker_id: int, ctx, queue_depth: int) -> None:
        self.worker_id = worker_id
        self.queue = ctx.Queue(maxsize=queue_depth)
        self.process = None
        self.current: Optional[int] = None  # in-flight request id
        # Every request id handed to this worker's queue and not yet
        # "done"-acked.  ``current`` alone cannot be trusted for crash
        # accounting: a worker that dies after dequeuing a request but
        # before its "start" message is delivered leaves ``current`` unset
        # — the unacked set is the ground truth of what this worker owes.
        self.inflight: Dict[int, None] = {}
        self.ready = False
        self.restarts = 0

    def spawn(self, ctx, result_queue, init) -> None:
        self.ready = False
        self.current = None
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.worker_id, self.queue, result_queue, init),
            daemon=True,
            name=f"repro-worker-{self.worker_id}",
        )
        self.process.start()


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
        start_method: Optional[str] = None,
    ) -> None:
        from repro.observability.sinks import is_null_sink

        self.workers = DEFAULT_WORKERS if workers is None else max(1, int(workers))
        self.config = (config if config is not None else RunConfig()).validate()
        if int(queue_depth) < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.cache_size = int(cache_size)
        self.queue_depth = int(queue_depth)
        self.trace_dir = trace_dir
        self._prewarm_wire = [
            request_to_wire(
                r
                if isinstance(r, RunRequest)
                else RunRequest.from_dict(r, base=self.config),
                request_id=-1,
                index=0,
            )
            for r in prewarm
        ]
        self._event_sink = None if is_null_sink(event_sink) else event_sink
        self._event_seq = 0
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        # _emit's own lock: never the pool lock, so events can be emitted
        # from any pool method regardless of what locks the caller holds.
        self._seq_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        self._pool: List[_Worker] = []
        self._result_queue = None
        self._collector: Optional[threading.Thread] = None
        self._started = False
        self._closing = False
        self._crashes = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProcessPoolRunner":
        """Fork the workers and wait until every one reports ready."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._result_queue = self._ctx.Queue()
            for worker_id in range(self.workers):
                worker = _Worker(worker_id, self._ctx, self.queue_depth)
                worker.spawn(self._ctx, self._result_queue, self._worker_init(worker_id))
                self._pool.append(worker)
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collector", daemon=True
        )
        self._collector.start()
        deadline = monotonic() + 60.0
        while monotonic() < deadline:
            started = None
            with self._lock:
                if all(worker.ready for worker in self._pool):
                    started = [
                        (worker.worker_id, worker.process.pid)
                        for worker in self._pool
                    ]
                dead = [
                    worker
                    for worker in self._pool
                    if not worker.ready and not worker.process.is_alive()
                ]
            if started is not None:
                # Emit outside the pool lock: the sink is arbitrary user
                # code and must never run under (or re-take) self._lock.
                for worker_id, pid in started:
                    self._emit("worker-start", {"worker": worker_id, "pid": pid})
                return self
            if dead:
                self.close()
                raise ReproError(
                    f"worker {dead[0].worker_id} died during startup "
                    f"(exit code {dead[0].process.exitcode})"
                )
            threading.Event().wait(0.01)
        self.close()
        raise ReproError("process pool failed to become ready within 60s")

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
        with self._lock:
            if self._closing or not self._started:
                self._closing = True
                return
            self._closing = True
            pool = list(self._pool)
        for worker in pool:
            try:
                worker.queue.put(None, timeout=0.5)
            except queue_module.Full:
                pass  # will be terminated below
        for worker in pool:
            worker.process.join(timeout=_SHUTDOWN_GRACE)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_SHUTDOWN_GRACE)
            self._emit(
                "worker-exit",
                {"worker": worker.worker_id, "pid": worker.process.pid},
            )
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for pending in leftovers:
            self._resolve_exceptionless(
                pending,
                RunResult(
                    index=pending.index,
                    ok=False,
                    tag=pending.tag,
                    error="process pool closed before this request completed",
                    error_type="PoolClosed",
                ),
            )
        if self._collector is not None:
            self._collector.join(timeout=_SHUTDOWN_GRACE)

    def __enter__(self) -> "ProcessPoolRunner":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [worker.process.pid for worker in self._pool]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "workers": len(self._pool),
                "queue_depth": self.queue_depth,
                "pending": len(self._pending),
                "crashes": self._crashes,
                "restarts": sum(worker.restarts for worker in self._pool),
            }

    # -- events --------------------------------------------------------------

    def _emit(self, event_type: str, payload: Dict[str, object]) -> None:
        if self._event_sink is None:
            return
        from repro.observability.events import Event

        with self._seq_lock:
            self._event_seq += 1
            seq = self._event_seq
        self._event_sink.emit(Event(seq=seq, type=event_type, payload=payload))

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        request: Union[RunRequest, Dict],
        *,
        index: int = 0,
        block: bool = True,
    ) -> "Future[RunResult]":
        """Route one request to its fingerprint shard; resolve on completion.

        Admission failures (bad record, unpicklable tools) resolve the
        returned future immediately with a diagnostic ``ok=False`` result.
        With ``block=False`` a full worker queue raises
        :class:`OverloadedError` instead of waiting — the daemon's
        backpressure path.  With ``block=True`` the submit *waits* for
        space, which is the batch path's flow control.
        """
        if not self._started:
            self.start()
        if self._closing:
            raise ReproError("process pool is closed")
        if not isinstance(request, RunRequest):
            try:
                # base= so a record naming one config key (engine, lint,
                # max_steps, fault_policy) *overlays* the pool's config
                # instead of replacing it — otherwise a serve record with
                # any config key would silently shed the daemon's lint
                # gate and timeout.
                request = RunRequest.from_dict(request, base=self.config)
            except Exception as exc:
                return self._failed_future(admission_failure(index, request, exc))
        request_id = next(self._ids)
        try:
            wire = request_to_wire(request, request_id=request_id, index=index)
        except Exception as exc:
            return self._failed_future(
                admission_failure(index, {"tag": request.tag}, exc)
            )
        with self._lock:
            worker = self._pool[_shard(request.program, len(self._pool))]
            pending = _Pending(
                request_id=request_id,
                index=index,
                tag=request.tag,
                worker=worker.worker_id,
            )
            self._pending[request_id] = pending
            worker.inflight[request_id] = None
        try:
            if block:
                self._put_waiting(worker, request_id, wire)
            else:
                worker.queue.put_nowait(wire)
        except queue_module.Full:
            with self._lock:
                self._pending.pop(request_id, None)
                worker.inflight.pop(request_id, None)
            raise OverloadedError(
                f"worker {worker.worker_id} queue is full "
                f"(depth {self.queue_depth}); back off and retry"
            ) from None
        return pending.future

    def _put_waiting(self, worker: _Worker, request_id: int, wire) -> None:
        """Wait for queue space without ever waiting on a retired queue.

        A crash hands the worker a fresh queue and nothing reads the old
        one again, so a plain blocking ``put`` waiting on it would never
        return.  Poll instead: stop once the request is no longer pending
        (a crash or ``close()`` has already resolved its future), and
        otherwise retry on whatever queue the worker holds now.
        """
        while True:
            with self._lock:
                if request_id not in self._pending:
                    return
                target = worker.queue
            try:
                target.put(wire, timeout=0.1)
                return
            except queue_module.Full:
                continue

    def run(self, requests: Sequence[Union[RunRequest, Dict]]) -> List[RunResult]:
        """Run every request; results in submission order, never raising."""
        if not self._started:
            self.start()
        total = len(requests)
        self._emit("batch-start", {"total": total, "workers": self.workers})
        start = perf_counter()
        futures = [
            self.submit(request, index=index)
            for index, request in enumerate(requests)
        ]
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
    def _resolve_exceptionless(pending: _Pending, result: RunResult) -> None:
        if not pending.future.done():
            pending.future.set_result(result)

    # -- the collector thread ------------------------------------------------

    def _collect_loop(self) -> None:
        """Drain worker messages; watch liveness; restart crashed workers."""
        while True:
            if self._closing:
                with self._lock:
                    drained = not self._pending
                if drained:
                    return
            try:
                message = self._result_queue.get(timeout=0.05)
            except queue_module.Empty:
                self._check_liveness()
                continue
            except (EOFError, OSError):
                return  # queue torn down under us during close
            kind = message[0]
            if kind == "ready":
                with self._lock:
                    self._pool[message[1]].ready = True
            elif kind == "start":
                with self._lock:
                    worker = self._pool[message[1]]
                    worker.current = message[2]
                    pending = self._pending.get(message[2])
                    if pending is not None:
                        pending.started = True
            elif kind == "done":
                _, worker_id, request_id, payload = message
                with self._lock:
                    worker = self._pool[worker_id]
                    if worker.current == request_id:
                        worker.current = None
                    worker.inflight.pop(request_id, None)
                    pending = self._pending.pop(request_id, None)
                if pending is not None:
                    self._resolve_exceptionless(
                        pending, RunResult.from_dict(payload)
                    )

    def _check_liveness(self) -> None:
        """Fail every unacked request of any dead worker; fork a replacement.

        ``worker.current`` (the "start"-acked request) is not enough: a
        worker can die *after* dequeuing a request but *before* its
        "start" message is delivered, leaving a request that is neither
        current nor still in the queue — its future would never resolve.
        So a crash fails the whole unacked set for that worker (running
        *and* queued requests alike) rather than guessing which single
        one was in flight; nothing submitted to a dead worker can hang.

        The replacement gets a fresh request queue: a worker killed while
        idle in ``queue.get()`` dies holding the queue's read lock, which
        would block its replacement forever.  Wires left in the old queue
        belong to requests that were just failed, so dropping them loses
        nothing.
        """
        if self._closing:
            return
        with self._lock:
            dead = [
                worker
                for worker in self._pool
                if worker.process is not None and not worker.process.is_alive()
            ]
        for worker in dead:
            if self._closing:
                return
            exitcode = worker.process.exitcode
            pid = worker.process.pid
            with self._lock:
                in_flight = worker.current
                lost = [
                    pending
                    for request_id in list(worker.inflight)
                    for pending in (self._pending.pop(request_id, None),)
                    if pending is not None
                ]
                worker.inflight.clear()
                worker.restarts += 1
                self._crashes += 1
                # Never join the stale queue's feeder thread at exit.
                worker.queue.cancel_join_thread()
                worker.queue = self._ctx.Queue(maxsize=self.queue_depth)
                worker.spawn(
                    self._ctx,
                    self._result_queue,
                    self._worker_init(worker.worker_id),
                )
            self._emit(
                "worker-crash",
                {
                    "worker": worker.worker_id,
                    "pid": pid,
                    "exitcode": exitcode,
                    "in_flight": in_flight,
                    "failed": len(lost),
                },
            )
            self._emit(
                "worker-start",
                {"worker": worker.worker_id, "pid": worker.process.pid},
            )
            for pending in lost:
                ran = pending.started or pending.request_id == in_flight
                self._resolve_exceptionless(
                    pending,
                    RunResult(
                        index=pending.index,
                        ok=False,
                        tag=pending.tag,
                        error=(
                            f"worker {worker.worker_id} (pid {pid}) died with "
                            f"exit code {exitcode} "
                            + (
                                "while running this request"
                                if ran
                                else "with this request queued on it"
                            )
                            + "; a replacement worker was started"
                        ),
                        error_type="WorkerCrashed",
                    ),
                )


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "OverloadedError",
    "ProcessPoolRunner",
    "request_from_wire",
    "request_to_wire",
    "route_key",
]
