"""Batched concurrent serving: ``RunRequest`` in, ``RunResult`` out.

The :class:`BatchRunner` executes many monitored evaluations over a
thread pool, with the guarantees a serving layer needs:

* **deterministic ordering** — results come back in submission order,
  regardless of completion order;
* **per-request isolation** — every request gets its own fault log and
  (when telemetry is on) its own ``RunMetrics`` accumulator; a monitor
  fault or timeout in one request never contaminates another;
* **per-request timeouts** — ``RunRequest.timeout`` (or the config's
  ``timeout``) bounds each run's wall clock, enforced cooperatively by
  the trampoline (:class:`repro.errors.EvaluationTimeout`);
* **failure capture** — :meth:`BatchRunner.run` never raises for a
  request's failure; errors come back as ``ok=False`` results carrying
  the exception type and message.

Compilation is shared through a :class:`~repro.runtime.cache.
CompilationCache`, so a batch of repeated programs compiles each distinct
(program, monitor stack, fault policy) once.  Threads buy concurrency for
cache hits and interleaved I/O, not CPU parallelism (the GIL); the win of
a warm pool is the amortized compile, which is exactly what
``benchmarks/bench_batch.py`` measures.

A note on honesty: monitored evaluation is pure Python, so a hostile
``while true`` still occupies its worker until the cooperative deadline
fires — the timeout bounds wall clock, it does not preempt.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.runtime.cache import CompilationCache
from repro.runtime.config import RunConfig

#: Default worker-pool width for :func:`run_batch`.
DEFAULT_WORKERS = 4


def check_timeout(timeout: object) -> Optional[float]:
    """Validate a per-request ``timeout`` override (``None`` passes).

    Mirrors :meth:`RunConfig.validate`'s rule at the admission boundary:
    a JSONL record carrying ``"timeout": 0`` (or a negative value, or a
    non-number) must be rejected *here*, before the override is spliced
    into a config — historically ``replace(cfg, timeout=...)`` skipped
    re-validation and let the bad value through.
    """
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise ValueError(
            f"timeout must be a number of seconds, got {timeout!r}"
        )
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout!r}")
    return float(timeout)


def _checked_config(config: Optional[RunConfig]) -> RunConfig:
    if config is None:
        return RunConfig().validate()
    if not isinstance(config, RunConfig):
        raise TypeError(
            f"config= expects a RunConfig, got {type(config).__name__}"
        )
    return config.validate()


def language_by_name(name: Optional[str]):
    """Resolve a language module by CLI name (``None`` → strict)."""
    if name is None or isinstance(name, str) and not name:
        return None
    if not isinstance(name, str):
        return name  # already a language object
    from repro.languages import by_name

    return by_name(name)


@dataclass(frozen=True)
class RunRequest:
    """One unit of work for the batch runner.

    ``program`` is surface syntax or a parsed AST; ``tools`` is anything
    the toolbox accepts (names, specs, stacks, ``"profile & trace"``).
    ``config`` overrides the runner's default :class:`RunConfig` for this
    request; ``timeout`` (seconds) overrides the config's timeout.
    ``tag`` is an opaque caller label echoed on the result.
    """

    program: object
    tools: object = ()
    language: object = None
    config: Optional[RunConfig] = None
    timeout: Optional[float] = None
    tag: Optional[str] = None

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], *, base: Optional[RunConfig] = None
    ) -> "RunRequest":
        """Build a request from a JSONL record (the ``repro batch`` format).

        Recognized keys: ``program`` (required), ``tools``, ``language``,
        ``engine``, ``fault_policy``, ``max_steps``, ``timeout``, ``tag``.
        ``base`` (the CLI's flag-derived config) supplies defaults for the
        per-record keys; record keys override only the fields they name.
        """
        known = {
            "program",
            "tools",
            "language",
            "engine",
            "fault_policy",
            "max_steps",
            "timeout",
            "lint",
            "tag",
            "mode",
            "record_dir",
            "sample_rate",
            "trace_seed",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown batch request key(s): {sorted(unknown)}")
        if "program" not in data:
            raise ValueError("batch request is missing its 'program'")
        config = base
        config_keys = {
            "engine",
            "fault_policy",
            "max_steps",
            "lint",
            "mode",
            "record_dir",
            "sample_rate",
            "trace_seed",
        } & set(data)
        if config_keys:
            overrides = {key: data[key] for key in config_keys}
            config = (
                replace(base, **overrides)  # type: ignore[arg-type]
                if base is not None
                else RunConfig(**overrides)  # type: ignore[arg-type]
            )
        return cls(
            program=data["program"],
            tools=data.get("tools", ()),
            language=language_by_name(data.get("language")),
            config=config,
            timeout=check_timeout(data.get("timeout")),
            tag=data.get("tag"),
        )


@dataclass(frozen=True)
class RunResult:
    """The outcome of one request, success or failure.

    ``faults`` holds the comparable fault tuples
    ``(monitor_key, phase, error_type, message)`` captured under a
    non-``propagate`` policy.  ``monitored`` keeps the full
    :class:`~repro.monitoring.derive.MonitoredResult` (when monitors ran)
    for callers that want states rather than rendered reports.

    ``diagnostics`` carries the static analyzer's findings when the
    request ran with ``lint="warn"`` (attached to a successful result)
    or was rejected at admission under ``lint="error"`` (an ``ok=False``
    result with ``error_type="StaticAnalysisError"`` — the program was
    never executed).
    """

    index: int
    ok: bool
    tag: Optional[str] = None
    answer: object = None
    reports: Dict[str, object] = field(default_factory=dict)
    faults: Tuple[Tuple[str, str, str, str], ...] = ()
    error: Optional[str] = None
    error_type: Optional[str] = None
    timed_out: bool = False
    duration: float = 0.0
    metrics: object = None
    monitored: object = None
    diagnostics: Tuple = ()
    #: Path of the event trace a record-mode request wrote (else None);
    #: serialized on the wire, so batch output and serve responses carry
    #: the trace ref back to the client.
    trace: Optional[str] = None

    def to_dict(self, *, render=None) -> Dict[str, object]:
        """A JSON-friendly projection (``render`` maps non-JSON values).

        ``duration`` (seconds of wall clock spent on the request) is always
        present: it is what ``--stats`` and serving clients read latency
        from — historically it was measured but dropped here, so batch and
        serve JSONL output carried no latency field at all.
        """
        show = render if render is not None else _render_value
        out: Dict[str, object] = {"index": self.index, "ok": self.ok}
        if self.tag is not None:
            out["tag"] = self.tag
        if self.ok:
            out["answer"] = show(self.answer)
            if self.reports:
                out["reports"] = {k: show(v) for k, v in self.reports.items()}
            if self.faults:
                out["faults"] = [list(f) for f in self.faults]
            if self.trace is not None:
                out["trace"] = self.trace
        else:
            out["error"] = self.error
            out["error_type"] = self.error_type
            if self.timed_out:
                out["timed_out"] = True
        out["duration"] = self.duration
        if self.diagnostics:
            # Diagnostics that crossed a process boundary are already
            # plain dicts (from_dict keeps them that way); re-rendering
            # must be idempotent or the serve path would crash re-emitting
            # a worker's lint rejection.
            out["diagnostics"] = [
                d if isinstance(d, dict) else d.to_dict()
                for d in self.diagnostics
            ]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a result from its :meth:`to_dict` projection.

        This is the receiving half of the serialization boundary: process-
        pool workers and ``repro serve`` clients see *rendered* results —
        ``answer``/``reports`` are the JSON-safe projections, and the
        in-process-only fields (``metrics``, ``monitored``) stay ``None``.
        ``diagnostics`` come back as the plain dicts ``to_dict`` emitted.
        """
        return cls(
            index=int(data.get("index", 0)),
            ok=bool(data.get("ok", False)),
            tag=data.get("tag"),
            answer=data.get("answer"),
            reports=dict(data.get("reports", {})),
            faults=tuple(tuple(f) for f in data.get("faults", ())),
            error=data.get("error"),
            error_type=data.get("error_type"),
            timed_out=bool(data.get("timed_out", False)),
            duration=float(data.get("duration", 0.0)),
            diagnostics=tuple(data.get("diagnostics", ())),
            trace=data.get("trace"),
        )


def _render_value(value: object) -> object:
    """JSON-safe rendering: scalars pass, containers recurse, rest ``str``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _render_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render_value(item) for item in value]
    from repro.semantics.values import value_to_string

    try:
        return value_to_string(value)
    except Exception:
        return str(value)


def admission_failure(
    index: int, record: object, exc: BaseException
) -> RunResult:
    """The ``ok=False`` result for a record rejected before execution.

    Bad records — unknown keys, a missing program, an invalid ``timeout``
    — fail *their own slot* and nothing else: the batch keeps running and
    the JSONL consumer sees a diagnostic result in submission order
    instead of the whole batch raising.
    """
    tag = record.get("tag") if isinstance(record, dict) else None
    return RunResult(
        index=index,
        ok=False,
        tag=tag if isinstance(tag, str) else None,
        error=str(exc),
        error_type=type(exc).__name__,
    )


def execute_request(
    index: int,
    request: RunRequest,
    *,
    config: RunConfig,
    cache: Optional[CompilationCache] = None,
) -> RunResult:
    """Run one request in full isolation; exceptions become results.

    The single-request engine behind both the thread-pooled
    :class:`BatchRunner` and the process-pool workers
    (:mod:`repro.runtime.process_pool`) — one definition of how a request
    turns into a :class:`RunResult`, whatever pool it ran on.  ``config``
    supplies defaults when the request carries none.
    """
    from repro.analysis import StaticAnalysisError
    from repro.errors import EvaluationTimeout

    start = perf_counter()
    try:
        cfg = request.config if request.config is not None else config
        if request.timeout is not None:
            # Re-validate after splicing the override: a bad per-request
            # timeout must fail this request, not slip past the config's
            # "timeout must be positive" check (or crash the pool).
            cfg = replace(
                cfg, timeout=check_timeout(request.timeout)
            ).validate()
        cfg = cfg.with_fresh_metrics()  # never share counters across requests
        from repro.toolbox.registry import evaluate

        outcome = evaluate(
            request.tools,
            request.program,
            language=request.language,
            config=cfg,
            cache=cache,
        )
    except StaticAnalysisError as exc:
        # Rejected at admission: the program never executed.  The
        # structured findings ride along so the JSONL consumer can
        # show codes and source locations, not just a message.
        return RunResult(
            index=index,
            ok=False,
            tag=request.tag,
            error=str(exc),
            error_type=type(exc).__name__,
            duration=perf_counter() - start,
            diagnostics=tuple(exc.diagnostics),
        )
    except EvaluationTimeout as exc:
        return RunResult(
            index=index,
            ok=False,
            tag=request.tag,
            error=str(exc),
            error_type=type(exc).__name__,
            timed_out=True,
            duration=perf_counter() - start,
        )
    except Exception as exc:
        return RunResult(
            index=index,
            ok=False,
            tag=request.tag,
            error=str(exc),
            error_type=type(exc).__name__,
            duration=perf_counter() - start,
        )
    monitored = outcome.monitored
    faults: Tuple = ()
    if monitored is not None and monitored.faults:
        from repro.observability.events import fault_tuples

        faults = tuple(fault_tuples(monitored.faults))
    return RunResult(
        index=index,
        ok=True,
        tag=request.tag,
        answer=outcome.answer,
        reports=monitored.reports() if monitored is not None else {},
        faults=faults,
        duration=perf_counter() - start,
        metrics=outcome.metrics,
        monitored=monitored,
        diagnostics=tuple(outcome.diagnostics),
        trace=getattr(outcome, "trace", None),
    )


class BatchRunner:
    """Execute :class:`RunRequest` batches over a worker pool.

    ``config`` is the default for requests that carry none; ``cache`` is
    shared by every worker (one is created if omitted); ``workers=1``
    degenerates to sequential execution, which the parity tests use as
    the oracle.  ``event_sink`` receives ``batch-start`` /
    ``batch-request`` / ``batch-end`` events (``batch-request`` in
    *completion* order — that is the point of the event).
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        config: Optional[RunConfig] = None,
        cache: Optional[CompilationCache] = None,
        event_sink=None,
    ) -> None:
        from repro.observability.sinks import is_null_sink

        self.workers = DEFAULT_WORKERS if workers is None else max(1, int(workers))
        self.config = _checked_config(config)
        self.cache = cache if cache is not None else CompilationCache()
        self._event_sink = None if is_null_sink(event_sink) else event_sink
        self._seq = 0
        self._seq_lock = threading.Lock()

    # -- events --------------------------------------------------------------

    def _emit(self, event_type: str, payload: Dict[str, object]) -> None:
        if self._event_sink is None:
            return
        from repro.observability.events import Event

        with self._seq_lock:
            self._seq += 1
            seq = self._seq
            self._event_sink.emit(Event(seq=seq, type=event_type, payload=payload))

    # -- execution -----------------------------------------------------------

    def run(self, requests: Sequence[Union[RunRequest, Dict]]) -> List[RunResult]:
        """Run every request; results in submission order, never raising.

        A record :meth:`RunRequest.from_dict` rejects (unknown key, missing
        program, invalid ``timeout``) becomes a diagnostic ``ok=False``
        result in its slot rather than failing the whole batch.
        """
        normalized: List[Union[RunRequest, RunResult]] = []
        for index, request in enumerate(requests):
            if isinstance(request, RunRequest):
                normalized.append(request)
            else:
                try:
                    # base= so a record's config keys overlay the runner's
                    # config rather than replacing it wholesale.
                    normalized.append(
                        RunRequest.from_dict(request, base=self.config)
                    )
                except Exception as exc:
                    normalized.append(admission_failure(index, request, exc))
        total = len(normalized)
        self._emit("batch-start", {"total": total, "workers": self.workers})
        start = perf_counter()
        results: List[Optional[RunResult]] = [None] * total
        rejected = [
            entry for entry in normalized if isinstance(entry, RunResult)
        ]
        runnable = [
            (index, entry)
            for index, entry in enumerate(normalized)
            if isinstance(entry, RunRequest)
        ]
        for failure in rejected:
            results[failure.index] = self._finish(failure)
        if self.workers <= 1 or len(runnable) <= 1:
            for index, request in runnable:
                results[index] = self._finish(self._execute(index, request))
        else:
            from concurrent.futures import ThreadPoolExecutor, as_completed

            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                futures = {
                    pool.submit(self._execute, index, request): index
                    for index, request in runnable
                }
                for future in as_completed(futures):
                    result = self._finish(future.result())
                    results[result.index] = result
        done = [result for result in results if result is not None]
        succeeded = sum(1 for result in done if result.ok)
        self._emit(
            "batch-end",
            {
                "total": total,
                "succeeded": succeeded,
                "failed": total - succeeded,
                "duration": perf_counter() - start,
            },
        )
        return done

    def _finish(self, result: RunResult) -> RunResult:
        self._emit(
            "batch-request",
            {"index": result.index, "ok": result.ok, "duration": result.duration},
        )
        return result

    def _execute(self, index: int, request: RunRequest) -> RunResult:
        return execute_request(
            index, request, config=self.config, cache=self.cache
        )


def run_batch(
    requests: Sequence[Union[RunRequest, Dict]],
    *,
    workers: Optional[int] = None,
    config: Optional[RunConfig] = None,
    cache: Optional[CompilationCache] = None,
    event_sink=None,
) -> List[RunResult]:
    """Run a batch with a one-off :class:`BatchRunner` (the friendly entry)."""
    runner = BatchRunner(
        workers=workers, config=config, cache=cache, event_sink=event_sink
    )
    return runner.run(requests)


class Runtime:
    """The serving facade: one config, one cache, one pool width.

    Hold a ``Runtime`` for the life of a service; route single requests
    through :meth:`run` and batches through :meth:`run_batch` — both share
    the compiled-program cache, so steady-state traffic never recompiles.

    ``executor`` picks the batch tier: ``"thread"`` (the default — cache
    sharing, GIL-bound CPU) or ``"process"`` (a lazily-started
    :class:`~repro.runtime.process_pool.ProcessPoolRunner`: real CPU
    parallelism, per-worker caches of ``cache_size``, fingerprint-sharded
    routing).  :meth:`run` always executes in-process either way — only
    batches fan out.  With the process executor, call :meth:`close` (or
    use the runtime as a context manager) when done.
    """

    def __init__(
        self,
        *,
        config: Optional[RunConfig] = None,
        workers: Optional[int] = None,
        cache_size: int = 128,
        event_sink=None,
        executor: str = "thread",
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        self.config = _checked_config(config)
        self.workers = DEFAULT_WORKERS if workers is None else max(1, int(workers))
        self.cache = CompilationCache(cache_size, event_sink=event_sink)
        self.event_sink = event_sink
        self.executor = executor
        self._cache_size = cache_size
        self._process_pool = None

    def run(self, tools, program, *, language=None, config: Optional[RunConfig] = None):
        """One monitored evaluation through the shared cache.

        Returns the toolbox :class:`~repro.toolbox.registry.EvaluationResult`.
        """
        from repro.toolbox.registry import evaluate

        return evaluate(
            tools,
            program,
            language=language,
            config=config if config is not None else self.config,
            cache=self.cache,
        )

    def run_batch(
        self, requests: Sequence[Union[RunRequest, Dict]]
    ) -> List[RunResult]:
        if self.executor == "process":
            return self._pool().run(requests)
        runner = BatchRunner(
            workers=self.workers,
            config=self.config,
            cache=self.cache,
            event_sink=self.event_sink,
        )
        return runner.run(requests)

    def _pool(self):
        if self._process_pool is None:
            from repro.runtime.process_pool import ProcessPoolRunner

            self._process_pool = ProcessPoolRunner(
                workers=self.workers,
                config=self.config,
                cache_size=self._cache_size,
                event_sink=self.event_sink,
            ).start()
        return self._process_pool

    def close(self) -> None:
        """Stop the process pool, if one was started (threads need nothing)."""
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_stats(self):
        return self.cache.stats()


__all__ = [
    "DEFAULT_WORKERS",
    "BatchRunner",
    "RunRequest",
    "RunResult",
    "Runtime",
    "admission_failure",
    "check_timeout",
    "execute_request",
    "language_by_name",
    "run_batch",
]
