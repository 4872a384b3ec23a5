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
(program, language, monitor stack, optimization level) once.  Threads buy concurrency for
cache hits and interleaved I/O, not CPU parallelism (the GIL); the win of
a warm pool is the amortized compile, which is exactly what
``benchmarks/bench_batch.py`` measures.

A note on honesty: monitored evaluation is pure Python, so a hostile
``while true`` still occupies its worker until the cooperative deadline
fires — the timeout bounds wall clock, it does not preempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.runtime.cache import CompilationCache
from repro.runtime.config import OPTIONS, RunConfig

#: Default worker-pool width for :func:`run_batch`.
DEFAULT_WORKERS = 4


def language_by_name(name: Optional[str]):
    """Resolve a language module by CLI name (``None`` → strict)."""
    if name is None or isinstance(name, str) and not name:
        return None
    if not isinstance(name, str):
        return name  # already a language object
    from repro.languages import by_name

    return by_name(name)


#: The keys of a batch or serve record that are not run options.
REQUEST_FIELDS = frozenset(("program", "tools", "language", "tag"))


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
        cls,
        data: Dict[str, object],
        *,
        base: Optional[RunConfig] = None,
        surface: str = "batch",
    ) -> "RunRequest":
        """Build a request from a JSONL record (the ``repro batch`` format).

        Keys: ``program`` (required), ``tools``, ``language``, ``tag`` and
        the run options that :data:`repro.runtime.config.OPTIONS` lets a
        ``surface`` record set, laid over ``base`` (the runner's config) by
        :meth:`RunConfig.overlay`: a bad or loosening record fails here.
        """
        unknown = set(data) - REQUEST_FIELDS - OPTIONS.keys()
        if unknown:
            raise ValueError(f"unknown {surface} request key(s): {sorted(unknown)}")
        if "program" not in data:
            raise ValueError(f"{surface} request is missing its 'program'")
        options = {key: data[key] for key in data if key not in REQUEST_FIELDS}
        return cls(
            program=data["program"],
            tools=data.get("tools", ()),
            language=language_by_name(data.get("language")),
            config=(base or RunConfig()).overlay(options, surface) if options else base,
            tag=data.get("tag"),
        )


@dataclass(frozen=True)
class RunResult:
    """The outcome of one request, success or failure.

    ``faults`` holds the comparable fault tuples
    ``(monitor_key, phase, error_type, message)`` captured under a
    non-``propagate`` policy.

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
    diagnostics: Tuple = ()
    #: Path of the event trace a record-mode request wrote (else None);
    #: serialized on the wire, so batch output and serve responses carry
    #: the trace ref back to the client.
    trace: Optional[str] = None

    def to_dict(self, *, render=None) -> Dict[str, object]:
        """A JSON-friendly projection (``render`` maps non-JSON values).

        ``duration`` (seconds of wall clock spent on the request) is always
        present: it is what ``--stats`` and serving clients read latency
        from.
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
        in-process-only field ``metrics`` stays ``None``.
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


def admit(
    index: int,
    request: Union[RunRequest, Dict],
    base: RunConfig,
    surface: str = "batch",
) -> Union[RunRequest, RunResult]:
    """Admit one submission: a dict record becomes a :class:`RunRequest`.

    The one admission step both pools share — they differ only in how
    they execute what this returns.  ``base`` is the runner's config,
    which a ``surface`` record's options overlay (:meth:`RunRequest.
    from_dict`); a record rejected there comes back as its
    :func:`admission_failure` result instead.
    """
    if isinstance(request, RunRequest):
        return request
    try:
        return RunRequest.from_dict(request, base=base, surface=surface)
    except Exception as exc:
        return admission_failure(index, request, exc)


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
            # timeout must fail this request, not crash the pool.
            cfg = replace(cfg, timeout=request.timeout).validate()
        cfg = cfg.with_fresh_metrics()  # never share counters across requests
        from repro.toolbox.registry import evaluate

        outcome = evaluate(
            request.tools,
            request.program,
            language=request.language,
            config=cfg,
            cache=cache,
        )
    except Exception as exc:
        # A lint rejection (the program never executed) carries its
        # structured findings, so the JSONL consumer can show codes and
        # source locations, not just a message.
        return RunResult(
            index=index,
            ok=False,
            tag=request.tag,
            error=str(exc),
            error_type=type(exc).__name__,
            timed_out=isinstance(exc, EvaluationTimeout),
            duration=perf_counter() - start,
            diagnostics=(
                tuple(exc.diagnostics) if isinstance(exc, StaticAnalysisError) else ()
            ),
        )
    monitored = outcome.monitored
    faults: Tuple = ()
    if monitored is not None and monitored.faults:
        from repro.monitoring.faults import fault_tuples

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
        self.workers = DEFAULT_WORKERS if workers is None else max(1, int(workers))
        self.config = RunConfig.checked(config)
        self.cache = cache if cache is not None else CompilationCache()
        self._event_sink = event_sink

    # -- events --------------------------------------------------------------

    def _emit(self, event_type: str, payload: Dict[str, object]) -> None:
        if self._event_sink is not None:
            self._event_sink.emit(event_type, payload)

    # -- execution -----------------------------------------------------------

    def run(self, requests: Sequence[Union[RunRequest, Dict]]) -> List[RunResult]:
        """Run every request; results in submission order, never raising.

        A record :func:`admit` rejects (unknown key, missing program, an
        invalid option) becomes a diagnostic ``ok=False`` result in its
        slot rather than failing the whole batch.
        """
        normalized = [
            admit(index, request, self.config)
            for index, request in enumerate(requests)
        ]
        total = len(normalized)
        self._emit("batch-start", {"total": total, "workers": self.workers})
        start = perf_counter()
        results: List[Optional[RunResult]] = [None] * total
        runnable = []
        for index, entry in enumerate(normalized):
            if isinstance(entry, RunResult):
                results[index] = self._finish(entry)
            else:
                runnable.append((index, entry))
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
        self.config = RunConfig.checked(config)
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
    "admit",
    "execute_request",
    "language_by_name",
    "run_batch",
]
