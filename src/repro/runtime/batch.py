"""Batched serving: ``RunRequest`` in, ``RunResult`` out.

The :class:`BatchRunner` executes many monitored evaluations in process,
one after another, with the guarantees a serving layer needs:

* **deterministic ordering** — requests run, and results come back, in
  submission order;
* **per-request isolation** — every request gets its own fault log and
  (when telemetry is on) its own ``RunMetrics`` accumulator; a monitor
  fault or timeout in one request never contaminates another;
* **per-request timeouts** — the request's config ``timeout`` (a
  record's ``"timeout"`` key, or the runner's) bounds each run's wall
  clock, enforced cooperatively by the trampoline
  (:class:`repro.errors.EvaluationTimeout`);
* **failure capture** — :meth:`BatchRunner.run` never raises for a
  request's failure; errors come back as ``ok=False`` results carrying
  the exception type and message.

Compilation is shared through a :class:`~repro.runtime.cache.
CompilationCache`, so a batch of repeated programs compiles each distinct
(program, language, monitor stack, optimization level) once; the win of
a warm cache is the amortized compile, which is exactly what
``benchmarks/bench_batch.py`` measures.  Monitored evaluation is pure
Python, so threads could not run requests in parallel (the GIL); a batch
that needs more than one core goes through
:class:`~repro.runtime.process_pool.ProcessPoolRunner`, which has the
same ``run()`` contract.

A note on honesty: a hostile ``while true`` occupies the batch until the
cooperative deadline fires — the timeout bounds wall clock, it does not
preempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.runtime.cache import CompilationCache
from repro.runtime.config import OPTIONS, RunConfig


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
    request.  ``tag`` is an opaque caller label echoed on the result.
    """

    program: object
    tools: object = ()
    language: object = None
    config: Optional[RunConfig] = None
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

    The single-request engine behind both the in-process
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
    """Execute :class:`RunRequest` batches in process, in submission order.

    ``config`` is the default for requests that carry none; ``cache`` is
    shared by every request (one is created if omitted).  ``workers`` is
    accepted and ignored: requests run one after another on the calling
    thread, and a parallel batch goes through
    :class:`~repro.runtime.process_pool.ProcessPoolRunner`.
    ``event_sink`` receives ``batch-start`` / ``batch-request`` /
    ``batch-end`` events, ``batch-request`` once per request in
    submission order.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        config: Optional[RunConfig] = None,
        cache: Optional[CompilationCache] = None,
        event_sink=None,
    ) -> None:
        self.config = RunConfig.checked(config)
        self.cache = cache if cache is not None else CompilationCache()
        self._event_sink = event_sink

    def _emit(self, event_type: str, payload: Dict[str, object]) -> None:
        if self._event_sink is not None:
            self._event_sink.emit(event_type, payload)

    def run(self, requests: Sequence[Union[RunRequest, Dict]]) -> List[RunResult]:
        """Run every request; results in submission order, never raising.

        A record :func:`admit` rejects (unknown key, missing program, an
        invalid option) becomes a diagnostic ``ok=False`` result in its
        slot rather than failing the whole batch.
        """
        admitted = [
            admit(index, request, self.config)
            for index, request in enumerate(requests)
        ]
        total = len(admitted)
        self._emit("batch-start", {"total": total})
        start = perf_counter()
        results: List[RunResult] = []
        for index, entry in enumerate(admitted):
            result = entry if isinstance(entry, RunResult) else execute_request(
                index, entry, config=self.config, cache=self.cache
            )
            self._emit(
                "batch-request",
                {"index": index, "ok": result.ok, "duration": result.duration},
            )
            results.append(result)
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


def run_batch(
    requests: Sequence[Union[RunRequest, Dict]],
    *,
    config: Optional[RunConfig] = None,
    cache: Optional[CompilationCache] = None,
    event_sink=None,
) -> List[RunResult]:
    """Run a batch with a one-off :class:`BatchRunner` (the friendly entry)."""
    return BatchRunner(config=config, cache=cache, event_sink=event_sink).run(
        requests
    )


__all__ = [
    "BatchRunner",
    "RunRequest",
    "RunResult",
    "admission_failure",
    "admit",
    "execute_request",
    "language_by_name",
    "run_batch",
]
