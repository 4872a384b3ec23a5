"""``RunConfig``: one frozen value for every run option the system takes.

The options controlling a single run — ``engine``, ``fault_policy``,
``max_steps``, ``metrics``, ``event_sink``, ``answers``,
``check_disjointness``, ``timeout``, ``lint`` and the record/replay
settings — have one spelling: build a :class:`RunConfig` once and pass it
as ``config=`` to ``run_monitored``, the toolbox ``evaluate``,
``Session.evaluate``, ``debug``, ``record`` or a batch runner, then reuse
it for a thousand requests.  Every entry point admits its config through
:meth:`RunConfig.checked` (``None`` means the defaults).

``timeout`` is a per-run wall-clock budget in seconds, enforced
cooperatively by the trampoline (see
:func:`repro.semantics.trampoline.trampoline`) and used by the batch
runtime for per-request timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, Optional

from repro.monitoring.faults import check_fault_policy
from repro.observability.metrics import RunMetrics
from repro.observability.sinks import EventSink
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS


@dataclass(frozen=True)
class RunConfig:
    """The options governing one (or many identical) monitored runs.

    Frozen so a config can be shared across threads and reused as a
    default for a whole batch without aliasing surprises.  Note that
    ``metrics`` is a *mutable accumulator*: sharing one config across
    concurrent runs shares the counters too, which is why the batch
    runner swaps in a fresh ``RunMetrics`` per request
    (:meth:`with_fresh_metrics`).
    """

    engine: str = "reference"
    fault_policy: str = "propagate"
    max_steps: Optional[int] = None
    metrics: Optional[RunMetrics] = None
    event_sink: Optional[EventSink] = None
    answers: AnswerAlgebra = STANDARD_ANSWERS
    check_disjointness: bool = True
    timeout: Optional[float] = None
    #: Static-analysis gate: "off" skips the analyzer, "warn" attaches
    #: diagnostics to the result, "error" rejects failing programs at
    #: admission with a StaticAnalysisError (see repro.analysis).
    lint: str = "off"
    #: Execution mode: "inline" runs monitors live (the historical
    #: behavior); "record" runs the program once with the trace recorder
    #: instead, writing an event trace under ``record_dir`` and returning
    #: the trace path on the result — fold stacks over it later with
    #: :func:`repro.tracing.analyze_trace`.
    mode: str = "inline"
    #: Directory record-mode traces are written to (one file per run).
    record_dir: Optional[str] = None
    #: Deterministic activation sampling for record mode: the fraction of
    #: activations kept (1.0 = everything), decided per (seed, site,
    #: occurrence) — never wall clock — so traces are seed-reproducible.
    sample_rate: float = 1.0
    #: The sampling seed (see :func:`repro.tracing.sample_includes`).
    trace_seed: int = 0
    #: Replay checkpoint cadence: when a recorded trace is opened for
    #: time travel (``repro replay``, :class:`repro.replay.ReplaySession`)
    #: the fold snapshots its monitor-state vector every this-many events,
    #: so seeking to event *k* replays at most ``checkpoint_interval``
    #: events from the nearest checkpoint instead of all *k* from the
    #: start.  Smaller = faster seeks, more checkpoint memory.
    checkpoint_interval: int = 512
    #: Static-optimization level: "none" (default) changes nothing;
    #: "flow" runs the claim-flow analysis (:mod:`repro.analysis.flow`)
    #: and lets consumers exploit it — codegen erases hooks at provably
    #: unreachable sites, record mode skips tracing them, and the lint
    #: gate includes the ``REP5xx`` pass.  Observable behavior (reports,
    #: metrics, fault records) is property-tested identical either way.
    optimize: str = "none"

    def validate(self) -> "RunConfig":
        """Check the enumerated fields; returns ``self`` for chaining."""
        from repro.analysis.diagnostics import check_lint_level
        from repro.languages.base import check_engine

        check_engine(self.engine)
        check_fault_policy(self.fault_policy)
        check_lint_level(self.lint)
        # Batch and serve records set these straight from JSON, so the
        # type is checked too: a bool is not a budget, and a fractional
        # step budget would split the engines.
        if self.max_steps is not None and not (
            _is_int(self.max_steps) and self.max_steps > 0
        ):
            raise ValueError(
                f"max_steps must be a positive integer, got {self.max_steps!r}"
            )
        if self.timeout is not None:
            if not _is_number(self.timeout):
                raise ValueError(
                    f"timeout must be a number of seconds, got {self.timeout!r}"
                )
            if self.timeout <= 0:
                raise ValueError(f"timeout must be positive, got {self.timeout!r}")
        if self.mode not in ("inline", "record"):
            raise ValueError(
                f"mode must be 'inline' or 'record', got {self.mode!r}"
            )
        if not _is_number(self.sample_rate):
            raise ValueError(
                f"sample_rate must be a number, got {self.sample_rate!r}"
            )
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be within [0, 1], got {self.sample_rate!r}"
            )
        if not _is_int(self.trace_seed):
            raise ValueError(
                f"trace_seed must be an integer, got {self.trace_seed!r}"
            )
        if not _is_int(self.checkpoint_interval) or self.checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be a positive integer, got "
                f"{self.checkpoint_interval!r}"
            )
        if self.optimize not in ("none", "flow"):
            raise ValueError(
                f"optimize must be 'none' or 'flow', got {self.optimize!r}"
            )
        return self

    @classmethod
    def checked(cls, config: "Optional[RunConfig]") -> "RunConfig":
        """Admit an entry point's ``config=`` argument.

        ``None`` means the defaults; anything but a ``RunConfig`` is a
        ``TypeError``; the result is validated.
        """
        if config is None:
            return cls().validate()
        if not isinstance(config, cls):
            raise TypeError(
                f"config= expects a RunConfig, got {type(config).__name__}"
            )
        return config.validate()

    def deadline(self) -> Optional[float]:
        """The ``perf_counter`` deadline this run must finish by, or ``None``."""
        if self.timeout is None:
            return None
        return perf_counter() + self.timeout

    def wants_telemetry(self) -> bool:
        from repro.observability.sinks import is_null_sink

        return self.metrics is not None or not is_null_sink(self.event_sink)

    def with_fresh_metrics(self) -> "RunConfig":
        """A copy whose ``metrics`` is a new accumulator (if metrics are on).

        The batch runner calls this per request so concurrent runs never
        share counters (per-request isolation).
        """
        if self.metrics is None:
            return self
        return replace(self, metrics=RunMetrics())

    #: The JSON-safe subset of the fields — everything a run option can be
    #: on the far side of a process boundary.  ``metrics``, ``event_sink``
    #: and ``answers`` are deliberately absent: accumulators and sinks are
    #: per-process objects (workers attach their own), and answer algebras
    #: carry functions.
    SCALAR_FIELDS = (
        "engine",
        "fault_policy",
        "max_steps",
        "check_disjointness",
        "timeout",
        "lint",
        "mode",
        "record_dir",
        "sample_rate",
        "trace_seed",
        "checkpoint_interval",
        "optimize",
    )

    def scalars(self) -> Dict[str, object]:
        """The config's JSON-safe fields, for the process-pool wire format.

        ``ProcessPoolRunner`` ships these to workers instead of the config
        object itself; :meth:`from_scalars` rebuilds an equivalent config
        on the other side.  Non-scalar fields (``metrics``, ``event_sink``,
        ``answers``) do not cross the boundary — each worker supplies its
        own.
        """
        return {name: getattr(self, name) for name in self.SCALAR_FIELDS}

    @classmethod
    def from_scalars(cls, data: Dict[str, object]) -> "RunConfig":
        """Rebuild a validated config from :meth:`scalars` output."""
        unknown = set(data) - set(cls.SCALAR_FIELDS)
        if unknown:
            raise ValueError(f"unknown run config scalar(s): {sorted(unknown)}")
        return cls(**data).validate()  # type: ignore[arg-type]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


__all__ = ["RunConfig"]
