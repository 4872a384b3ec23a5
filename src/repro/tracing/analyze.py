"""Post-hoc monitoring: fold a monitor stack over a recorded trace.

Jahier & Ducassé's observation — any monitor is a fold over an execution
trace — made operational for this framework: :func:`analyze_trace`
replays a trace's ``pre``/``post`` events through an arbitrary
:class:`~repro.monitoring.spec.MonitorSpec` stack and reconstructs the
:class:`~repro.monitoring.derive.MonitoredResult` the same stack would
have produced inline, down to the ``RunMetrics`` counters and the
fault records.  The §7 soundness theorem is the license (the monitors
could not have changed the recorded run), and
``tests/test_trace_equivalence.py`` is the machine check.

The fold lives in one place, :class:`TraceFold`, and takes codegen's
hook step, :class:`~repro.monitoring.sites.SiteBinding`, rather than a
copy of it:

* hook dispatch — events name sites by the pre-order id codegen's
  ``_pre`` calls pass, and the binding indexes the same
  :class:`~repro.monitoring.sites.SiteTable`: each site's claim (the
  outermost recognizing monitor, as inline) is resolved once, not per event;
* counters — with metrics on, each claim's hooks are called through
  :class:`~repro.observability.instrument.InstrumentedSpec`, the code
  that charges activations, hook calls and state transitions inline;
* fault policy — ``propagate`` lets the hook exception escape the fold;
  otherwise it goes to a :class:`~repro.monitoring.faults.FaultLog`,
  and ``quarantine`` hands the slot's sites to their next claimants.

:func:`analyze_trace` runs the fold straight through;
:class:`~repro.replay.session.ReplaySession` runs the same fold under a
seekable cursor.  :func:`analyze_many` folds N stacks over one trace,
read once: record once, monitor many ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.languages import parse_source
from repro.monitoring.derive import MonitoredResult, check_disjoint
from repro.monitoring.faults import FaultLog, MonitorFault
from repro.monitoring.sites import SiteBinding, SiteTable
from repro.monitoring.spec import MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.observability.instrument import instrument_monitors
from repro.observability.metrics import RunMetrics
from repro.semantics.env import Environment
from repro.tracing.schema import (
    Trace,
    TraceError,
    TraceEvent,
    TraceFormatError,
    decode_value,
    read_trace,
)


@dataclass
class TraceAnalysis(MonitoredResult):
    """A ``MonitoredResult`` reconstructed from a trace fold.

    Field-compatible with the inline result (that is the point — the
    equivalence suite compares them directly); ``events`` counts the
    trace events folded and ``truncated`` flags a partial trace."""

    events: int = 0
    truncated: bool = False


def _resolve_trace(trace: Union[str, Trace], allow_truncated: bool) -> Trace:
    if isinstance(trace, Trace):
        return trace
    return read_trace(trace, allow_truncated=allow_truncated)


def _resolve_program(trace: Trace, program):
    """The trace's program as an AST (parsed from the header if not given)."""
    if program is None:
        source = trace.program_source
        if source is None:
            raise TraceError(
                f"{trace.path}: trace does not embed its program; pass the "
                "original program (program=/--program) to analyze it"
            )
        program = source
    if isinstance(program, str):
        program = parse_source(trace.language, program)
    return program


#: The context of a hook whose ``pre`` recorded no bindings.
_NO_BINDINGS = Environment({}, None)


def recorded_context(event: Optional[TraceEvent]) -> Environment:
    """The context a replayed hook sees: the ``pre`` event's recorded bindings.

    A name the recorder did not capture reads as unbound — the same miss
    behavior monitors already tolerate inline.  No event, no bindings.
    """
    if event is None or not event.bindings:
        return _NO_BINDINGS
    return Environment(
        {name: decode_value(value) for name, value in event.bindings.items()}, None
    )


class TraceFold:
    """One monitor stack folded over one trace, one event at a time.

    Construction resolves the trace and its program, checks the stack
    and binds the (program, stack) site table; :meth:`step` applies one
    recorded event and :meth:`package` turns the fold so far into a
    :class:`TraceAnalysis`.  The fold state is ``pending`` (each open
    activation's ``pre`` context and claimant token, by ``(site,
    occurrence)``) plus the live objects the hook path holds: the
    ``binding`` and its ``states`` dict, ``metrics``, charged by the
    claims' :class:`~repro.observability.instrument.InstrumentedSpec`
    wrappers, and ``fault_log`` (``None`` under ``propagate``).  A replay
    checkpoint copies states, metrics and log out, writes them back in
    place and rebinds.
    """

    def __init__(
        self,
        trace: Union[str, Trace],
        monitors: Union[MonitorSpec, Sequence[MonitorSpec]],
        *,
        program=None,
        fault_policy: str = "propagate",
        metrics: Union[None, bool, RunMetrics] = None,
        check_disjointness: bool = True,
        allow_truncated: bool = False,
    ) -> None:
        from repro.monitoring.compose import flatten_monitors, validate_observations

        self.trace = _resolve_trace(trace, allow_truncated)
        self.monitors: List[MonitorSpec] = flatten_monitors(monitors)
        validate_observations(self.monitors)
        self.program = _resolve_program(self.trace, program)
        table = SiteTable(self.program, self.monitors)
        if len(table.sites) != self.trace.site_count:
            raise TraceFormatError(
                f"{self.trace.path}: program has {len(table.sites)} annotated sites "
                f"but the trace was recorded over {self.trace.site_count} — "
                "not the program this trace came from"
            )
        self.sites = table.sites
        if check_disjointness:
            check_disjoint(self.monitors, self.program)
        self.fault_policy = fault_policy
        self.metrics: Optional[RunMetrics] = (
            RunMetrics() if metrics is True else metrics or None
        )
        self.fault_log = FaultLog.for_policy(fault_policy, self.metrics)
        # Hooks are called through the metrics wrappers when metrics are on.
        self.binding = SiteBinding(
            table, instrument_monitors(self.monitors, self.metrics), self.fault_log
        )
        self.states = self.binding.states
        self.pending: Dict[Tuple[int, int], Tuple[Environment, Optional[str]]] = {}

    @property
    def faults(self) -> Tuple[MonitorFault, ...]:
        """The fault records so far, oldest first."""
        return self.fault_log.snapshot() if self.fault_log is not None else ()

    @property
    def disabled(self) -> frozenset:
        """The slots quarantined so far."""
        log = self.fault_log
        return frozenset(log.disabled) if log is not None else frozenset()

    def step(self, event: TraceEvent) -> None:
        """Apply one event: the binding's hook step for the call it records."""
        binding, site = self.binding, event.site
        if event.phase == "pre":
            if binding.claimant(site) is not None:
                ctx = recorded_context(event)
                self.pending[(site, event.occ)] = (ctx, binding.pre(site, ctx))
            return
        ctx, token = self.pending.pop((site, event.occ), None) or (
            _NO_BINDINGS, binding.claimant(site)  # a post without its pre
        )
        if token is not None:
            binding.post(site, ctx, decode_value(event.value), token)

    def package(self, metrics: Optional[RunMetrics]) -> TraceAnalysis:
        """The fold so far as a ``TraceAnalysis`` carrying ``metrics``.

        ``metrics`` (the fold's own counters, or a copy of them) takes
        its step and application counts from the trace's end record when
        the recording itself ran with metrics.
        """
        if metrics is not None:
            footer = self.trace.footer or {}
            if isinstance(footer.get("steps"), int):
                metrics.steps = footer["steps"]
            if isinstance(footer.get("applications"), int):
                metrics.applications = footer["applications"]
        return TraceAnalysis(
            answer=self.trace.answer(),
            states=MonitorStateVector(dict(self.states)),
            monitors=tuple(self.monitors),
            faults=self.faults,
            fault_policy=self.fault_policy,
            metrics=metrics,
            events=len(self.trace.events),
            truncated=self.trace.truncated,
        )


def analyze_trace(
    trace: Union[str, Trace],
    monitors: Union[MonitorSpec, Sequence[MonitorSpec]],
    *,
    program=None,
    fault_policy: str = "propagate",
    metrics: Union[None, bool, RunMetrics] = None,
    check_disjointness: bool = True,
    allow_truncated: bool = False,
) -> TraceAnalysis:
    """Fold ``monitors`` over ``trace``; the post-hoc ``run_monitored``.

    ``trace`` is a path or an already-read :class:`Trace`.  ``program``
    (AST or source) overrides the header's embedded program — required
    when the trace carries none.  ``fault_policy`` and ``metrics`` mean
    what they mean on :func:`~repro.monitoring.derive.run_monitored`
    (``metrics=True`` allocates a fresh accumulator); step/application
    counts come from the trace's end record when the recording itself
    ran with metrics.  The fold's time is charged to both ``wall_time``
    and ``monitor_time``: it evaluates no program.
    """
    fold = TraceFold(
        trace,
        monitors,
        program=program,
        fault_policy=fault_policy,
        metrics=metrics,
        check_disjointness=check_disjointness,
        allow_truncated=allow_truncated,
    )
    metrics = fold.metrics
    monitor_time = metrics.monitor_time if metrics is not None else 0.0
    start = perf_counter()
    step = fold.step
    for event in fold.trace.events:
        step(event)
    if metrics is not None:
        # A fold evaluates no program: all of its time is monitoring,
        # charged once (the hook time the wrappers added is part of it).
        elapsed = perf_counter() - start
        metrics.wall_time += elapsed
        metrics.monitor_time = monitor_time + elapsed
    return fold.package(metrics)


def analyze_many(
    trace: Union[str, Trace],
    stacks: Sequence[Union[MonitorSpec, Sequence[MonitorSpec]]],
    *,
    program=None,
    allow_truncated: bool = False,
    **options,
) -> List[TraceAnalysis]:
    """Fold N independent monitor stacks over one trace, one after another.

    The trace is read and the program parsed *once*; each stack then
    folds over the shared immutable events — the win over inline is not
    re-running the program N times.  The folds are GIL-bound Python, so
    they run in sequence.  Results come back in stack order; ``options``
    pass through to :func:`analyze_trace` (``fault_policy``,
    ``metrics``, ...).
    """
    resolved = _resolve_trace(trace, allow_truncated)
    resolved_program = _resolve_program(resolved, program)
    return [
        analyze_trace(resolved, stack, program=resolved_program, **options)
        for stack in stacks
    ]


__all__ = [
    "TraceAnalysis",
    "TraceFold",
    "analyze_many",
    "analyze_trace",
    "recorded_context",
]
