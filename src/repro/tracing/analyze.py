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

The fold lives in one place, :class:`TraceFold`, and mirrors the inline
machinery exactly:

* hook dispatch — at most one monitor claims each site (Section 6
  disjointness, checked here as inline), resolved once per site rather
  than once per event;
* counters — activations/pre_calls are charged *before* ``pre`` runs
  (a faulting hook still counts, as in ``InstrumentedSpec``), post_calls
  before ``post``, state_transitions only on a successful
  identity-changing return;
* fault policy — ``propagate`` lets the hook exception escape the fold,
  ``quarantine`` records the fault and skips the slot's remaining
  events, ``log`` records and drops just that update — the replica of
  ``_derive_isolated``'s three behaviors.

:func:`analyze_trace` runs the fold straight through;
:class:`~repro.replay.session.ReplaySession` runs the same fold under a
seekable cursor.  :func:`analyze_many` folds N stacks over one trace,
read once: record once, monitor many ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.monitoring.derive import MonitoredResult, check_disjoint
from repro.monitoring.faults import MonitorFault, check_fault_policy
from repro.monitoring.spec import MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics
from repro.semantics.env import Environment
from repro.tracing.schema import (
    Site,
    Trace,
    TraceError,
    TraceEvent,
    TraceFormatError,
    build_site_table,
    decode_value,
    read_trace,
)


def parse_program(language_name: str, source: str):
    """Parse surface syntax under the named language's grammar."""
    if language_name == "imperative":
        from repro.languages.imp_syntax import parse_imp

        return parse_imp(source)
    if language_name == "exceptions":
        from repro.languages.exceptions import parse_exc

        return parse_exc(source)
    from repro.syntax.parser import parse

    return parse(source)


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


def _resolve_program(trace: Trace, program) -> Tuple[object, List[Site]]:
    if program is None:
        source = trace.program_source
        if source is None:
            raise TraceError(
                f"{trace.path}: trace does not embed its program; pass the "
                "original program (program=/--program) to analyze it"
            )
        program = source
    if isinstance(program, str):
        program = parse_program(trace.language, program)
    table = build_site_table(program)
    if len(table) != trace.site_count:
        raise TraceFormatError(
            f"{trace.path}: program has {len(table)} annotated sites but the "
            f"trace was recorded over {trace.site_count} — not the program "
            "this trace came from"
        )
    return program, table


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
    and resolves each site's claim; :meth:`step` applies one recorded
    event and :meth:`package` turns the fold so far into a
    :class:`TraceAnalysis`.  The fold state — ``states``, ``metrics``,
    ``pending`` (open ``pre`` contexts by ``(site, occurrence)``),
    ``faults`` and ``disabled`` — is plain attributes of immutable or
    shallow-copyable values, so a replay checkpoint captures and restores
    it whole, quarantines included.
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

        check_fault_policy(fault_policy)
        self.trace = _resolve_trace(trace, allow_truncated)
        self.monitors: List[MonitorSpec] = flatten_monitors(monitors)
        validate_observations(self.monitors)
        self.program, self.sites = _resolve_program(self.trace, program)
        if check_disjointness:
            check_disjoint(self.monitors, self.program)
        self.fault_policy = fault_policy

        # Claim resolution happens once per *site*, not once per event:
        # for each site, the first (and by disjointness only) monitor
        # whose recognize() accepts the annotation, as (spec, view,
        # observes, term) — or None for an unclaimed site.
        self._claims: List[Optional[tuple]] = []
        for site in self.sites:
            claim = None
            for spec in self.monitors:
                view = spec.recognize(site.annotation)
                if view is not None:
                    claim = (spec, view, tuple(spec.observes), site.body)
                    break
            self._claims.append(claim)

        self.states = MonitorStateVector.initial(self.monitors)
        self.metrics: Optional[RunMetrics] = (
            RunMetrics() if metrics is True else metrics or None
        )
        self.pending: Dict[Tuple[int, int], Environment] = {}
        self.faults: Tuple[MonitorFault, ...] = ()
        self.disabled: frozenset = frozenset()

    def step(self, event: TraceEvent) -> None:
        """Apply one event: the hook call it records, charged and isolated."""
        claim = self._claims[event.site]
        if claim is None:
            return
        spec, view, observes, term = claim
        key = spec.key
        if key in self.disabled:
            return
        states = self.states
        state = states.get(key)
        metrics = self.metrics
        if event.phase == "pre":
            ctx = recorded_context(event)
            self.pending[(event.site, event.occ)] = ctx
            if metrics is not None:
                metrics.activations[key] = metrics.activations.get(key, 0) + 1
                metrics.pre_calls[key] = metrics.pre_calls.get(key, 0) + 1
            try:
                if observes:
                    new_state = spec.pre(
                        view, term, ctx, state, inner=states.view(observes)
                    )
                else:
                    new_state = spec.pre(view, term, ctx, state)
            except Exception as exc:
                self._fault(key, "pre", exc)
                return
        else:
            ctx = self.pending.pop((event.site, event.occ), _NO_BINDINGS)
            result = decode_value(event.value)
            if metrics is not None:
                metrics.post_calls[key] = metrics.post_calls.get(key, 0) + 1
            try:
                if observes:
                    new_state = spec.post(
                        view, term, ctx, result, state, inner=states.view(observes)
                    )
                else:
                    new_state = spec.post(view, term, ctx, result, state)
            except Exception as exc:
                self._fault(key, "post", exc)
                return
        if new_state is not state:
            if metrics is not None:
                metrics.state_transitions += 1
            self.states = states.set(key, new_state)

    def _fault(self, key: str, phase: str, exc: Exception) -> None:
        """Apply the fault policy to ``exc`` from ``key``'s ``phase`` hook.

        ``propagate`` re-raises; ``quarantine`` records and disables the
        slot; ``log`` records and drops just this update.
        """
        if self.fault_policy == "propagate":
            raise exc
        self.faults += (MonitorFault.of(key, phase, exc),)
        if self.fault_policy == "quarantine":
            self.disabled |= {key}
        if self.metrics is not None:
            self.metrics.faults[key] = self.metrics.faults.get(key, 0) + 1

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
            states=self.states,
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
    start = perf_counter()
    step = fold.step
    for event in fold.trace.events:
        step(event)
    if fold.metrics is not None:
        # A fold evaluates no program: all of its time is monitoring.
        elapsed = perf_counter() - start
        fold.metrics.wall_time += elapsed
        fold.metrics.monitor_time += elapsed
    return fold.package(fold.metrics)


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
    resolved_program, _ = _resolve_program(resolved, program)
    return [
        analyze_trace(resolved, stack, program=resolved_program, **options)
        for stack in stacks
    ]


__all__ = [
    "TraceAnalysis",
    "TraceFold",
    "analyze_many",
    "analyze_trace",
    "parse_program",
    "recorded_context",
]
