"""The instrumentation layer: how telemetry attaches to both engines.

The design rule is *pay only when observed*: with no metrics object and no
(real) event sink, ``run_monitored`` derives/compiles exactly the code it
always did — zero instructions are added to the hot paths.  When telemetry
is requested, three small wrappers are woven in:

* :func:`instrument_functional` wraps the (derived) valuation functional
  of the **reference engine** outermost, so every ``recur`` — one per
  expression-node evaluation — bumps the step counters.
* The **codegen engine** runs the same collapsed artifact a metrics-off
  run does, in its *tallied* variant (see
  :mod:`repro.partial_eval.codegen`): each straight-line region pays
  :meth:`Telemetry.region_tally` the number of nodes the reference
  interpreter evaluates there, so both engines count the identical
  semantic quantity and ``RunMetrics`` compares equal across engines.
* :class:`InstrumentedSpec` wraps each monitor specification, counting
  activations / hook calls / state transitions, accumulating monitoring
  wall-clock, and emitting the typed events.  The wrapper is transparent:
  it delegates ``recognize``/``initial_state``/``report`` and re-raises
  hook exceptions, so fault policies behave identically with telemetry on.

Faults are observed through :class:`repro.monitoring.faults.FaultLog`'s
``observer`` hook (:meth:`Telemetry.fault_observer`), which both engines
already share — fault counts and fault events therefore agree across
engines by construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.monitoring.spec import MonitorSpec
from repro.observability.events import Event
from repro.observability.metrics import RunMetrics
from repro.observability.sinks import EventSink, is_null_sink
from repro.syntax.ast import App


def _annotation_name(view) -> str:
    """The JSON-safe display name of a recognized annotation."""
    name = getattr(view, "name", None)
    return name if isinstance(name, str) else str(view)


class Telemetry:
    """One run's telemetry hub: a metrics object plus an optional sink."""

    __slots__ = ("metrics", "sink", "_seq")

    def __init__(self, metrics: RunMetrics, sink: Optional[EventSink]) -> None:
        self.metrics = metrics
        self.sink = sink
        self._seq = 0

    @classmethod
    def create(
        cls,
        metrics: Optional[RunMetrics] = None,
        event_sink: Optional[EventSink] = None,
    ) -> Optional["Telemetry"]:
        """The gatekeeper: ``None`` means "stay on the uninstrumented path".

        A :class:`~repro.observability.sinks.NullSink` counts as no sink —
        that is the null-sink fast path the benchmark gate enforces.
        """
        sink = None if is_null_sink(event_sink) else event_sink
        if metrics is None and sink is None:
            return None
        return cls(metrics if metrics is not None else RunMetrics(), sink)

    # -- event emission --------------------------------------------------------

    def emit(self, kind: str, slot: Optional[str] = None, **payload) -> None:
        sink = self.sink
        if sink is None:
            return
        self._seq += 1
        sink.emit(Event(self._seq, kind, slot, payload))

    @property
    def step_hook(self):
        """A zero-argument per-step emitter, or ``None`` if unwanted."""
        if self.sink is not None and self.sink.wants_steps:
            return self._emit_step
        return None

    def _emit_step(self) -> None:
        self._seq += 1
        self.sink.emit(Event(self._seq, "step"))

    def region_tally(self):
        """The ``tally(steps, applications)`` callback of tallied codegen.

        One call per straight-line region of residual code; it emits one
        ``step`` event per counted step, so the event count still equals
        ``metrics.steps``.
        """
        metrics = self.metrics
        step_hook = self.step_hook

        def tally(steps, applications):
            metrics.steps += steps
            metrics.applications += applications
            if step_hook is not None:
                for _ in range(steps):
                    step_hook()

        return tally

    def fault_observer(self, fault, quarantined: bool) -> None:
        """The ``FaultLog`` observer: count and emit fault/quarantine."""
        metrics = self.metrics
        key = fault.monitor_key
        metrics.faults[key] = metrics.faults.get(key, 0) + 1
        self.emit(
            "fault",
            key,
            phase=fault.phase,
            error_type=fault.error_type,
            message=fault.message,
        )
        if quarantined:
            self.emit("quarantine", key)


def instrument_functional(base_functional, telemetry: Telemetry):
    """Wrap a valuation functional with step/application counting.

    Applied *outermost* (after monitor derivation), so every node
    evaluation — including annotated nodes and fall-through paths — is
    counted exactly once per entry through ``recur``.
    """
    metrics = telemetry.metrics
    step_hook = telemetry.step_hook

    def functional(recur):
        base_eval = base_functional(recur)

        if step_hook is None:

            def eval_counted(term, ctx, kont, ms):
                metrics.steps += 1
                if type(term) is App:
                    metrics.applications += 1
                return base_eval(term, ctx, kont, ms)

        else:

            def eval_counted(term, ctx, kont, ms):
                metrics.steps += 1
                if type(term) is App:
                    metrics.applications += 1
                step_hook()
                return base_eval(term, ctx, kont, ms)

        return eval_counted

    return functional


class InstrumentedSpec(MonitorSpec):
    """A transparent telemetry wrapper around any monitor specification.

    State shape, recognition, and reporting are the base monitor's own;
    only the hook calls are observed.  Exceptions escaping ``pre``/``post``
    are re-raised unchanged (after the activation is counted and the time
    charged), so the fault-isolation layer sees exactly what it would see
    without telemetry.
    """

    __slots__ = ("base", "key", "observes", "_telemetry")

    def __init__(self, base: MonitorSpec, telemetry: Telemetry) -> None:
        self.base = base
        self.key = base.key
        self.observes = base.observes
        self._telemetry = telemetry

    def recognize(self, annotation):
        return self.base.recognize(annotation)

    def initial_state(self):
        return self.base.initial_state()

    def report(self, state):
        return self.base.report(state)

    def pre(self, annotation, term, ctx, state, inner=None):
        telemetry = self._telemetry
        metrics = telemetry.metrics
        key = self.key
        metrics.activations[key] = metrics.activations.get(key, 0) + 1
        metrics.pre_calls[key] = metrics.pre_calls.get(key, 0) + 1
        emitting = telemetry.sink is not None  # metrics-only runs skip events
        if emitting:
            name = _annotation_name(annotation)
            telemetry.emit("annotation-enter", key, annotation=name)
        start = perf_counter()
        try:
            if self.observes:
                new_state = self.base.pre(annotation, term, ctx, state, inner=inner)
            else:
                new_state = self.base.pre(annotation, term, ctx, state)
        finally:
            metrics.monitor_time += perf_counter() - start
        changed = new_state is not state
        if changed:
            metrics.state_transitions += 1
        if emitting:
            telemetry.emit("monitor-pre", key, annotation=name, changed=changed)
            if changed:
                telemetry.emit("state-update", key, phase="pre")
        return new_state

    def post(self, annotation, term, ctx, result, state, inner=None):
        telemetry = self._telemetry
        metrics = telemetry.metrics
        key = self.key
        metrics.post_calls[key] = metrics.post_calls.get(key, 0) + 1
        start = perf_counter()
        try:
            if self.observes:
                new_state = self.base.post(
                    annotation, term, ctx, result, state, inner=inner
                )
            else:
                new_state = self.base.post(annotation, term, ctx, result, state)
        finally:
            metrics.monitor_time += perf_counter() - start
        changed = new_state is not state
        if changed:
            metrics.state_transitions += 1
        if telemetry.sink is not None:
            name = _annotation_name(annotation)
            telemetry.emit("monitor-post", key, annotation=name, changed=changed)
            if changed:
                telemetry.emit("state-update", key, phase="post")
            telemetry.emit("annotation-exit", key, annotation=name)
        return new_state

    def __repr__(self) -> str:
        return f"<instrumented {self.base!r}>"


def instrument_monitors(monitors, telemetry: Optional[Telemetry]):
    """Wrap every spec in ``monitors`` when telemetry is active."""
    if telemetry is None:
        return list(monitors)
    return [InstrumentedSpec(monitor, telemetry) for monitor in monitors]


__all__ = [
    "InstrumentedSpec",
    "Telemetry",
    "instrument_functional",
    "instrument_monitors",
]
