"""The instrumentation layer: how run metrics attach to both engines.

The design rule is *pay only when observed*: with no metrics object,
``run_monitored`` derives/compiles exactly the code it always did — zero
instructions are added to the hot paths.  When metrics are requested,
three small pieces are woven in, each adding to the run's
:class:`~repro.observability.metrics.RunMetrics` and emitting nothing:

* :func:`instrument_functional` wraps the (derived) valuation functional
  of the **reference engine** outermost, so every ``recur`` — one per
  expression-node evaluation — bumps the step counters.
* The **codegen engine** runs the same collapsed artifact a metrics-off
  run does, in its *tallied* variant (see
  :mod:`repro.partial_eval.codegen`): each straight-line region pays
  :meth:`RunMetrics.tally` the number of nodes the reference
  interpreter evaluates there, so both engines count the identical
  semantic quantity and ``RunMetrics`` compares equal across engines.
* :class:`InstrumentedSpec` wraps each monitor specification, counting
  activations / hook calls / state transitions and accumulating
  monitoring wall-clock.  The wrapper is transparent: it delegates
  ``recognize``/``initial_state``/``report`` and re-raises hook
  exceptions, so fault policies behave identically with metrics on.

Fault counts come from the run's final fault records, which both
engines keep in one :class:`repro.monitoring.faults.FaultLog`, so they
agree across engines by construction.  Per-event detail is the recorded
trace's job (:mod:`repro.tracing`), not this layer's.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.monitoring.spec import MonitorSpec
from repro.observability.metrics import RunMetrics
from repro.syntax.ast import App


def instrument_functional(base_functional, metrics: RunMetrics):
    """Wrap a valuation functional with step/application counting.

    Applied *outermost* (after monitor derivation), so every node
    evaluation — including annotated nodes and fall-through paths — is
    counted exactly once per entry through ``recur``.
    """

    def functional(recur):
        base_eval = base_functional(recur)

        def eval_counted(term, ctx, kont, ms):
            metrics.steps += 1
            if type(term) is App:
                metrics.applications += 1
            return base_eval(term, ctx, kont, ms)

        return eval_counted

    return functional


class InstrumentedSpec(MonitorSpec):
    """A transparent metrics wrapper around any monitor specification.

    State shape, recognition, and reporting are the base monitor's own;
    only the hook calls are observed.  Exceptions escaping ``pre``/``post``
    are re-raised unchanged (after the activation is counted and the time
    charged), so the fault-isolation layer sees exactly what it would see
    without metrics.
    """

    __slots__ = ("base", "key", "observes", "_metrics")

    def __init__(self, base: MonitorSpec, metrics: RunMetrics) -> None:
        self.base = base
        self.key = base.key
        self.observes = base.observes
        self._metrics = metrics

    def recognize(self, annotation):
        return self.base.recognize(annotation)

    def initial_state(self):
        return self.base.initial_state()

    def report(self, state):
        return self.base.report(state)

    def pre(self, annotation, term, ctx, state, inner=None):
        metrics = self._metrics
        key = self.key
        metrics.activations[key] = metrics.activations.get(key, 0) + 1
        metrics.pre_calls[key] = metrics.pre_calls.get(key, 0) + 1
        start = perf_counter()
        try:
            if self.observes:
                new_state = self.base.pre(annotation, term, ctx, state, inner=inner)
            else:
                new_state = self.base.pre(annotation, term, ctx, state)
        finally:
            metrics.monitor_time += perf_counter() - start
        if new_state is not state:
            metrics.state_transitions += 1
        return new_state

    def post(self, annotation, term, ctx, result, state, inner=None):
        metrics = self._metrics
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
        if new_state is not state:
            metrics.state_transitions += 1
        return new_state

    def __repr__(self) -> str:
        return f"<instrumented {self.base!r}>"


def instrument_monitors(monitors, metrics: Optional[RunMetrics]):
    """Wrap every spec in ``monitors`` when metrics are on."""
    if metrics is None:
        return list(monitors)
    return [InstrumentedSpec(monitor, metrics) for monitor in monitors]


__all__ = [
    "InstrumentedSpec",
    "instrument_functional",
    "instrument_monitors",
]
