"""The instrumentation layer: how run metrics attach to both engines.

The design rule is *pay only when observed*: with no metrics object and
no ``max_steps``, ``run_monitored`` derives/compiles exactly the code it
always did — zero instructions are added to the hot paths.  Otherwise
three small pieces are woven in, each adding to the run's
:class:`~repro.observability.metrics.RunMetrics` and emitting nothing:

* :func:`instrument_functional` wraps the (derived) valuation functional
  of the **reference engine** outermost, so every ``recur`` — one per
  expression-node evaluation — bumps the step counters.
* The **codegen engine** runs the same collapsed artifact a plain run
  does, in its *counted* variant (see :mod:`repro.partial_eval.codegen`):
  each straight-line region charges the nodes the reference interpreter
  evaluates there, so both engines count the identical semantic
  quantity, ``RunMetrics`` compares equal across engines and
  ``max_steps`` bounds the same count.
* :class:`InstrumentedSpec` wraps each monitor specification, counting
  activations / hook calls / state transitions and accumulating
  monitoring wall-clock.  It is the only code that charges those
  counters: both engines and the post-hoc trace fold
  (:class:`repro.tracing.analyze.TraceFold`) call hooks through it when
  metrics are on.  The wrapper is transparent: it delegates
  ``recognize``/``initial_state``/``report`` and re-raises hook
  exceptions, so fault policies behave identically with metrics on.

Fault counts are charged by :meth:`repro.monitoring.faults.FaultLog.
record` as each fault is recorded, on every path, so they agree across
engines and folds by construction.  A wrapper holds its ``RunMetrics``
for good, which is why a replay checkpoint rewinds the object in place
(:meth:`RunMetrics.restore`) rather than swapping it.  Per-event detail
is the recorded trace's job (:mod:`repro.tracing`), not this layer's.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Optional

from repro.errors import StepLimitExceeded
from repro.monitoring.spec import MonitorSpec
from repro.observability.metrics import RunMetrics
from repro.syntax.ast import App


def instrument_functional(base_functional, metrics=None, max_steps=None):
    """Wrap a valuation functional with step/application counting.

    Applied *outermost* (after monitor derivation), so every node
    evaluation — including annotated nodes and fall-through paths — is
    counted exactly once per entry through ``recur``, into ``metrics``
    when given.  The evaluation that would take this run's count past
    ``max_steps`` raises :class:`StepLimitExceeded` instead.
    """
    counts = RunMetrics() if metrics is None else metrics
    start = counts.steps
    stop = sys.maxsize if max_steps is None else start + max_steps

    def functional(recur):
        base_eval = base_functional(recur)

        def eval_counted(term, ctx, kont, ms):
            steps = counts.steps + 1
            counts.steps = steps
            if type(term) is App:
                counts.applications += 1
            if steps > stop:
                raise StepLimitExceeded(max_steps, consumed=steps - start)
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
