"""Run telemetry: run metrics and the runtime's lifecycle events.

The monitors of the paper observe *programs*; this package observes the
*runtime* that runs them.  A run's per-event detail lives in one stream,
its recorded trace (:mod:`repro.tracing`), folded by
:func:`repro.tracing.analyze_trace` and :class:`repro.replay.ReplaySession`
(the generic-trace architecture of Jahier & Ducassé, PAPERS.md).  This
package has the two other faces:

* :class:`RunMetrics` — cheap aggregate counters (steps, applications,
  per-slot monitor activations, hook calls, state transitions, faults,
  wall-clock split into standard-eval vs. monitoring time), identical
  across the reference and codegen engines by construction.
* Lifecycle events (:class:`Event`, :data:`EVENT_TYPES`) from the cache,
  batch runner, process pool and serve daemon, delivered to pluggable
  sinks (:class:`InMemorySink`, :class:`JsonlSink`, :class:`CallbackSink`,
  :class:`TaggedSink`) that number them in delivery order.

Entry points: ``run_monitored(..., config=RunConfig(metrics=...))``,
``toolbox.evaluate``/``Session.evaluate`` with the same config, the CLI
flag ``--metrics``, and ``repro batch --trace-out FILE`` for lifecycle
events.  Metrics are strictly opt-in: with no metrics object the engines
run their historical uninstrumented fast paths.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "EVENT_TYPES": "repro.observability.events",
        "Event": "repro.observability.events",
        "read_events": "repro.observability.events",
        "InstrumentedSpec": "repro.observability.instrument",
        "instrument_functional": "repro.observability.instrument",
        "instrument_monitors": "repro.observability.instrument",
        "RunMetrics": "repro.observability.metrics",
        "CallbackSink": "repro.observability.sinks",
        "EventSink": "repro.observability.sinks",
        "InMemorySink": "repro.observability.sinks",
        "JsonlSink": "repro.observability.sinks",
        "TaggedSink": "repro.observability.sinks",
    },
)
