"""Run telemetry: structured metrics and event streams for the runtime.

The monitors of the paper observe *programs*; this package observes the
*runtime* that runs them.  It has two faces sharing one instrumentation
point (the generic-trace architecture of Jahier & Ducassé, PAPERS.md):

* :class:`RunMetrics` — cheap aggregate counters (steps, applications,
  per-slot monitor activations, hook calls, state transitions, faults,
  wall-clock split into standard-eval vs. monitoring time), identical
  across the reference and codegen engines by construction.
* A typed event stream (:class:`Event`, :data:`EVENT_TYPES`) emitted to
  pluggable sinks (:class:`InMemorySink`, :class:`JsonlSink`,
  :class:`CallbackSink`, :class:`NullSink`); :func:`replay` folds a
  captured stream back into the aggregates.

Entry points: ``run_monitored(..., config=RunConfig(metrics=...,
event_sink=...))``, ``toolbox.evaluate``/``Session.evaluate`` with the
same config, and the CLI flags ``--metrics`` / ``--trace-out FILE``.
Telemetry is strictly opt-in: with no metrics object and no sink (or a
:class:`NullSink`), the engines run their historical uninstrumented fast
paths — the <2% overhead gate in ``benchmarks/bench_engines.py`` holds
the runtime to that.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "EVENT_TYPES": "repro.observability.events",
        "Event": "repro.observability.events",
        "ReplaySummary": "repro.observability.events",
        "fault_tuples": "repro.observability.events",
        "read_events": "repro.observability.events",
        "replay": "repro.observability.events",
        "InstrumentedSpec": "repro.observability.instrument",
        "Telemetry": "repro.observability.instrument",
        "instrument_functional": "repro.observability.instrument",
        "instrument_monitors": "repro.observability.instrument",
        "RunMetrics": "repro.observability.metrics",
        "CallbackSink": "repro.observability.sinks",
        "EventSink": "repro.observability.sinks",
        "InMemorySink": "repro.observability.sinks",
        "JsonlSink": "repro.observability.sinks",
        "NullSink": "repro.observability.sinks",
        "TaggedSink": "repro.observability.sinks",
        "is_null_sink": "repro.observability.sinks",
    },
)
