"""Record/analyze: the trace-analysis monitoring backend.

Run a program once at full engine speed with the all-claiming recorder
(:mod:`repro.tracing.record`), producing a minimal versioned event trace
(:mod:`repro.tracing.schema`); fold any number of monitor stacks over
the trace post-hoc (:mod:`repro.tracing.analyze`), reconstructing the
reports, metrics and fault records inline monitoring would have
produced.  ``RunConfig(mode="record")`` wires the same pipeline through
``run_monitored``, the batch/process runtimes and ``repro serve``; the
CLI verbs are ``repro record`` and ``repro analyze``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "TraceAnalysis": "repro.tracing.analyze",
        "analyze_many": "repro.tracing.analyze",
        "analyze_trace": "repro.tracing.analyze",
        "RecordResult": "repro.tracing.record",
        "RecorderSpec": "repro.tracing.record",
        "TraceWriter": "repro.tracing.record",
        "record": "repro.tracing.record",
        "record_run": "repro.tracing.record",
        "TRACE_VERSION": "repro.tracing.schema",
        "OpaqueValue": "repro.tracing.schema",
        "Trace": "repro.tracing.schema",
        "TraceError": "repro.tracing.schema",
        "TraceEvent": "repro.tracing.schema",
        "TraceFormatError": "repro.tracing.schema",
        "TraceVersionError": "repro.tracing.schema",
        "build_site_table": "repro.tracing.schema",
        "read_trace": "repro.tracing.schema",
        "sample_includes": "repro.tracing.schema",
    },
)
