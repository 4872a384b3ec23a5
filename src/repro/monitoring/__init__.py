"""Parameterized monitoring semantics (Sections 4–7).

The pipeline mirrors Figure 1 of the paper:

1. A language module supplies a standard continuation semantics as a
   *functional* (``Den``).
2. :func:`repro.monitoring.derive.derive_functional` produces the
   parameterized monitoring semantics ``M(Den)`` (Definition 4.2).
3. Instantiating it with a :class:`repro.monitoring.spec.MonitorSpec`
   (Definition 5.1) yields a complete monitor.
4. :mod:`repro.monitoring.compose` cascades monitors (Section 6).
5. :mod:`repro.monitoring.soundness` checks Theorem 7.7 executably.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "MonitorStack": "repro.monitoring.compose",
        "compose": "repro.monitoring.compose",
        "nested_answer": "repro.monitoring.compose",
        "MonitoredResult": "repro.monitoring.derive",
        "derive_functional": "repro.monitoring.derive",
        "run_monitored": "repro.monitoring.derive",
        "FAULT_POLICIES": "repro.monitoring.faults",
        "FaultLog": "repro.monitoring.faults",
        "FlakyMonitor": "repro.monitoring.faults",
        "InjectedFault": "repro.monitoring.faults",
        "MonitorFault": "repro.monitoring.faults",
        "check_fault_policy": "repro.monitoring.faults",
        "MonitorSpec": "repro.monitoring.spec",
        "MonitorStateVector": "repro.monitoring.state",
        "bounded": "repro.monitoring.transformers",
        "filtered": "repro.monitoring.transformers",
        "mapped_report": "repro.monitoring.transformers",
        "renamed": "repro.monitoring.transformers",
        "sampled": "repro.monitoring.transformers",
    },
)
