"""The fault-injection harness: shared machinery for soundness-under-fault.

The fault-isolation layer promises that, under ``fault_policy=
"quarantine"``, a monitor raising mid-run never changes the program's
standard answer — and that both execution engines agree on *everything*
observable afterwards: the answer, the surviving monitors' states, and
the fault records themselves.  This module packages the pieces the
differential suite (``tests/test_fault_injection.py``), the engine-parity
suite and the benchmark gate all need:

* :func:`flaky_counter` / :func:`flaky_profiler` — deterministic faulty
  monitors built from :class:`repro.monitoring.faults.FlakyMonitor`;
* :func:`run_both_with_faults` — one program, one monitor stack, both
  engines, any policy;
* :func:`assert_fault_parity` — the executable statement of the
  soundness-under-fault theorem: answers, fault records and surviving
  states all agree.

Everything here is importable (no tests are collected from this module),
so downstream monitor authors can reuse the same checks.
"""

from __future__ import annotations

from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.faults import FlakyMonitor, InjectedFault
from repro.monitors import LabelCounterMonitor, ProfilerMonitor, TracerMonitor
from repro.runtime import RunConfig
from repro.syntax.parser import parse

#: An annotated recursive workload: five ``{fac}`` label hits, plus a
#: tracer-visible function header in FAC_TRACED.
FAC_LABELED = (
    "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) "
    "in fac 4"
)
FAC_TRACED = (
    "letrec fac = lambda x. {fac(x)}: if x = 0 then 1 else x * fac (x - 1) "
    "in fac 4"
)


def flaky_counter(fail_on: int, *, phase: str = "pre") -> FlakyMonitor:
    """A label counter that raises :class:`InjectedFault` on call N."""
    return FlakyMonitor(LabelCounterMonitor(), fail_on=fail_on, phase=phase)


def flaky_profiler(fail_on: int, *, phase: str = "pre", **kwargs) -> FlakyMonitor:
    """A Figure 6 profiler that raises :class:`InjectedFault` on call N."""
    return FlakyMonitor(ProfilerMonitor(), fail_on=fail_on, phase=phase, **kwargs)


def run_both_with_faults(program, make_monitors, fault_policy="quarantine"):
    """Run ``program`` under both engines with freshly built monitors.

    ``make_monitors`` is a zero-argument callable returning the monitor
    stack — monitors are rebuilt per engine so neither run can leak state
    into the other.  Returns ``(reference_result, codegen_result)``.
    """
    if isinstance(program, str):
        program = parse(program)
    ref = run_monitored(
        strict,
        program,
        make_monitors(),
        config=RunConfig(engine="reference", fault_policy=fault_policy),
    )
    fast = run_monitored(
        strict,
        program,
        make_monitors(),
        config=RunConfig(engine="codegen", fault_policy=fault_policy),
    )
    return ref, fast


def assert_fault_parity(ref, fast, *, surviving_keys=()):
    """Both engines agree on answer, fault records and surviving states.

    ``surviving_keys`` names monitors expected to stay healthy; their
    final states must match exactly across engines (tracer states are
    compared through their rendered output, as in the parity suite).
    """
    assert ref.answer == fast.answer, (
        f"answers diverged under faults: {ref.answer!r} vs {fast.answer!r}"
    )
    assert ref.faults == fast.faults, (
        f"fault records diverged: {ref.faults!r} vs {fast.faults!r}"
    )
    assert ref.quarantined_keys() == fast.quarantined_keys()
    for key in surviving_keys:
        ref_state, fast_state = ref.state_of(key), fast.state_of(key)
        if _is_tracer_state(ref_state):
            assert ref_state[0].render() == fast_state[0].render()
            assert ref_state[1] == fast_state[1]
        else:
            assert ref_state == fast_state, (
                f"surviving monitor {key!r} diverged: "
                f"{ref_state!r} vs {fast_state!r}"
            )


def _is_tracer_state(state) -> bool:
    return (
        isinstance(state, tuple)
        and len(state) == 2
        and hasattr(state[0], "render")
    )


__all__ = [
    "FAC_LABELED",
    "FAC_TRACED",
    "FlakyMonitor",
    "InjectedFault",
    "TracerMonitor",
    "assert_fault_parity",
    "flaky_counter",
    "flaky_profiler",
    "run_both_with_faults",
]
