"""Monitor-fault isolation: policies, fault records, and injection tools.

The soundness theorem (Section 7) promises that monitoring cannot change a
program's standard answer — for *well-formed* monitors, whose ``pre``/
``post`` functions are total.  A buggy monitor that raises breaks that
promise operationally: the exception escapes through the derived semantics
and aborts the evaluation.  This module makes the failure mode a matter of
per-run *policy* instead:

* ``"propagate"`` (the default) — historical behavior: a monitor fault
  aborts the run, exactly as if the monitor's exception were the
  program's.
* ``"quarantine"`` — the fault is captured as a :class:`MonitorFault`
  record and the faulting monitor's slot is *disabled* for the rest of
  the run; its annotations fall through to the base semantics exactly
  like unclaimed annotations (Definition 4.2's fall-through path), so
  the run completes with the standard answer intact.
* ``"log"`` — every fault is captured as a record but the monitor stays
  enabled; the faulting hook's state update is skipped (the slot keeps
  its previous state) and evaluation continues.

Both engines (the reference derivation in
:mod:`repro.monitoring.derive` and the residual programs of
:mod:`repro.partial_eval.codegen`) thread the same :class:`FaultLog`, so
the differential fault-injection suite can assert that answers,
surviving monitor states *and* fault records agree under injected
failures — the soundness-under-fault property made executable.

:class:`FlakyMonitor` is the injection half: a transformer that wraps
any spec and raises :class:`InjectedFault` on a chosen hook call
(deterministically, so both engines fault at the same activation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.errors import MonitorError
from repro.monitoring.spec import MonitorSpec

#: The monitor-fault policies ``run_monitored`` understands.
FAULT_POLICIES: Tuple[str, ...] = ("propagate", "quarantine", "log")


def check_fault_policy(policy: str) -> None:
    """Reject unknown fault policies with an actionable error."""
    if policy not in FAULT_POLICIES:
        raise MonitorError(
            f"unknown fault policy {policy!r}; choose one of "
            f"{', '.join(map(repr, FAULT_POLICIES))}"
        )


@dataclass(frozen=True)
class MonitorFault:
    """One captured monitor failure.

    Equality is defined on the observable fields (monitor key, phase,
    exception type and message) so fault records can be compared across
    engines; the original exception rides along for post-mortems but does
    not participate in comparison.
    """

    monitor_key: str
    phase: str  # "pre" | "post"
    error_type: str
    message: str
    error: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def of(cls, key: str, phase: str, exc: BaseException) -> "MonitorFault":
        """The record of ``exc`` raised by monitor ``key``'s ``phase`` hook."""
        return cls(key, phase, type(exc).__name__, str(exc), exc)

    def render(self) -> str:
        """One human-readable line, used by ``MonitoredResult.reports()``."""
        return (
            f"{self.monitor_key}.{self.phase} raised "
            f"{self.error_type}: {self.message}"
        )

    def __str__(self) -> str:
        return self.render()


def fault_tuples(faults) -> List[Tuple[str, str, str, str]]:
    """Project fault records to comparable ``(key, phase, type, message)``."""
    return [
        (f.monitor_key, f.phase, f.error_type, f.message) for f in faults
    ]


class FaultLog:
    """Per-run mutable record of monitor faults and disabled slots.

    The immutable :class:`~repro.monitoring.state.MonitorStateVector`
    threads monitor *states*; fault bookkeeping is deliberately kept out
    of it — disabling a slot is a property of the run, not of any single
    machine state, and must survive continuation capture.  One log is
    created per ``run_monitored`` call
    and shared by every derivation level.
    """

    __slots__ = ("policy", "disabled", "faults")

    def __init__(self, policy: str) -> None:
        check_fault_policy(policy)
        if policy == "propagate":
            raise MonitorError(
                "FaultLog is only meaningful under 'quarantine' or 'log'; "
                "under 'propagate' no log is threaded at all"
            )
        self.policy = policy
        self.disabled: Set[str] = set()
        self.faults: List[MonitorFault] = []

    def record(self, key: str, phase: str, exc: BaseException) -> MonitorFault:
        """Capture ``exc`` from ``key``'s ``phase`` hook; maybe quarantine."""
        fault = MonitorFault.of(key, phase, exc)
        self.faults.append(fault)
        if self.policy == "quarantine":
            self.disabled.add(key)
        return fault

    def snapshot(self) -> Tuple[MonitorFault, ...]:
        return tuple(self.faults)

    def __repr__(self) -> str:
        return (
            f"<FaultLog policy={self.policy!r} faults={len(self.faults)} "
            f"disabled={sorted(self.disabled)!r}>"
        )


class InjectedFault(RuntimeError):
    """The exception :class:`FlakyMonitor` raises on an armed hook call."""


class FlakyMonitor(MonitorSpec):
    """Wrap a monitor so a chosen hook call raises — fault injection.

    The failure point is part of the *monitor state* (a call counter
    threaded through the state vector), so both engines fault at exactly
    the same activation of a deterministic program:

    * ``fail_on=n`` — the n-th (1-based) armed hook call raises
      :class:`InjectedFault`.  Note that under the ``"log"`` policy the
      faulting call's counter increment is discarded with the rest of the
      state update, so call ``n`` keeps failing on every later
      activation — deterministic, and a good stress test.
    * ``seed=s, failure_rate=p`` — each armed call fails independently
      with probability ``p``, decided by a PRN derived from ``(seed,
      call index)`` alone; no hidden Python-side RNG state, so reference
      and codegen runs see identical failures.

    ``phase`` arms ``"pre"``, ``"post"`` or ``"both"`` hooks.  The
    wrapped state is ``(armed-calls-seen, base state)``; ``report`` and
    ``recognize`` delegate to the base monitor, so a quarantined flaky
    profiler still reports whatever it counted before its fault.
    """

    def __init__(
        self,
        base: MonitorSpec,
        *,
        fail_on: Optional[int] = None,
        phase: str = "pre",
        error: type = InjectedFault,
        message: str = "injected monitor fault",
        seed: Optional[int] = None,
        failure_rate: float = 0.0,
        key: Optional[str] = None,
    ) -> None:
        if phase not in ("pre", "post", "both"):
            raise MonitorError(
                f"FlakyMonitor phase must be 'pre', 'post' or 'both', "
                f"not {phase!r}"
            )
        if fail_on is None and seed is None:
            raise MonitorError(
                "FlakyMonitor needs a failure point: fail_on=N or "
                "seed=... with failure_rate=..."
            )
        self.base = base
        self.key = key or base.key
        self.observes = base.observes
        self.fail_on = fail_on
        self.phase = phase
        self.error = error
        self.message = message
        self.seed = seed
        self.failure_rate = failure_rate

    # MSyn / MAlg delegate to the base spec.

    def recognize(self, annotation):
        return self.base.recognize(annotation)

    def initial_state(self):
        return (0, self.base.initial_state())

    def report(self, state):
        return self.base.report(state[1])

    def base_state_of(self, state):
        """Project the wrapped monitor's state out of the flaky pair."""
        return state[1]

    # The armed hooks.

    def _should_fail(self, call_index: int) -> bool:
        if self.fail_on is not None:
            return call_index == self.fail_on
        return (
            random.Random(f"{self.seed}:{call_index}").random()
            < self.failure_rate
        )

    def _maybe_fail(self, call_index: int, phase: str) -> None:
        if self._should_fail(call_index):
            raise self.error(
                f"{self.message} ({self.key}.{phase} call #{call_index})"
            )

    def pre(self, annotation, term, ctx, state, inner=None):
        count, base_state = state
        if self.phase in ("pre", "both"):
            count += 1
            self._maybe_fail(count, "pre")
        if self.observes:
            base_state = self.base.pre(
                annotation, term, ctx, base_state, inner=inner
            )
        else:
            base_state = self.base.pre(annotation, term, ctx, base_state)
        return (count, base_state)

    def post(self, annotation, term, ctx, result, state, inner=None):
        count, base_state = state
        if self.phase in ("post", "both"):
            count += 1
            self._maybe_fail(count, "post")
        if self.observes:
            base_state = self.base.post(
                annotation, term, ctx, result, base_state, inner=inner
            )
        else:
            base_state = self.base.post(
                annotation, term, ctx, result, base_state
            )
        return (count, base_state)

    def __repr__(self) -> str:
        point = (
            f"fail_on={self.fail_on}"
            if self.fail_on is not None
            else f"seed={self.seed} rate={self.failure_rate}"
        )
        return f"<flaky {self.key} phase={self.phase} {point}>"


__all__ = [
    "FAULT_POLICIES",
    "FaultLog",
    "FlakyMonitor",
    "InjectedFault",
    "MonitorFault",
    "check_fault_policy",
    "fault_tuples",
]
