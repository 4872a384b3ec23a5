"""Run metrics: cheap, always-available counters for one monitored run.

:class:`RunMetrics` is the aggregate face of the observability layer
(PAPERS.md, Jahier & Ducassé's *collecting views*): a handful of counters
that summarize what a run did, without keeping the event stream around.
The counters are **engine-independent by construction** — they count
semantic events (expression evaluations, monitor hook calls), not
implementation steps — so the reference derivation and the codegen
engine produce *identical* metrics for the same program and monitor stack.
The engine-parity suite asserts exactly this.

Counter definitions:

* ``steps`` — expression-node evaluations: one per evaluation of a source
  node, the granularity at which the reference interpreter recurs.  The
  codegen engine adds the same node counts one straight-line region of
  its collapsed code at a time, so the number is comparable across
  engines.  It is also the unit of ``RunConfig.max_steps``.
* ``applications`` — evaluations of application (``App``) nodes, i.e.
  function-application expressions entered (curried primitive
  applications count one per ``App`` node).
* ``activations`` — per monitor slot: annotated-node entries claimed by
  that monitor (= ``pre`` hook attempts, including ones that fault).
* ``pre_calls`` / ``post_calls`` — per slot: monitor hook invocations.
  ``post_calls`` can fall short of ``pre_calls`` when a slot is
  quarantined mid-run.
* ``state_transitions`` — monitor hook calls that returned a *new* state
  object (monitors are pure, so identity is the transition test).
* ``faults`` — per slot: the run's final fault records (always empty
  under the ``propagate`` policy, where a fault aborts).
* ``wall_time`` / ``monitor_time`` — seconds; ``monitor_time`` is the
  time spent inside monitor ``pre``/``post`` hooks, ``eval_time`` the
  remainder.  A post-hoc fold (:func:`repro.tracing.analyze_trace`)
  evaluates no program, so it charges its whole fold time to both, and
  its ``eval_time`` is zero.  Times are excluded from equality so
  metrics from different engines compare equal when the counters agree.

Metrics objects accumulate: pass the same instance to several runs to sum
them, or call :meth:`RunMetrics.reset` between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


def _render_slots(counters: Dict[str, int]) -> str:
    if not counters:
        return "none"
    return ", ".join(f"{key}={counters[key]}" for key in sorted(counters))


@dataclass
class RunMetrics:
    """Counters for one (or several, accumulated) monitored runs.

    The counters are exact for runs that complete.  A codegen run that
    raises may also have counted the rest of its faulting region, which
    is why batch results and ``repro run --metrics`` never show the
    metrics of a failed run.
    """

    steps: int = 0
    applications: int = 0
    activations: Dict[str, int] = field(default_factory=dict)
    pre_calls: Dict[str, int] = field(default_factory=dict)
    post_calls: Dict[str, int] = field(default_factory=dict)
    state_transitions: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    wall_time: float = field(default=0.0, compare=False)
    monitor_time: float = field(default=0.0, compare=False)

    @property
    def eval_time(self) -> float:
        """Wall-clock time spent outside monitor hooks (standard eval)."""
        return max(0.0, self.wall_time - self.monitor_time)

    def total_activations(self) -> int:
        return sum(self.activations.values())

    def total_faults(self) -> int:
        return sum(self.faults.values())

    def reset(self) -> None:
        """Zero every counter, ready for a fresh run."""
        self.restore(RunMetrics())

    def copy(self) -> "RunMetrics":
        """An independent accumulator with the same counters (times included)."""
        saved = RunMetrics()
        saved.restore(self)
        return saved

    def restore(self, saved: "RunMetrics") -> None:
        """Rewind this accumulator, in place, to the counters of ``saved``.

        The object keeps its identity — hook wrappers holding it keep
        charging it — and shares no dict with ``saved``.
        """
        for name, value in vars(saved).items():
            if isinstance(value, dict):
                counters = getattr(self, name)
                counters.clear()
                counters.update(value)
            else:
                setattr(self, name, value)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (times in seconds)."""
        return {
            "steps": self.steps,
            "applications": self.applications,
            "activations": dict(sorted(self.activations.items())),
            "pre_calls": dict(sorted(self.pre_calls.items())),
            "post_calls": dict(sorted(self.post_calls.items())),
            "state_transitions": self.state_transitions,
            "faults": dict(sorted(self.faults.items())),
            "wall_time": self.wall_time,
            "monitor_time": self.monitor_time,
            "eval_time": self.eval_time,
        }

    def render(self) -> str:
        """The multi-line summary the CLI prints for ``--metrics``."""
        lines = [
            f"steps:             {self.steps}",
            f"applications:      {self.applications}",
            f"activations:       {_render_slots(self.activations)}",
            f"pre calls:         {_render_slots(self.pre_calls)}",
            f"post calls:        {_render_slots(self.post_calls)}",
            f"state transitions: {self.state_transitions}",
            f"faults:            {_render_slots(self.faults)}",
            (
                f"wall time:         {self.wall_time * 1e3:.3f} ms "
                f"(standard eval {self.eval_time * 1e3:.3f} ms, "
                f"monitoring {self.monitor_time * 1e3:.3f} ms)"
            ),
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


__all__ = ["RunMetrics"]
