"""The replay session: the trace fold under a seekable cursor.

:func:`repro.tracing.analyze_trace` folds a monitor stack over a whole
trace in one pass.  A time-travel debugger needs the same fold *stopped
anywhere*: the state after event 17, then after event 3, then after
event 40_000.  :class:`ReplaySession` is that fold — it *is* a
:class:`~repro.tracing.analyze.TraceFold`, so claim resolution, metric
charging and the three fault policies are the very code ``analyze_trace``
runs — with three things around it:

* a cursor: ``seek(k)`` moves to "k events applied".  Going forward
  from the current position folds just the gap; going *backward* — the
  whole point — restores the nearest :class:`~repro.replay.checkpoints.
  Checkpoint` at or before ``k`` and folds forward from there, so a
  ``back`` in the debugger costs at most ``checkpoint_interval`` events,
  never a refold from zero;
* a :class:`~repro.replay.checkpoints.CheckpointIndex`: checkpoints are
  taken at every interval boundary as the fold first passes it (and
  persisted to the sidecar on request); a checkpoint holds the whole
  fold state, fault records and disabled slots included, so seeking
  backward also rewinds quarantines;
* the debugger's call stack of open activations.

Equivalence with the straight fold is a tested property, not an
aspiration: ``tests/test_replay.py`` drives generated programs under
both engines, and flaky stacks under every fault policy, through
``record → seek(every boundary)`` and asserts state, metrics and
fault-record equality against :func:`analyze_trace`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.monitoring.spec import MonitorSpec
from repro.observability.metrics import RunMetrics
from repro.replay.checkpoints import Checkpoint, CheckpointIndex, sidecar_path
from repro.semantics.env import Environment
from repro.tracing.analyze import TraceAnalysis, TraceFold, recorded_context
from repro.tracing.schema import Site, Trace, TraceEvent


def _site_label(site: Site) -> str:
    return getattr(site.annotation, "name", None) or site.rendered


class ReplaySession(TraceFold):
    """One trace fold with a cursor, a checkpoint index and a call stack.

    ``metrics=True`` (the default) folds with a fresh accumulator so
    positions can be compared counter-for-counter with an inline run;
    ``fault_policy`` is ``analyze_trace``'s.
    """

    def __init__(
        self,
        trace: Union[str, Trace],
        monitors: Union[MonitorSpec, Sequence[MonitorSpec]],
        *,
        program=None,
        fault_policy: str = "propagate",
        metrics: Union[bool, None, RunMetrics] = True,
        check_disjointness: bool = True,
        checkpoint_interval: int = 512,
        allow_truncated: bool = True,
        use_sidecar: bool = False,
    ) -> None:
        super().__init__(
            trace,
            monitors,
            program=program,
            fault_policy=fault_policy,
            metrics=metrics,
            check_disjointness=check_disjointness,
            allow_truncated=allow_truncated,
        )
        self._labels = [_site_label(site) for site in self.sites]
        #: Events applied so far.
        self.position = 0
        #: Open activations, outermost first: ``(site, label)``.
        self.stack: Tuple[Tuple[int, str], ...] = ()
        self._origin = Checkpoint.capture(self)

        # A checkpoint is the fold of the bytes read_trace parsed under
        # this program, stack, policy and metrics setting, from empty
        # counters: a sidecar serves only that exact fold, and a fold into
        # an accumulator that already holds counts neither loads nor saves.
        fresh_counters = self.metrics is None or self.metrics == RunMetrics()
        self._sidecar = (
            sidecar_path(self.trace.path)
            if use_sidecar and self.trace.digest is not None and fresh_counters
            else None
        )
        self.checkpoints = None
        if self._sidecar is not None:
            from repro.runtime.cache import artifact_key

            self._sidecar_key = artifact_key(
                "checkpoints",
                self.program,
                self.monitors,
                trace=self.trace.digest,
                fault_policy=fault_policy,
                metrics=self.metrics is not None,
                interval=checkpoint_interval,
            )
            self.checkpoints = CheckpointIndex.load(
                self._sidecar, key=self._sidecar_key, interval=checkpoint_interval
            )
        if self.checkpoints is None:
            self.checkpoints = CheckpointIndex(checkpoint_interval)

        #: Events folded since construction — the seek-cost meter the
        #: benchmark (and the curious) read.
        self.replayed_events = 0

    # -- the cursor ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.trace.events)

    def seek(self, position: int) -> int:
        """Move the cursor to "``position`` events applied"; returns it.

        Positions clamp to ``[0, len(self)]``.  Backward (or far-forward)
        seeks restart from the best checkpoint at or before the target;
        the fold forward takes checkpoints at each interval boundary it
        first crosses, so later seeks into the same region are cheap.
        """
        target = max(0, min(int(position), len(self.trace.events)))
        point = self.checkpoints.nearest(target)
        if target < self.position:
            (point or self._origin).restore(self)
        elif point is not None and point.position > self.position:
            point.restore(self)
        events = self.trace.events
        while self.position < target:
            event = events[self.position]
            site = event.site
            if event.phase == "pre":
                self.stack += ((site, self._labels[site]),)
            elif self.stack and self.stack[-1][0] == site:
                self.stack = self.stack[:-1]
            else:  # sampled-out pre, or control escaped: drop best match
                for i in range(len(self.stack) - 1, -1, -1):
                    if self.stack[i][0] == site:
                        self.stack = self.stack[:i] + self.stack[i + 1 :]
                        break
            self.step(event)
            self.position += 1
            self.replayed_events += 1
            if self.checkpoints.is_boundary(self.position):
                self.checkpoints.note(Checkpoint.capture(self))
        return self.position

    def event_at(self, position: int) -> Optional[TraceEvent]:
        """The event applied by step ``position + 1`` (None past the end)."""
        events = self.trace.events
        if 0 <= position < len(events):
            return events[position]
        return None

    @property
    def current_event(self) -> Optional[TraceEvent]:
        """The most recently applied event (None at position 0)."""
        return self.event_at(self.position - 1)

    def context_at(self, position: int) -> Environment:
        """The recorded bindings in scope at event ``position``.

        For a ``pre`` event, its own bindings; for a ``post``, the
        bindings of the matching ``pre`` (the recorder pairs them by
        (site, occurrence)).
        """
        event = self.event_at(position)
        if event is not None and event.phase == "post":
            events = self.trace.events
            event = next(
                (
                    events[earlier]
                    for earlier in range(position - 1, -1, -1)
                    if events[earlier].phase == "pre"
                    and events[earlier].site == event.site
                    and events[earlier].occ == event.occ
                ),
                None,
            )
        return recorded_context(event)

    def label_of(self, event: TraceEvent) -> str:
        return self._labels[event.site]

    def state_of(self, key: str):
        """The monitor state for ``key`` at the current cursor."""
        return self.states.get(key)

    # -- whole-fold views ------------------------------------------------------

    def analysis(self) -> TraceAnalysis:
        """Seek to the end and package the fold as a ``TraceAnalysis``.

        Field-for-field what :func:`repro.tracing.analyze_trace` returns
        for the same trace/stack/policy (footer step counters included,
        on a copy of the session's own counters) — the equivalence suite
        compares the two directly.
        """
        self.seek(len(self.trace.events))
        metrics = self.metrics
        return self.package(metrics.copy() if metrics is not None else None)

    def save_checkpoints(self) -> bool:
        """Persist the index to the sidecar (if enabled and picklable)."""
        if self._sidecar is None:
            return False
        return self.checkpoints.save(self._sidecar, key=self._sidecar_key)


__all__ = ["ReplaySession"]
