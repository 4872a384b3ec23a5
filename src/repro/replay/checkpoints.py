"""Checkpointed fold state: the seek index under time travel.

Monitor states are persistent values (the whole framework is built on
that), and contexts are never mutated, so the fold's state dict and its
pending map of open activations (each a ``pre`` context and the token
naming the claimant whose ``pre`` ran) are copied shallowly.  The fold's
live objects — the states its :class:`~repro.monitoring.sites.
SiteBinding` owns, the :class:`~repro.observability.metrics.RunMetrics`
its hook wrappers charge and the :class:`~repro.monitoring.faults.
FaultLog` its hook path records into — are copied *out* when a
checkpoint is taken and written *back in place* when it is restored: the
fold keeps its objects, so the binding, wrappers and log stay bound to
them, and stepping forward from a restore never corrupts the stored
snapshot.  Restoring the disabled set rebinds, so the slots quarantined
at the checkpoint, and only those, have handed their sites on.

The index can persist to a sidecar file next to the trace
(``<trace>.ckpt``): a JSON envelope naming the fold's ``checkpoints``
:func:`~repro.runtime.cache.artifact_key` — the program folded, each
spec's ``cache_identity``, a digest of the trace file's bytes, the
fault policy, whether metrics are on and the interval — around a base64
pickle of the checkpoints.  On load, a different key, envelope version
or an unreadable pickle silently yields "no index" and the session
rebuilds from scratch; a sidecar is a cache, never a source of truth.
Only load sidecars you wrote: they are pickles.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.monitoring.faults import MonitorFault
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics

#: Bump when the sidecar envelope or Checkpoint layout changes.
SIDECAR_VERSION = 4


@dataclass(frozen=True)
class Checkpoint:
    """The complete fold state after ``position`` trace events.

    ``states``, ``metrics``, ``pending``, ``faults`` and ``disabled``
    are this checkpoint's own copies, so the snapshot is immune to later
    mutation by the fold that took or resumed it.
    """

    position: int
    states: MonitorStateVector
    stack: Tuple[Tuple[int, str], ...]  # open activations: (site, label)
    metrics: Optional[RunMetrics]
    #: Open ``pre`` activations: (site, occ) -> (context, claimant token).
    pending: Dict[Tuple[int, int], Tuple[object, Optional[str]]]
    faults: Tuple[MonitorFault, ...]
    disabled: frozenset

    @classmethod
    def capture(cls, session) -> "Checkpoint":
        """Snapshot a :class:`~repro.replay.session.ReplaySession`'s fold."""
        metrics = session.metrics
        return cls(
            position=session.position,
            states=MonitorStateVector(dict(session.states)),
            stack=session.stack,
            metrics=metrics.copy() if metrics is not None else None,
            pending=dict(session.pending),
            faults=session.faults,
            disabled=session.disabled,
        )

    def restore(self, session) -> None:
        """Rewind ``session`` to this point, keeping its live objects."""
        session.position = self.position
        session.states.update(self.states.as_dict())
        session.stack = self.stack
        session.pending = dict(self.pending)
        if session.metrics is not None and self.metrics is not None:
            session.metrics.restore(self.metrics)
        log = session.fault_log
        if log is not None:
            log.faults[:] = self.faults
            log.disabled.clear()
            log.disabled.update(self.disabled)
            session.binding.rebind()


class CheckpointIndex:
    """Checkpoints at every ``interval`` events, sorted by position.

    ``nearest(k)`` answers "the latest checkpoint at or before event k"
    in O(log n); :meth:`note` keeps the invariant that positions are
    strictly increasing (re-noting a known position is a no-op, so a
    session may fold the same span twice without duplicating).
    """

    def __init__(self, interval: int) -> None:
        if interval < 1:
            raise ValueError(
                f"checkpoint interval must be positive, got {interval!r}"
            )
        self.interval = interval
        self._positions: List[int] = []
        self._points: List[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._points)

    @property
    def positions(self) -> Tuple[int, ...]:
        return tuple(self._positions)

    def is_boundary(self, position: int) -> bool:
        return position > 0 and position % self.interval == 0

    def note(self, point: Checkpoint) -> None:
        index = bisect_right(self._positions, point.position)
        if index and self._positions[index - 1] == point.position:
            return
        self._positions.insert(index, point.position)
        self._points.insert(index, point)

    def nearest(self, position: int) -> Optional[Checkpoint]:
        index = bisect_right(self._positions, position)
        if not index:
            return None
        return self._points[index - 1]

    # -- sidecar persistence ---------------------------------------------------

    def save(self, path: str, *, key: Tuple) -> bool:
        """Write the sidecar under ``key``; ``False`` if any state resists pickle."""
        try:
            blob = pickle.dumps(self._points, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        envelope = {
            "sidecar_version": SIDECAR_VERSION,
            "key": repr(key),
            "checkpoints": len(self._points),
            "data": base64.b64encode(blob).decode("ascii"),
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
            handle.write("\n")
        os.replace(tmp, path)
        return True

    @classmethod
    def load(
        cls, path: str, *, key: Tuple, interval: int
    ) -> Optional["CheckpointIndex"]:
        """Reload a sidecar if it was saved under exactly ``key``."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            if (
                envelope.get("sidecar_version") != SIDECAR_VERSION
                or envelope.get("key") != repr(key)
            ):
                return None
            points = pickle.loads(base64.b64decode(envelope["data"]))
        except Exception:
            return None
        index = cls(interval)
        for point in points:
            if isinstance(point, Checkpoint):
                index.note(point)
        return index


def sidecar_path(trace_path: str) -> str:
    """Where a trace's checkpoint index lives (``<trace>.ckpt``)."""
    return f"{trace_path}.ckpt"


__all__ = [
    "Checkpoint",
    "CheckpointIndex",
    "SIDECAR_VERSION",
    "sidecar_path",
]
