"""Time travel over recorded traces: checkpointed replay and debugging.

The PR 8 trace backend made a run a *value* (record once, fold monitor
stacks over it later); this package makes that value *navigable*:

* :class:`~repro.replay.session.ReplaySession` — the incremental,
  seekable trace fold, with automatic monitor-state checkpoints every
  ``RunConfig(checkpoint_interval=...)`` events so ``seek(k)`` replays
  at most one interval, not the whole prefix;
* :class:`~repro.replay.checkpoints.CheckpointIndex` — the checkpoint
  store, persistable to a ``<trace>.ckpt`` sidecar;
* :class:`~repro.replay.debugger.ReplayDebugger` — the time-travel
  debugger behind ``repro replay``: the live command set plus ``back``,
  ``goto``, ``rewind``, ``events``, and the omniscient queries
  ``when-was``/``value-at`` over :mod:`repro.monitors.history` state.

Recording is engine- and language-generic (the recorder is an ordinary
monitor), so anything ``repro run --mode record`` produced — reference,
compiled, or codegen; L_lambda, L_imp, or L_exc — replays here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Checkpoint": "repro.replay.checkpoints",
        "CheckpointIndex": "repro.replay.checkpoints",
        "sidecar_path": "repro.replay.checkpoints",
        "HISTORY_KEY": "repro.replay.debugger",
        "ReplayDebugger": "repro.replay.debugger",
        "default_stack": "repro.replay.debugger",
        "ReplaySession": "repro.replay.session",
    },
)
