"""Interactive front ends for stream-driven monitors.

"It is important to note that this framework can also support interactive
monitors (e.g. symbolic debuggers, steppers) by providing an input as
well as an output stream to and from the monitor" (Section 8, citing
[Kis91]).  The :class:`~repro.monitors.debugger.DebuggerMonitor` consumes
an input stream of commands and produces an output stream; this module
supplies the plumbing that connects those streams to a console (or to any
pair of callables), turning the pure monitor into a live tool.

:func:`debug` is the entry point and returns a typed
:class:`DebugResult` sharing the batch :class:`~repro.runtime.batch.
RunResult` wire conventions (``to_dict``/``from_dict``, ``duration``,
``trace``, ``diagnostics``), so a debug session serializes like any
other run outcome.  Under ``RunConfig(mode="record", record_dir=...)``
the session is *recorded while it happens* — every consumed command
becomes an ``input`` record in the trace — and ``result.trace`` names a
replayable artifact for ``repro replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.languages.strict import strict
from repro.monitoring.derive import MonitoredResult, run_monitored
from repro.monitors.debugger import DebuggerMonitor
from repro.runtime.config import RunConfig


class IteratorSource:
    """A command source backed by any iterator (file, generator, socket...)."""

    def __init__(self, commands: Iterable[str]) -> None:
        self._iterator: Iterator[str] = iter(commands)

    def __call__(self) -> Optional[str]:
        try:
            return next(self._iterator)
        except StopIteration:
            return None


class ConsoleSource:
    """A command source reading from the console (``input``)."""

    def __init__(self, prompt: str = "(mdb) ", input_fn: Callable[[str], str] = input):
        self.prompt = prompt
        self.input_fn = input_fn

    def __call__(self) -> Optional[str]:
        try:
            return self.input_fn(self.prompt)
        except EOFError:
            return None


@dataclass
class DebugResult:
    """One debugging session's outcome, on the ``RunResult`` wire format.

    ``transcript`` is the full session text (also what :meth:`report`
    returns, keeping the historical ``result.report()`` spelling
    working); ``faults`` holds captured :class:`~repro.monitoring.
    faults.MonitorFault` records under a non-``propagate`` policy;
    ``trace`` names the recorded artifact when the session ran under
    ``mode="record"`` — feed it to ``repro replay`` for time travel.
    ``monitored`` keeps the in-process :class:`~repro.monitoring.derive.
    MonitoredResult` (``None`` after ``from_dict``).
    """

    ok: bool = True
    answer: object = None
    transcript: str = ""
    faults: Tuple = ()
    stops: int = 0
    trace: Optional[str] = None
    duration: float = 0.0
    diagnostics: Tuple = ()
    metrics: object = None
    monitored: Optional[MonitoredResult] = field(default=None, repr=False)

    def report(self, monitor=None) -> str:
        """The session transcript (the debugger monitor's report)."""
        if monitor is not None and self.monitored is not None:
            return self.monitored.report(monitor)
        return self.transcript

    def healthy(self) -> bool:
        return not self.faults

    def to_dict(self, *, render=None) -> Dict[str, object]:
        """A JSON-friendly projection, mirroring ``RunResult.to_dict``."""
        from repro.runtime.batch import _render_value

        show = render if render is not None else _render_value
        out: Dict[str, object] = {"ok": self.ok}
        out["answer"] = show(self.answer)
        out["reports"] = {"debug": self.transcript}
        if self.faults:
            out["faults"] = [
                [f.monitor_key, f.phase, f.error_type, f.message]
                if not isinstance(f, (list, tuple))
                else list(f)
                for f in self.faults
            ]
        if self.trace is not None:
            out["trace"] = self.trace
        out["stops"] = self.stops
        out["duration"] = self.duration
        if self.diagnostics:
            out["diagnostics"] = [
                d if isinstance(d, dict) else d.to_dict()
                for d in self.diagnostics
            ]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DebugResult":
        """Rebuild from a :meth:`to_dict` projection (rendered values)."""
        reports = dict(data.get("reports", {}))
        return cls(
            ok=bool(data.get("ok", True)),
            answer=data.get("answer"),
            transcript=str(reports.get("debug", "")),
            faults=tuple(tuple(f) for f in data.get("faults", ())),
            stops=int(data.get("stops", 0)),
            trace=data.get("trace"),
            duration=float(data.get("duration", 0.0)),
            diagnostics=tuple(data.get("diagnostics", ())),
        )


def debug(
    program,
    *,
    breakpoints: Optional[Sequence[str]] = None,
    language=strict,
    source: Optional[Callable[[], Optional[str]]] = None,
    output: Callable[[str], None] = print,
    script: Sequence[str] = (),
    config=None,
) -> DebugResult:
    """Run ``program`` under an interactive debugging session.

    ``script`` commands run first; when they are exhausted, ``source`` is
    consulted (default: the console).  ``output`` receives each transcript
    line as it is produced.  Run options come from ``config`` (a
    :class:`repro.runtime.RunConfig`; ``None`` means the defaults).

    With ``RunConfig(mode="record", record_dir=...)`` the session runs
    live *and* is recorded: the trace carries every consumed command as
    an ``input`` record (plus a ``deadline`` record if the timeout
    fires), so ``repro replay result.trace`` steps through the very same
    session — backward too.

    Returns a :class:`DebugResult` — ``answer``, the full
    ``transcript``, ``faults``, ``duration``, ``trace`` — sharing the
    batch result wire format.
    """
    cfg = RunConfig.checked(config)
    if source is None:
        source = ConsoleSource()
    monitor = DebuggerMonitor(
        script, breakpoints=breakpoints, source=source, echo=output
    )
    started = perf_counter()

    if cfg.mode == "record":
        from repro.tracing.record import record_to_dir

        outcome = record_to_dir(language, program, cfg, live=monitor)
        state = outcome.live_state
        return DebugResult(
            answer=outcome.answer,
            transcript=monitor.report(state),
            faults=(),
            stops=getattr(state, "stops", 0),
            trace=outcome.trace,
            duration=perf_counter() - started,
            metrics=outcome.metrics,
        )

    result = run_monitored(language, program, monitor, config=cfg)
    state = result.states.get(monitor.key)
    return DebugResult(
        answer=result.answer,
        transcript=result.report(),
        faults=result.faults,
        stops=getattr(state, "stops", 0),
        trace=result.trace,
        duration=perf_counter() - started,
        diagnostics=result.diagnostics,
        metrics=result.metrics,
        monitored=result,
    )
