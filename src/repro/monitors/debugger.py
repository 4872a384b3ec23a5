"""A scriptable symbolic debugger à la dbx (Section 9.2's toolbox).

The paper notes the framework "can also support interactive monitors
(e.g. symbolic debuggers, steppers) by providing an input as well as an
output stream to and from the monitor" [Kis91].  This debugger realizes
that: the *input stream* is a sequence of commands supplied up front (or
produced by a callable), the *output stream* is a persistent
:class:`~repro.monitors.streams.Stream` in the monitor state — so an
entire interactive session is a pure value, replayable and testable.

Breakpoints are label annotations: ``{fac}: ...`` marks a break site named
``fac``.  When execution reaches a site the debugger is *stopped* and
consumes commands until one resumes execution:

============  =====================================================
command       effect
============  =====================================================
print x       show the value of ``x`` in the current context
vars          list the bindings visible at the break site
where         show the stack of active break sites
depth         show the current nesting depth
source        show the expression being evaluated
break L       add a breakpoint at label ``L`` (dynamic)
delete L      remove a breakpoint at label ``L`` (dynamic)
breakpoints   list the currently effective breakpoints
continue      resume until the next enabled breakpoint
step          resume, stopping at the *next* annotated site
finish        resume, stopping when the current site returns
quit          disable all breakpoints and run to completion
============  =====================================================

Dynamic ``break``/``delete`` commands act on a breakpoint set held in the
monitor *state*, so a session can grow and shrink its breakpoints as it
learns about the run — still purely, still replayably.

All state lives in :class:`DebuggerState`; the pre/post monitoring
functions are pure, so the debugger composes with any other monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.monitoring.spec import MonitorSpec
from repro.monitors import commands as cmd
from repro.monitors.common import context_lookup, recognize_with_namespace
from repro.monitors.streams import Stream, init_stream
from repro.semantics.values import value_to_string
from repro.syntax.annotations import Annotation, FnHeader, Label
from repro.syntax.pretty import pretty


@dataclass(frozen=True)
class DebuggerState:
    """The debugger's monitor state.

    ``mode`` is one of ``"break"`` (stop at enabled breakpoints),
    ``"step"`` (stop at any annotated site), ``"finish"`` (stop when the
    frame at ``finish_depth`` returns) or ``"run"`` (never stop again).
    """

    output: Stream
    commands: Tuple[str, ...]
    cursor: int
    stack: Tuple[str, ...]
    mode: str = "break"
    finish_depth: int = 0
    stops: int = 0
    #: Dynamic breakpoint overrides: (added labels, removed labels).
    added_breaks: frozenset = frozenset()
    removed_breaks: frozenset = frozenset()


class DebuggerMonitor(MonitorSpec):
    """Scriptable dbx-style debugger over label/function-header annotations."""

    def __init__(
        self,
        script: Sequence[str],
        breakpoints: Optional[Sequence[str]] = None,
        *,
        key: str = "debug",
        namespace: Optional[str] = None,
        source=None,
        echo=None,
    ) -> None:
        self.key = key
        self.namespace = namespace
        self.script = tuple(script)
        #: Labels to stop at; ``None`` means every annotated site.
        self.breakpoints = frozenset(breakpoints) if breakpoints is not None else None
        #: Live command source, consulted once the script is exhausted: a
        #: zero-argument callable returning the next command (or ``None``
        #: for end-of-input).  This is the paper's "input stream to the
        #: monitor" ([Kis91]); with a console-backed source the debugger
        #: becomes genuinely interactive (see repro.monitors.interactive).
        self.source = source
        #: Optional callable receiving each transcript line as it is
        #: produced — for live display; the transcript in the monitor
        #: state is unaffected.
        self.echo = echo
        #: Optional callable receiving each command string as it is
        #: consumed (script and live source alike).  The trace recorder
        #: hooks this to write ``input`` records, so a recorded debug
        #: session carries its nondeterministic inputs and replays
        #: bit-identically (see :mod:`repro.replay`).
        self.on_command = None

    def recognize(self, annotation: Annotation):
        return recognize_with_namespace(annotation, self.namespace, (Label, FnHeader))

    def host_effects(self) -> bool:
        return (
            self.source is not None
            or self.echo is not None
            or self.on_command is not None
        )

    def initial_state(self) -> DebuggerState:
        return DebuggerState(
            output=init_stream(), commands=self.script, cursor=0, stack=()
        )

    # -- stopping policy -------------------------------------------------------

    def _should_stop_pre(self, state: DebuggerState, label: str) -> bool:
        if state.mode == "run":
            return False
        if state.mode == "step":
            return True
        if state.mode == "finish":
            return False
        if label in state.removed_breaks:
            return False
        if label in state.added_breaks:
            return True
        return self.breakpoints is None or label in self.breakpoints

    # -- the interactive loop (pure: consumes script commands) ------------------

    def _emit(self, state: DebuggerState, text: str) -> DebuggerState:
        if self.echo is not None:
            self.echo(text)
        return replace(state, output=state.output.add(f"{text}\n"))

    def _next_command(self, state: DebuggerState):
        if state.cursor < len(state.commands):
            command = state.commands[state.cursor]
            if self.on_command is not None:
                self.on_command(command)
            return command, replace(state, cursor=state.cursor + 1)
        if self.source is not None:
            command = self.source()
            if command is not None:
                if self.on_command is not None:
                    self.on_command(command)
                return command, state
        return None, state

    def _interact(self, state: DebuggerState, term, ctx) -> DebuggerState:
        while True:
            command, state = self._next_command(state)
            if command is None:
                # Input exhausted: run to completion, like EOF at a dbx prompt.
                return replace(state, mode="run")
            parsed = cmd.parse_command(command)

            if isinstance(parsed, cmd.PrintVar):
                value = context_lookup(ctx, parsed.name)
                if value is None:
                    state = self._emit(state, f"{parsed.name} is not bound here")
                else:
                    state = self._emit(
                        state, f"{parsed.name} = {value_to_string(value)}"
                    )
            elif isinstance(parsed, cmd.Vars):
                from repro.monitors.common import context_names

                names = context_names(ctx)
                user_names = [n for n in names if not n.startswith("__")]
                state = self._emit(state, "vars: " + ", ".join(user_names[:12]))
            elif isinstance(parsed, cmd.Where):
                frames = " > ".join(state.stack) or "(top level)"
                state = self._emit(state, f"where: {frames}")
            elif isinstance(parsed, cmd.Depth):
                state = self._emit(state, f"depth: {len(state.stack)}")
            elif isinstance(parsed, cmd.AddBreak):
                state = replace(
                    state,
                    added_breaks=state.added_breaks | {parsed.label},
                    removed_breaks=state.removed_breaks - {parsed.label},
                )
                state = self._emit(state, f"breakpoint added: {parsed.label}")
            elif isinstance(parsed, cmd.DeleteBreak):
                state = replace(
                    state,
                    added_breaks=state.added_breaks - {parsed.label},
                    removed_breaks=state.removed_breaks | {parsed.label},
                )
                state = self._emit(state, f"breakpoint removed: {parsed.label}")
            elif isinstance(parsed, cmd.ListBreaks):
                static = set(self.breakpoints or ())
                effective = sorted(
                    (static | state.added_breaks) - state.removed_breaks
                )
                shown = ", ".join(effective) if effective else (
                    "(every annotated site)" if self.breakpoints is None else "(none)"
                )
                state = self._emit(state, f"breakpoints: {shown}")
            elif isinstance(parsed, cmd.ShowSource):
                try:
                    text = pretty(term)
                except Exception:
                    text = repr(term)
                state = self._emit(state, f"source: {text}")
            elif isinstance(parsed, cmd.Help):
                state = self._emit(state, cmd.render_help(replay=False))
            elif isinstance(parsed, cmd.Continue):
                return replace(state, mode="break")
            elif isinstance(parsed, cmd.StepCmd):
                return replace(state, mode="step")
            elif isinstance(parsed, cmd.Finish):
                return replace(
                    state, mode="finish", finish_depth=len(state.stack) - 1
                )
            elif isinstance(parsed, cmd.Quit):
                return replace(state, mode="run")
            elif cmd.is_replay_only(parsed):
                state = self._emit(
                    state,
                    f"{command.strip().split()[0]} is a replay-only command "
                    "(record the run and use `repro replay`)",
                )
            elif isinstance(parsed, cmd.Malformed):
                state = self._emit(state, f"malformed command: {parsed.reason}")
            else:
                state = self._emit(state, f"unknown command: {parsed.text!r}")

    # -- monitoring functions ----------------------------------------------------

    def pre(self, annotation, term, ctx, state: DebuggerState) -> DebuggerState:
        label = annotation.name
        state = replace(state, stack=state.stack + (label,))
        if self._should_stop_pre(state, label):
            state = self._emit(
                state, f"stopped at {label} (stop #{state.stops + 1})"
            )
            state = replace(state, stops=state.stops + 1)
            state = self._interact(state, term, ctx)
        return state

    def post(self, annotation, term, ctx, result, state: DebuggerState) -> DebuggerState:
        label = annotation.name
        new_stack = state.stack[:-1] if state.stack else ()
        state = replace(state, stack=new_stack)
        if state.mode == "finish" and len(new_stack) <= state.finish_depth:
            state = self._emit(
                state, f"{label} returned {value_to_string(result)}"
            )
            state = replace(state, stops=state.stops + 1, mode="break")
            state = self._interact(state, term, ctx)
        return state

    def report(self, state: DebuggerState) -> str:
        """The full session transcript."""
        return state.output.render()
