"""Figure 7: the fancy indenting tracer.

The tracer state is ``MS = OutChan x N`` — an output channel plus a trace
*level* (call-nesting depth).  Function bodies are annotated with the
function-header syntax ``Fh`` (``{fac(x)}: ...``); on entry the tracer
prints ``[FAC receives (3)]`` at the current level and increments the
level, on exit it prints ``[FAC returns 6]`` one level up and decrements.

For the annotated ``fac 3`` of Section 8 the output channel reads::

    [FAC receives (3)]
    |    [FAC receives (2)]
    |    |    [FAC receives (1)]
    |    |    |    [FAC receives (0)]
    |    |    |    [FAC returns 1]
    |    |    |    [MUL receives (1 1)]
    |    |    |    [MUL returns 1]
    |    |    [FAC returns 1]
    |    |    [MUL receives (2 1)]
    |    |    [MUL returns 2]
    |    [FAC returns 2]
    |    [MUL receives (3 2)]
    |    [MUL returns 6]
    [FAC returns 6]

(the paper's typeset indentation uses the same per-level ``|`` gutter).

The stream operations are pure — ``printChan`` returns a new channel — so
the tracer is a legal monitor: its only effect is on its own state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.monitoring.spec import MonitorSpec
from repro.monitors.common import context_lookup, recognize_with_namespace
from repro.monitors.streams import Stream, init_stream
from repro.semantics.values import value_to_string
from repro.syntax.annotations import Annotation, FnHeader

#: ``MS = OutChan x N``.
TracerState = Tuple[Stream, int]

#: One indentation column per trace level.
INDENT_UNIT = "|    "


def indent(level: int, channel: Stream) -> Stream:
    """``indent``: begin a new output line at ``level``."""
    return channel.add(INDENT_UNIT * level)


def print_chan(text: str, level: int, channel: Stream) -> Stream:
    """``printChan``: emit one indented line.

    Equivalent to ``indent`` then ``addStream(text)`` then a newline, but
    added as one chunk so each trace line costs one stream node.
    """
    return channel.add(f"{INDENT_UNIT * level}{text}\n")


def init_state() -> TracerState:
    """``initState = (initStream, 0)``."""
    return (init_stream(), 0)


class TracerMonitor(MonitorSpec):
    """The Figure 7 tracer.

    ``show_value`` controls how argument/result values render (defaults to
    the paper's ``ToStr``); ``uppercase`` matches the paper's output where
    function names appear in capitals.
    """

    def __init__(
        self,
        *,
        key: str = "trace",
        namespace: Optional[str] = None,
        uppercase: bool = True,
        show_value=value_to_string,
    ) -> None:
        self.key = key
        self.namespace = namespace
        self.uppercase = uppercase
        self.show_value = show_value

    # MSyn: function headers ``f(x1, ..., xn)``.
    def recognize(self, annotation: Annotation) -> Optional[FnHeader]:
        return recognize_with_namespace(annotation, self.namespace, FnHeader)

    # MAlg: output channel x level.
    def initial_state(self) -> TracerState:
        return init_state()

    # MFun.
    def _display_name(self, annotation: FnHeader) -> str:
        return annotation.name.upper() if self.uppercase else annotation.name

    def pre(self, annotation: FnHeader, term, ctx, state: TracerState) -> TracerState:
        channel, level = state
        shown_args = " ".join(
            self._render_binding(ctx, param) for param in annotation.params
        )
        line = f"[{self._display_name(annotation)} receives ({shown_args})]"
        return (print_chan(line, level, channel), level + 1)

    def post(
        self, annotation: FnHeader, term, ctx, result, state: TracerState
    ) -> TracerState:
        channel, level = state
        line = f"[{self._display_name(annotation)} returns {self.show_value(result)}]"
        return (print_chan(line, level - 1, channel), level - 1)

    def _render_binding(self, ctx, name: str) -> str:
        value = context_lookup(ctx, name)
        if value is None:
            return "?"
        return self.show_value(value)

    def report(self, state: TracerState) -> str:
        """The rendered trace text."""
        channel, _ = state
        return channel.render()
