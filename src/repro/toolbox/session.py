"""Persistent monitoring sessions.

A :class:`Session` is the closest thing to sitting at the paper's Haskell
environment: it holds a set of recursive definitions, auto-annotates them
when tools are requested by name, and evaluates expressions under any
combination of tools and language modules — without the user ever writing
an annotation by hand (Section 4.1's "suitably engineered programming
environment").

    >>> from repro.toolbox.session import Session
    >>> s = Session()
    >>> s.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
    >>> result = s.evaluate("fac 4", tools="profile & trace")
    >>> result.answer
    24
    >>> result.report("profile")
    {'fac': 5}
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.languages.base import BaseLanguage
from repro.languages.strict import strict
from repro.monitoring.spec import MonitorSpec
from repro.syntax.ast import Expr, Lam, Letrec, strip_annotations_shallow
from repro.syntax.parser import parse
from repro.toolbox.autoannotate import annotate_function_bodies
from repro.toolbox.registry import EvaluationResult, evaluate, make_tool

#: Tools whose annotations the session can place automatically, with the
#: annotation style each expects on function bodies.
_AUTO_STYLES = {
    "profile": "label",
    "trace": "header",
    "step": "label",
    "coverage": "label",
    "count": "label",
    "callgraph": "label",
    "history": "label",
}


class Session:
    """A stateful environment: definitions plus tool-aware evaluation."""

    def __init__(self, language: BaseLanguage = strict) -> None:
        self.language = language
        self._definitions: Dict[str, Expr] = {}
        self._order: List[str] = []

    # -- definitions -------------------------------------------------------------

    def define(self, name: str, source: Union[str, Expr]) -> None:
        """Add (or replace) a recursive definition.

        The bound expression must be a lambda; definitions may refer to
        each other and to themselves (they are assembled into one
        ``letrec``).
        """
        expr = parse(source) if isinstance(source, str) else source
        if not isinstance(strip_annotations_shallow(expr), Lam):
            raise ReproError(f"definition {name!r} must be a lambda abstraction")
        if name not in self._definitions:
            self._order.append(name)
        self._definitions[name] = expr

    def undefine(self, name: str) -> None:
        self._definitions.pop(name, None)
        if name in self._order:
            self._order.remove(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def program_for(self, expr_source: Union[str, Expr]) -> Expr:
        """The full program: all definitions wrapped around the expression."""
        body = parse(expr_source) if isinstance(expr_source, str) else expr_source
        if not self._definitions:
            return body
        bindings = tuple((name, self._definitions[name]) for name in self._order)
        return Letrec(bindings, body)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self,
        expr_source: Union[str, Expr],
        tools: Union[str, Sequence[Union[str, MonitorSpec]], None] = None,
        *,
        functions: Optional[Sequence[str]] = None,
        config=None,
        cache=None,
    ) -> EvaluationResult:
        """Evaluate an expression over the session's definitions.

        ``tools`` names toolbox monitors (``"profile & trace"`` or
        ``"profile,trace"`` — both separators are accepted); for each
        named tool with an automatic annotation style the session
        annotates the definitions in that tool's own namespace, so any
        combination composes with disjoint syntaxes.  ``functions``
        restricts auto-annotation to the listed definitions ("trace calls
        to the function f").  Run options come from ``config`` (a
        :class:`repro.runtime.RunConfig`) and ``cache`` (a
        :class:`repro.runtime.CompilationCache`) memoizes code
        generation — both are forwarded to the toolbox ``evaluate``.
        """
        program = self.program_for(expr_source)

        if tools is None:
            return evaluate(
                (),
                program,
                language=self.language,
                config=config,
                cache=cache,
            )

        tool_items = self._normalize_tools(tools)
        monitors: List[MonitorSpec] = []
        for item in tool_items:
            if isinstance(item, MonitorSpec):
                monitors.append(item)
                continue
            name = item
            style = _AUTO_STYLES.get(name)
            monitor = make_tool(name, namespace=name)
            monitors.append(monitor)
            if style is not None:
                program = annotate_function_bodies(
                    program, functions, style=style, namespace=name
                )
        return evaluate(
            monitors,
            program,
            language=self.language,
            config=config,
            cache=cache,
        )

    @staticmethod
    def _normalize_tools(
        tools: Union[str, Sequence[Union[str, MonitorSpec]]]
    ) -> List[Union[str, MonitorSpec]]:
        if isinstance(tools, str):
            # Accept both the ``&`` toolchain syntax and the CLI's
            # comma-separated convention — every subcommand splits on
            # commas, so a session invoked with ``--tools profile,trace``
            # must mean the same two tools.
            return [part.strip() for part in re.split(r"[&,]", tools) if part.strip()]
        if isinstance(tools, MonitorSpec):
            return [tools]
        return list(tools)

    # -- persistence -----------------------------------------------------------

    _HEADER = "-- repro-session v1"
    _DEFINE = "-- define: "

    def save(self, path) -> None:
        """Write the session's definitions to ``path``.

        The format is plain ``L_lambda`` source under ``-- define: name``
        headers, so a saved session is readable and hand-editable.
        """
        from repro.syntax.pretty import pretty

        lines = [self._HEADER]
        for name in self._order:
            lines.append(f"{self._DEFINE}{name}")
            lines.append(pretty(self._definitions[name]))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path, *, language: Optional[BaseLanguage] = None) -> "Session":
        """Rebuild a session saved with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines or lines[0].strip() != cls._HEADER:
            raise ReproError(f"{path} is not a repro session file")
        session = cls() if language is None else cls(language=language)
        name: Optional[str] = None
        chunk: List[str] = []

        def flush() -> None:
            if name is not None:
                session.define(name, "\n".join(chunk))

        for line in lines[1:]:
            if line.startswith(cls._DEFINE):
                flush()
                name = line[len(cls._DEFINE):].strip()
                chunk = []
            else:
                chunk.append(line)
        flush()
        return session
