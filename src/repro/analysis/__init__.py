"""Static analysis of ``L_lambda`` programs and monitor stacks.

The paper gets its well-formedness guarantees from Haskell's type system
(Section 9.2) and its non-interference guarantee from Theorem 7.7; this
package moves the corresponding checks *before execution*:

* :func:`analyze` runs every applicable pass over a program and the
  monitor stack it will execute under, returning an
  :class:`~repro.analysis.diagnostics.AnalysisReport` of structured,
  source-located :class:`~repro.analysis.diagnostics.Diagnostic` values;
* ``RunConfig(lint="warn"|"error")`` makes ``run_monitored`` /
  ``compile_program`` / the batch runtime run the analyzer at admission,
  and ``lint="error"`` rejects programs with a
  :class:`~repro.analysis.diagnostics.StaticAnalysisError` before a
  single evaluation step;
* the ``repro check`` CLI subcommand renders a report as caret-underlined
  text or JSON and exits non-zero on errors.

``docs/ANALYSIS.md`` catalogues every diagnostic code with a minimal
triggering example.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    LINT_LEVELS,
    StaticAnalysisError,
    check_lint_level,
    render_json,
    render_text,
)
from repro.analysis.scope import analyze_scope, free_vars
from repro.analysis.specs import analyze_spec, probe_monitor
from repro.analysis.stack import analyze_stack, claim_sets
from repro._lazy import lazy_exports
from repro.monitoring.compose import flatten_monitors
from repro.syntax.ast import Expr

# The flow pass (and the CFG it builds on) loads only when a caller asks
# for it: ``analyze(flow=True)`` or one of these names.
__getattr__, __dir__, _FLOW_EXPORTS = lazy_exports(
    __name__,
    {
        "FlowAnalysis": "repro.analysis.flow",
        "SiteFlow": "repro.analysis.flow",
        "analyze_flow": "repro.analysis.flow",
        "flow_diagnostics": "repro.analysis.flow",
    },
)


def _global_names(language) -> FrozenSet[str]:
    """The initial environment's names, or a safe fallback."""
    try:
        if language is not None:
            context = language.initial_context()
        else:
            from repro.semantics.primitives import initial_environment

            context = initial_environment()
        names = getattr(context, "names", None)
        if callable(names):
            return frozenset(names())
    except Exception:
        pass
    return frozenset()


def _resolve_monitors(monitors):
    """Flatten ``monitors``, resolving toolbox names (``"profile"``) too.

    Lazy import: the toolbox imports this package for its lint gate, so
    the registry can only be reached from inside a call.
    """
    has_names = isinstance(monitors, str) or (
        isinstance(monitors, (list, tuple))
        and any(isinstance(item, str) for item in monitors)
    )
    if has_names:
        from repro.toolbox.registry import _resolve_tools

        resolved, _ = _resolve_tools(monitors)
        return list(resolved)
    return flatten_monitors(monitors)


def analyze(
    program,
    monitors=(),
    *,
    language=None,
    source: Optional[str] = None,
    include_specs: bool = True,
    probe: bool = False,
    flow: bool = False,
) -> AnalysisReport:
    """Run every static-analysis pass and return the combined report.

    ``program`` is an ``L_lambda`` expression (or source text, parsed
    with the default strict grammar); ``monitors`` is anything the
    toolbox ``evaluate`` accepts — a spec, a stack, a sequence, or
    toolbox tool names (``"profile & trace"``, ``["profile", "count"]``).
    ``language`` supplies the initial environment for scope analysis
    (defaults to the strict language's primitives).  ``include_specs``
    controls the static monitor-spec pass; ``probe`` additionally runs
    the *dynamic* probe linter of :mod:`repro.monitoring.validate`
    against each spec (executes monitor code — off by default).  ``flow``
    adds the claim-flow & reachability pass (``REP5xx`` — see
    :mod:`repro.analysis.flow`), also reachable via
    ``repro check --flow`` and ``RunConfig(optimize="flow")``.
    """
    if isinstance(program, str):
        if source is None:
            source = program
        from repro.syntax.parser import parse

        program = parse(program)

    monitor_list = _resolve_monitors(monitors)
    diagnostics = []
    if isinstance(program, Expr):
        diagnostics.extend(analyze_scope(program, _global_names(language)))
    diagnostics.extend(analyze_stack(program, monitor_list))
    if include_specs:
        for monitor in monitor_list:
            diagnostics.extend(analyze_spec(monitor))
    if probe:
        for monitor in monitor_list:
            diagnostics.extend(probe_monitor(monitor))
    if flow and hasattr(program, "walk"):
        from repro.analysis.flow import analyze_flow, flow_diagnostics

        diagnostics.extend(flow_diagnostics(analyze_flow(program, monitor_list)))
    diagnostics.sort(key=Diagnostic.sort_key)
    return AnalysisReport(tuple(diagnostics), source)


__all__ = _FLOW_EXPORTS + [
    "AnalysisReport",
    "Diagnostic",
    "LINT_LEVELS",
    "StaticAnalysisError",
    "analyze",
    "analyze_scope",
    "analyze_spec",
    "analyze_stack",
    "check_lint_level",
    "claim_sets",
    "free_vars",
    "probe_monitor",
    "render_json",
    "render_text",
]
