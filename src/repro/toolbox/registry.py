"""The toolbox registry and the ``evaluate`` entry point.

"Currently the environment has a toolbox of predefined monitor
specifications which includes: an interactive debugger à la dbx, a
stepper, a tracer, a profiler, a collecting monitor and other specific
monitors" (Section 9.2).  :data:`TOOLBOX` is that toolbox; tools are
requested by name (each constructed in its own namespace so any
combination composes with disjoint annotation syntaxes) or passed as
ready-made :class:`~repro.monitoring.spec.MonitorSpec` objects.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.errors import MonitorError
from repro.languages import LANGUAGE_NAMES, by_name
from repro.languages.base import BaseLanguage
from repro.languages.strict import strict
from repro.monitoring.compose import MonitorStack, flatten_monitors
from repro.monitoring.derive import MonitoredResult, run_monitored
from repro.monitoring.spec import MonitorSpec
from repro.observability.metrics import RunMetrics
from repro.runtime.config import UNSET
from repro.syntax.ast import Expr
from repro.syntax.parser import parse
from repro.toolbox.compose_op import Toolchain


def _factory(module: str, cls: str) -> Callable[..., MonitorSpec]:
    """A tool factory that imports its monitor's module on first call."""

    def make(namespace=None) -> MonitorSpec:
        return getattr(importlib.import_module(module), cls)(namespace=namespace)

    return make


#: Factories for the predefined tools.  Each takes a ``namespace`` so that
#: several tools can be composed safely.
TOOLBOX: Dict[str, Callable[..., MonitorSpec]] = {
    "profile": _factory("repro.monitors.profiler", "ProfilerMonitor"),
    "trace": _factory("repro.monitors.tracer", "TracerMonitor"),
    "collect": _factory("repro.monitors.collecting", "CollectingMonitor"),
    "demon": _factory("repro.monitors.demon", "UnsortedListDemon"),
    "step": _factory("repro.monitors.stepper", "StepperMonitor"),
    "coverage": _factory("repro.monitors.coverage", "CoverageMonitor"),
    "count": _factory("repro.monitors.counters", "LabelCounterMonitor"),
    "callgraph": _factory("repro.monitors.callgraph", "CallGraphMonitor"),
    "history": _factory("repro.monitors.history", "HistoryMonitor"),
    "stats": _factory("repro.monitors.statistics", "StatisticsMonitor"),
}


def make_tool(name: str, *, namespace: Optional[str] = None) -> MonitorSpec:
    """Instantiate a toolbox monitor by name."""
    try:
        factory = TOOLBOX[name]
    except KeyError:
        known = ", ".join(sorted(TOOLBOX))
        raise MonitorError(f"unknown tool {name!r}; toolbox has: {known}") from None
    return factory(namespace=namespace)


ToolsLike = Union[
    str, MonitorSpec, MonitorStack, Toolchain, Sequence[Union[str, MonitorSpec]]
]


def _resolve_tools(tools: ToolsLike) -> Tuple[Tuple[MonitorSpec, ...], Optional[BaseLanguage]]:
    if isinstance(tools, Toolchain):
        return tools.monitors, tools.language
    if isinstance(tools, str):
        names = [part.strip() for part in tools.split("&") if part.strip()]
        language: Optional[BaseLanguage] = None
        monitors = []
        for name in names:
            if name in LANGUAGE_NAMES:
                language = by_name(name)
            else:
                monitors.append(make_tool(name))
        return tuple(monitors), language
    if isinstance(tools, (MonitorSpec, MonitorStack)):
        return tuple(flatten_monitors(tools)), None
    monitors = []
    language = None
    for item in tools:
        if isinstance(item, BaseLanguage):
            language = item
        elif isinstance(item, str):
            monitors.append(make_tool(item))
        else:
            monitors.extend(flatten_monitors(item))
    return tuple(monitors), language


@dataclass
class EvaluationResult:
    """What ``evaluate`` hands back: the answer plus every tool's report.

    ``metrics`` is the run's telemetry counters when requested (the
    ``metrics=``/``event_sink=`` keywords of :func:`evaluate`), else
    ``None``.  ``diagnostics`` carries the static analyzer's findings
    when the run was configured with ``lint="warn"``.
    """

    answer: object
    monitored: Optional[MonitoredResult]
    metrics: Optional["RunMetrics"] = None
    diagnostics: Tuple = ()
    #: Path of the event trace a ``mode="record"`` run wrote (else None).
    trace: Optional[str] = None

    @property
    def reports(self) -> Dict[str, object]:
        if self.monitored is None:
            return {}
        return self.monitored.reports()

    def report(self, key: Optional[str] = None):
        if self.monitored is None:
            raise MonitorError("no monitors were attached to this evaluation")
        return self.monitored.report(key)


def evaluate(
    tools: ToolsLike,
    program: Union[str, Expr],
    *,
    language: Optional[BaseLanguage] = None,
    max_steps=UNSET,
    engine=UNSET,
    fault_policy=UNSET,
    metrics=UNSET,
    event_sink=UNSET,
    timeout=UNSET,
    lint=UNSET,
    config=None,
    cache=None,
) -> EvaluationResult:
    """The Section 9.2 entry point: ``evaluate(profile & trace & strict, prog)``.

    ``tools`` may be a toolchain built with ``&``, a monitor stack, a
    single spec, a list mixing specs and tool names, or a string such as
    ``"profile & trace & strict"``.  ``program`` may be surface syntax or
    an already-parsed expression.  ``engine`` selects the execution engine
    (``"reference"``, ``"compiled"`` or ``"codegen"``) for both the plain
    and the monitored run.  ``fault_policy`` selects how monitor failures are
    handled (see :func:`repro.monitoring.derive.run_monitored`).

    ``metrics``/``event_sink`` request run telemetry
    (:mod:`repro.observability`); they work with or without tools
    attached — an unmonitored evaluation with telemetry runs through the
    monitoring pipeline with an empty stack, which denotes the standard
    semantics (Definition 4.2's fall-through everywhere).

    ``timeout`` bounds the run's wall-clock seconds; ``config`` (a
    :class:`repro.runtime.RunConfig`) bundles every option above into one
    reusable value and is the supported spelling — the loose per-option
    keywords are **deprecated** and emit a ``DeprecationWarning``
    (conflicting explicit keywords raise ``TypeError``); ``cache`` (a
    :class:`repro.runtime.CompilationCache`) memoizes compilation for
    ``engine="compiled"`` and ``engine="codegen"``.

    ``lint`` gates the run on the static analyzer (:mod:`repro.analysis`):
    ``"warn"`` attaches findings as ``result.diagnostics``, ``"error"``
    raises :class:`repro.analysis.StaticAnalysisError` before executing a
    program with error-severity findings.
    """
    from repro.runtime.config import RunConfig

    cfg = RunConfig.from_kwargs(
        config,
        caller="evaluate",
        engine=engine,
        fault_policy=fault_policy,
        max_steps=max_steps,
        metrics=metrics,
        event_sink=event_sink,
        timeout=timeout,
        lint=lint,
    )
    monitors, chain_language = _resolve_tools(tools)
    run_language = language or chain_language or strict
    expr = parse(program) if isinstance(program, str) else program

    if not monitors and not cfg.wants_telemetry() and cfg.mode == "inline":
        # This fast path bypasses run_monitored, so the lint gate runs here.
        # (Record mode always routes through run_monitored — the recorder
        # must observe the run even with no tools attached.)
        diagnostics = _lint_gate(cfg, expr, monitors, run_language)
        if cache is not None and cfg.engine in ("compiled", "codegen"):
            # Tool-less compiled/codegen runs still deserve the compilation
            # cache: the empty monitor stack denotes the standard semantics.
            from dataclasses import replace

            result = run_monitored(
                run_language,
                expr,
                [],
                config=replace(cfg, lint="off"),  # already linted above
                cache=cache,
            )
            return EvaluationResult(
                answer=result.answer, monitored=None, diagnostics=diagnostics
            )
        answer = run_language.evaluate(
            expr,
            answers=cfg.answers,
            max_steps=cfg.max_steps,
            engine=cfg.engine,
            deadline=cfg.deadline(),
        )
        return EvaluationResult(
            answer=answer, monitored=None, diagnostics=diagnostics
        )

    result = run_monitored(
        run_language,
        expr,
        list(monitors),
        config=cfg,
        cache=cache,
    )
    return EvaluationResult(
        answer=result.answer,
        monitored=result if monitors else None,
        metrics=result.metrics,
        diagnostics=result.diagnostics,
        trace=result.trace,
    )


def _lint_gate(cfg, expr, monitors, run_language) -> Tuple:
    """Run the analyzer per ``cfg.lint`` (mirrors ``run_monitored``'s gate)."""
    if cfg.lint == "off":
        return ()
    import sys

    from repro.analysis import StaticAnalysisError, analyze

    report = analyze(expr, list(monitors), language=run_language)
    if cfg.lint == "error" and not report.ok():
        raise StaticAnalysisError(report)
    if report.diagnostics:
        print(report.render(), file=sys.stderr)
    return report.diagnostics
