"""Monitoring semantics — a reproduction of Kishon, Hudak & Consel (PLDI 1991).

A formal framework for specifying, implementing and reasoning about
execution monitors (debuggers, profilers, tracers, demons), built on
continuation semantics:

* write a language's standard semantics as a *functional*
  (:mod:`repro.semantics`, :mod:`repro.languages`);
* automatically derive a parameterized monitoring semantics from it
  (:mod:`repro.monitoring`);
* instantiate it with monitor specifications from the toolbox
  (:mod:`repro.monitors`) — soundness is a theorem: monitors cannot
  change program behavior;
* compose monitors with ``&`` and run them through the programming
  environment (:mod:`repro.toolbox`);
* remove the interpretive overhead with partial evaluation
  (:mod:`repro.partial_eval`), producing instrumented programs;
* serve batches of requests behind one
  :class:`~repro.runtime.RunConfig`, with a generated-program cache, in
  process or over a process pool (:mod:`repro.runtime` — ``run_batch``,
  ``ProcessPoolRunner``);
* statically analyze programs and monitor stacks before running them
  (:mod:`repro.analysis` — ``analyze``, ``repro check``, the
  ``RunConfig.lint`` gate).

Quickstart::

    from repro import parse, evaluate, strict
    from repro.monitors import ProfilerMonitor
    from repro.monitoring import run_monitored

    prog = parse(\"\"\"
        letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1)
        in fac 5
    \"\"\")
    result = run_monitored(strict, prog, ProfilerMonitor())
    result.answer      # 120 — always the standard answer
    result.report()    # {'fac': 6} — the monitoring information
"""

from repro._lazy import lazy_exports

# Names resolve on first use (PEP 562): ``from repro import parse`` loads
# the parser, not the process pool, the replay debugger or every language.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "AnalysisReport": "repro.analysis.diagnostics",
        "Diagnostic": "repro.analysis.diagnostics",
        "StaticAnalysisError": "repro.analysis.diagnostics",
        "analyze": "repro.analysis",
        "EvalError": "repro.errors",
        "LexError": "repro.errors",
        "MonitorError": "repro.errors",
        "ParseError": "repro.errors",
        "ReproError": "repro.errors",
        "SpecializationError": "repro.errors",
        "exceptions_language": "repro.languages.exceptions",
        "imperative": "repro.languages.imperative",
        "lazy": "repro.languages.lazy",
        "lazy_data": "repro.languages.lazy",
        "parse_exc": "repro.languages.exceptions",
        "parse_imp": "repro.languages.imp_syntax",
        "strict": "repro.languages.strict",
        "MonitorSpec": "repro.monitoring.spec",
        "compose": "repro.monitoring.compose",
        "run_monitored": "repro.monitoring.derive",
        "assert_sound": "repro.monitoring.soundness",
        "check_soundness": "repro.monitoring.soundness",
        "assert_valid_monitor": "repro.monitoring.validate",
        "validate_monitor": "repro.monitoring.validate",
        "simplify": "repro.partial_eval.postprocess",
        "specialize": "repro.partial_eval.online",
        "specialize_and_simplify": "repro.partial_eval.postprocess",
        "generate_program": "repro.partial_eval.codegen",
        "prelude_session": "repro.prelude",
        "with_prelude": "repro.prelude",
        "BatchRunner": "repro.runtime.batch",
        "CompilationCache": "repro.runtime.cache",
        "ProcessPoolRunner": "repro.runtime.process_pool",
        "RunConfig": "repro.runtime.config",
        "RunRequest": "repro.runtime.batch",
        "RunResult": "repro.runtime.batch",
        "Server": "repro.runtime.serve",
        "run_batch": "repro.runtime.batch",
        "ReplayDebugger": "repro.replay.debugger",
        "ReplaySession": "repro.replay.session",
        "parse": "repro.syntax.parser",
        "pretty": "repro.syntax.pretty",
        "Session": "repro.toolbox.session",
        "evaluate": "repro.toolbox.registry",
        "TraceAnalysis": "repro.tracing.analyze",
        "TraceError": "repro.tracing.schema",
        "TraceFormatError": "repro.tracing.schema",
        "TraceVersionError": "repro.tracing.schema",
        "analyze_many": "repro.tracing.analyze",
        "analyze_trace": "repro.tracing.analyze",
        "read_trace": "repro.tracing.schema",
        "record": "repro.tracing.record",
    },
)

__version__ = "1.0.0"

__all__ += ["__version__"]
