"""Command-line interface: the programming environment at a shell prompt.

::

    python -m repro run prog.lam --tools profile,trace
    python -m repro run -e "letrec f = ... in f 3" --tools profile
    python -m repro trace prog.lam --functions fac,mul
    python -m repro specialize prog.lam --static n=3
    python -m repro emit prog.lam --tools profile     # residual Python
    python -m repro debug prog.lam --break fac --command "print x" --command continue
    python -m repro batch requests.jsonl --workers 4 --engine compiled --stats

Programs are ``L_lambda`` surface syntax (``--language imperative``
switches to the ``L_imp`` grammar).  Every subcommand is a thin shell over
the library API, so anything the CLI does a script can do too.  Each
subcommand imports what it runs, so ``repro run`` never loads the
process pool or the socket daemon.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.errors import LexError, ParseError, ReproError, format_source_context
from repro.languages import LANGUAGE_NAMES


def _read_source(args) -> str:
    if args.expression is not None:
        return args.expression
    if args.program is None:
        raise ReproError("provide a program file or -e EXPRESSION")
    with open(args.program, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_source(source: str, language: str) -> object:
    if language == "imperative":
        from repro.languages.imp_syntax import parse_imp

        return parse_imp(source)
    if language == "exceptions":
        from repro.languages.exceptions import parse_exc

        return parse_exc(source)
    from repro.syntax.parser import parse

    return parse(source)


def _load_program(args) -> object:
    source = _read_source(args)
    try:
        return _parse_source(source, args.language)
    except (LexError, ParseError) as exc:
        context = format_source_context(source, exc.location)
        if context:
            raise ReproError(f"{exc}\n{context}") from None
        raise


def _language(args):
    from repro.languages import by_name

    return by_name(args.language)


def _tools(names: Optional[str]) -> List:
    if not names:
        return []
    from repro.toolbox.registry import make_tool

    return [make_tool(name.strip()) for name in names.split(",") if name.strip()]


def run_config_from_args(args):
    """Build the run's :class:`repro.runtime.RunConfig` from parsed flags.

    The one place CLI flags become run options: every evaluating
    subcommand (run/trace/profile/session/debug/batch) routes through
    here, so a flag means the same thing everywhere.  The caller owns the
    config's ``event_sink`` and must ``_close_sink`` it when done.
    """
    from repro.observability import JsonlSink, RunMetrics
    from repro.runtime import RunConfig

    metrics = RunMetrics() if getattr(args, "metrics", False) else None
    trace_out = getattr(args, "trace_out", None)
    sink = JsonlSink(trace_out, wants_steps=True) if trace_out else None
    interval = _checkpoint_interval(args)
    mode = getattr(args, "mode", "inline")
    record_dir = getattr(args, "record_dir", None)
    if record_dir and mode == "inline":
        # --record-dir alone means "record this run": the flag names where
        # the trace goes, which is only meaningful in record mode.
        mode = "record"
    try:
        return RunConfig(
            engine=getattr(args, "engine", "reference"),
            fault_policy=getattr(args, "fault_policy", "propagate"),
            max_steps=getattr(args, "max_steps", None),
            metrics=metrics,
            event_sink=sink,
            timeout=getattr(args, "timeout", None),
            lint=getattr(args, "lint", "off"),
            mode=mode,
            record_dir=record_dir,
            checkpoint_interval=interval,
            optimize=getattr(args, "optimize", "none"),
        ).validate()
    except ValueError as exc:
        # Validation failures are user input errors, not crashes: surface
        # them the way every other CLI error is surfaced.
        _close_sink(sink)
        raise ReproError(str(exc)) from None


def _checkpoint_interval(args) -> int:
    """Resolve ``--checkpoint-interval``, rejecting non-positive values.

    Validated here — at flag-parsing time, with the flag named — rather
    than letting ``RunConfig.validate()``'s ValueError escape ``main()``
    as a traceback.  ``0`` is an error, not "use the default": silently
    mapping it to 512 would hide the typo.
    """
    interval = getattr(args, "checkpoint_interval", None)
    if interval is None:
        return 512
    if isinstance(interval, bool) or not isinstance(interval, int) or interval < 1:
        raise ReproError(
            f"--checkpoint-interval must be a positive integer, got {interval!r}"
        )
    return interval


def _close_sink(sink) -> None:
    if sink is not None:
        sink.close()


def _print_metrics(metrics) -> None:
    if metrics is not None:
        print("--- metrics ---")
        print(metrics.render())


def _render_answer(answer) -> str:
    from repro.semantics.values import value_to_string

    if isinstance(answer, tuple) and len(answer) == 2 and isinstance(answer[0], dict):
        bindings, output = answer  # L_imp result
        rendered = ", ".join(
            f"{k} = {value_to_string(v)}" for k, v in sorted(bindings.items())
        )
        lines = [f"store: {rendered}"]
        if output:
            lines.append("output: " + " ".join(value_to_string(v) for v in output))
        return "\n".join(lines)
    try:
        return value_to_string(answer)
    except Exception:
        return repr(answer)


def _print_reports(result) -> None:
    for key, report in result.reports().items():
        print(f"--- {key} ---")
        if isinstance(report, str):
            print(report, end="" if report.endswith("\n") else "\n")
        elif key == "faults" and isinstance(report, (list, tuple)):
            for line in report:
                print(line)
        elif hasattr(report, "render"):
            print(report.render())
        else:
            print(report)


# Subcommands -------------------------------------------------------------------


def cmd_run(args) -> int:
    from repro.monitoring.derive import run_monitored

    program = _load_program(args)
    language = _language(args)
    tools = _tools(args.tools)
    config = run_config_from_args(args)
    try:
        if not tools and not config.wants_telemetry() and config.lint == "off":
            answer = language.evaluate(
                program,
                max_steps=config.max_steps,
                engine=config.engine,
                deadline=config.deadline(),
            )
            print(_render_answer(answer))
            return 0
        result = run_monitored(language, program, tools, config=config)
    finally:
        _close_sink(config.event_sink)
    print(_render_answer(result.answer))
    if tools:
        _print_reports(result)
    _print_metrics(config.metrics)
    return 0


def _annotated_run(args, tool_name: str, style: str) -> int:
    from repro.monitoring.derive import run_monitored
    from repro.toolbox.autoannotate import annotate_function_bodies
    from repro.toolbox.registry import make_tool

    program = _load_program(args)
    language = _language(args)
    functions = (
        [name.strip() for name in args.functions.split(",")]
        if args.functions
        else None
    )
    annotated = annotate_function_bodies(
        program, functions, style=style, namespace=tool_name
    )
    monitor = make_tool(tool_name, namespace=tool_name)
    config = run_config_from_args(args)
    try:
        result = run_monitored(language, annotated, monitor, config=config)
    finally:
        _close_sink(config.event_sink)
    print(_render_answer(result.answer))
    _print_reports(result)
    _print_metrics(config.metrics)
    return 0


def cmd_trace(args) -> int:
    return _annotated_run(args, "trace", "header")


def cmd_profile(args) -> int:
    return _annotated_run(args, "profile", "label")


def cmd_specialize(args) -> int:
    from repro.languages.strict import strict
    from repro.partial_eval.online import specialize
    from repro.syntax.parser import parse
    from repro.syntax.pretty import pretty

    program = _load_program(args)
    static = {}
    for item in args.static or []:
        if "=" not in item:
            raise ReproError(f"--static expects name=value, got {item!r}")
        name, _, literal = item.partition("=")
        static[name.strip()] = strict.evaluate(parse(literal))
    result = specialize(program, static, budget=args.budget)
    if args.simplify:
        from repro.partial_eval.postprocess import simplify

        result.residual = simplify(result.residual)
    print(pretty(result.residual))
    if args.stats:
        print(f"-- {result.stats}", file=sys.stderr)
    return 0


def cmd_emit(args) -> int:
    from repro.partial_eval.codegen import generate_program

    program = _load_program(args)
    generated = generate_program(program, _tools(args.tools))
    print(generated.source, end="")
    return 0


def cmd_compile(args) -> int:
    """Specialize a program + monitor stack for the codegen engine.

    The default output is a one-screen summary of the artifact (sites,
    monitors, lines); ``--emit-source`` prints the full residual Python
    source instead, to stdout or ``--output``.
    """
    from repro.languages.base import check_engine_support
    from repro.partial_eval.codegen import generate_program

    language = _language(args)
    check_engine_support("codegen", language.name)
    program = _load_program(args)
    monitors = _tools(args.tools)
    flow = None
    if getattr(args, "optimize", "none") == "flow":
        from repro.analysis.flow import analyze_flow

        flow = analyze_flow(program, monitors)
    generated = generate_program(program, monitors, flow=flow)
    if args.emit_source:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(generated.source)
        else:
            print(generated.source, end="")
        return 0
    lines = generated.source.count("\n")
    print(f"engine: codegen ({language.name} language)")
    print(f"monitors: {len(generated.monitors)}"
          + (f" ({', '.join(m.key for m in generated.monitors)})"
             if generated.monitors else ""))
    print(f"instrumented sites: {generated.site_count}")
    if flow is not None:
        stats = flow.stats()
        print(
            f"flow optimization: {stats['erased_sites']} site(s) erased, "
            f"{stats['dead_monitors']} dead monitor(s) dropped from dispatch"
        )
    print(f"residual source: {lines} lines (use --emit-source to print)")
    return 0


def cmd_session(args) -> int:
    from repro.toolbox.session import Session

    session = Session.load(args.session_file, language=_language(args))
    config = run_config_from_args(args)
    try:
        result = session.evaluate(
            args.eval,
            tools=args.tools,
            functions=(
                [name.strip() for name in args.functions.split(",")]
                if args.functions
                else None
            ),
            config=config,
        )
    finally:
        _close_sink(config.event_sink)
    print(_render_answer(result.answer))
    if result.monitored is not None:
        _print_reports(result.monitored)
    _print_metrics(config.metrics)
    return 0


def cmd_debug(args) -> int:
    from repro.monitors.interactive import ConsoleSource, debug

    program = _load_program(args)
    source = None if args.command else ConsoleSource()
    config = run_config_from_args(args)
    try:
        result = debug(
            program,
            breakpoints=args.breakpoints or None,
            language=_language(args),
            script=args.command or [],
            source=source or (lambda: None),
            config=config,
        )
    finally:
        _close_sink(config.event_sink)
    print(f"=> {_render_answer(result.answer)}")
    if result.trace:
        print(f"session recorded to {result.trace} (see 'repro replay')")
    for fault in result.faults:
        print(f"monitor fault: {fault}", file=sys.stderr)
    _print_metrics(config.metrics)
    return 0


def cmd_replay(args) -> int:
    """Time-travel over a recorded trace: the debugger with a reverse gear."""
    from repro.monitors.interactive import ConsoleSource
    from repro.replay import ReplayDebugger, ReplaySession, default_stack

    program = None
    if args.program:
        with open(args.program, "r", encoding="utf-8") as handle:
            program = handle.read()
    session = ReplaySession(
        args.trace,
        default_stack(capacity=args.capacity),
        program=program,
        fault_policy=args.fault_policy,
        checkpoint_interval=_checkpoint_interval(args),
        allow_truncated=args.allow_truncated,
        use_sidecar=args.sidecar,
    )
    source = None if args.command else ConsoleSource(prompt="(replay) ")
    debugger = ReplayDebugger(
        session,
        breakpoints=args.breakpoints or None,
        script=args.command or [],
        source=source,
        echo=print,
    )
    debugger.run()
    if args.sidecar:
        session.save_checkpoints()
    return 0


def cmd_check(args) -> int:
    """Static analysis only: parse, analyze, render, exit 1 on errors."""
    from repro.analysis import AnalysisReport, Diagnostic, analyze, render_json, render_text

    source = _read_source(args)
    monitors = _tools(args.monitors)
    try:
        program = _parse_source(source, args.language)
    except (LexError, ParseError) as exc:
        # Syntax errors become diagnostics too, so `check --format json`
        # is machine-readable even for unparseable input.
        code = "REP002" if isinstance(exc, LexError) else "REP001"
        message = str(exc)
        if ": " in message:
            message = message.split(": ", 1)[1]
        report = AnalysisReport(
            (
                Diagnostic(
                    code=code,
                    severity="error",
                    message=message,
                    location=exc.location,
                ),
            ),
            source,
        )
    else:
        report = analyze(
            program,
            monitors,
            language=_language(args),
            source=source,
            probe=args.probe and bool(monitors),
            flow=args.flow,
        )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok() else 1


def cmd_batch(args) -> int:
    import json

    from repro.runtime import BatchRunner, CompilationCache, RunRequest

    config = run_config_from_args(args)
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.requests, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    requests = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ReproError(f"{args.requests}:{lineno}: {exc}") from None
        try:
            requests.append(RunRequest.from_dict(record, base=config))
        except (ValueError, ReproError):
            # A bad record (unknown key, missing program, invalid timeout)
            # fails its own slot with a diagnostic ok=False result in the
            # output JSONL; the rest of the batch still runs.
            requests.append(record)

    cache = CompilationCache(args.cache_size, event_sink=config.event_sink)
    runner = BatchRunner(
        workers=args.workers,
        config=config,
        cache=cache,
        event_sink=config.event_sink,
    )
    try:
        results = runner.run(requests)
    finally:
        _close_sink(config.event_sink)

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for result in results:
            record = result.to_dict()
            if result.metrics is not None:
                record["metrics"] = result.metrics.to_dict()
            print(json.dumps(record), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    failed = sum(1 for result in results if not result.ok)
    if args.stats:
        stats = cache.stats()
        print(
            f"batch: {len(results)} requests, {len(results) - failed} ok, "
            f"{failed} failed; cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.evictions} evictions",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_record(args) -> int:
    """Run once at full engine speed, writing the event trace to a file."""
    from repro.tracing import record

    source = _read_source(args)
    program = _load_program(args)
    language = _language(args)
    tools = _tools(args.tools)
    config = run_config_from_args(args)
    sites = (
        [name.strip() for name in args.sites.split(",") if name.strip()]
        if args.sites
        else None
    )
    try:
        result = record(
            language,
            program,
            args.out,
            monitors=tools,
            sites=sites,
            sample_rate=args.sample,
            seed=args.seed,
            values=args.values,
            source=source,
            config=config,
        )
    finally:
        _close_sink(config.event_sink)
    print(_render_answer(result.answer))
    sampled = f", {result.sampled_out} sampled out" if result.sampled_out else ""
    print(
        f"trace: {result.trace} ({result.events} events over "
        f"{result.enabled_sites}/{result.sites} sites{sampled})",
        file=sys.stderr,
    )
    # record() runs with a fresh per-run accumulator (never the shared
    # config one); the filled counters come back on the result.
    _print_metrics(result.metrics)
    return 0


def cmd_analyze(args) -> int:
    """Fold monitor stacks over a recorded trace (post-hoc monitoring)."""
    from repro.tracing import analyze_many, read_trace

    trace = read_trace(args.trace, allow_truncated=args.allow_truncated)
    if args.list_sites:
        for site_id, rendered in enumerate(trace.site_annotations):
            print(f"{site_id}: {{{rendered}}}")
        if not args.monitors:
            return 0
    if not args.monitors:
        raise ReproError(
            "provide at least one --monitors stack to fold (or --list-sites)"
        )
    stacks = [_tools(spec) for spec in args.monitors]
    program = None
    if args.program:
        with open(args.program, "r", encoding="utf-8") as handle:
            program = handle.read()
    results = analyze_many(
        trace,
        stacks,
        workers=args.workers,
        program=program,
        fault_policy=args.fault_policy,
        metrics=True if args.metrics else None,
        allow_truncated=args.allow_truncated,
    )
    for spec_text, result in zip(args.monitors, results):
        if len(results) > 1:
            print(f"=== stack: {spec_text} ===")
        if result.truncated and result.answer is None:
            print("<truncated trace: no recorded answer>")
        else:
            print(_render_answer(result.answer))
        _print_reports(result)
        _print_metrics(result.metrics)
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived JSONL-over-socket daemon on a process pool."""
    import json

    from repro.runtime import RunConfig
    from repro.runtime.serve import Server

    if getattr(args, "metrics", False) or getattr(args, "trace_out", None):
        raise ReproError(
            "serve streams telemetry per worker: use --trace-dir DIR "
            "instead of --metrics/--trace-out"
        )
    config = RunConfig(
        engine=args.engine,
        fault_policy=args.fault_policy,
        max_steps=args.max_steps,
        timeout=args.timeout,
        lint=args.lint,
        record_dir=args.record_dir,
    ).validate()
    prewarm = []
    if args.prewarm:
        with open(args.prewarm, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    prewarm.append(json.loads(line))
                except ValueError as exc:
                    raise ReproError(
                        f"{args.prewarm}:{lineno}: {exc}"
                    ) from None
    server = Server(
        workers=args.workers,
        config=config,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        queue_depth=args.queue_depth,
        trace_dir=args.trace_dir,
        prewarm=prewarm,
    )
    server.start()
    print(
        f"repro serve: listening on {server.address} "
        f"({server.workers} worker processes)",
        file=sys.stderr,
    )
    # SIGTERM (systemd/docker stop) must shut down as cleanly as Ctrl-C:
    # the default handler would kill this process abruptly and orphan the
    # forked workers.
    import signal

    def _sigterm(_signo, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


# Argument parsing ------------------------------------------------------------------


def add_run_flags(parser: argparse.ArgumentParser, *, engine: bool = True) -> None:
    """Declare the shared run-option flags on ``parser``.

    One source of truth for ``--max-steps``, ``--engine``,
    ``--fault-policy``, ``--timeout``, ``--metrics`` and ``--trace-out``:
    every evaluating subcommand calls this, and
    :func:`run_config_from_args` turns the parsed result into the
    :class:`repro.runtime.RunConfig` the library consumes — so the flags
    cannot drift between subcommands.
    """
    parser.add_argument(
        "--max-steps", type=int, default=None, help="evaluation step budget"
    )
    if engine:
        _add_engine_argument(parser)
    _add_fault_policy_argument(parser)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per evaluation (cooperative)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        dest="checkpoint_interval",
        type=int,
        default=None,
        metavar="EVENTS",
        help="replay checkpoint spacing in trace events (default 512; "
        "smaller = faster backward seeks, more checkpoints)",
    )
    parser.add_argument(
        "--lint",
        choices=("off", "warn", "error"),
        default="off",
        help="run the static analyzer before executing: warn prints "
        "diagnostics, error rejects programs with error-severity findings",
    )
    parser.add_argument(
        "--optimize",
        choices=("none", "flow"),
        default="none",
        help="static optimization level: flow runs the claim-flow analysis "
        "and erases monitor hooks at provably-unreachable sites (codegen "
        "engine) — observable behavior is unchanged",
    )
    _add_telemetry_arguments(parser)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    from repro.languages.base import ENGINES, engine_help

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="reference",
        help=engine_help(),
    )


def _add_fault_policy_argument(parser: argparse.ArgumentParser) -> None:
    from repro.monitoring.faults import FAULT_POLICIES

    parser.add_argument(
        "--fault-policy",
        dest="fault_policy",
        choices=FAULT_POLICIES,
        default="propagate",
        help=(
            "what a monitor exception does: propagate aborts the run "
            "(default), quarantine disables the faulting monitor and keeps "
            "the standard answer, log records faults and keeps monitoring"
        ),
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect run telemetry and print a metrics summary after the answer",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        metavar="FILE",
        default=None,
        help="write the telemetry event stream to FILE as JSON lines",
    )


def _add_debugger_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags 'repro debug' and 'repro replay' share: both speak the
    same command grammar, so breakpoints and scripts mean the same thing
    live and post-hoc."""
    parser.add_argument(
        "--break",
        dest="breakpoints",
        action="append",
        metavar="LABEL",
        help="breakpoint label (repeatable; default: every annotated site)",
    )
    parser.add_argument(
        "--command",
        action="append",
        metavar="CMD",
        help="debugger command to run at stops (repeatable); omit for a console",
    )


def _add_program_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", nargs="?", help="program file")
    parser.add_argument("-e", "--expression", help="program text inline")
    parser.add_argument(
        "--language",
        choices=sorted(LANGUAGE_NAMES),
        default="strict",
        help="language module (default: strict)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Monitoring-semantics programming environment"
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    run_parser = subparsers.add_parser("run", help="evaluate a program")
    _add_program_arguments(run_parser)
    run_parser.add_argument(
        "--tools", help="comma-separated toolbox monitors (profile,trace,...)"
    )
    add_run_flags(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    trace_parser = subparsers.add_parser(
        "trace", help="auto-annotate functions and trace calls"
    )
    _add_program_arguments(trace_parser)
    trace_parser.add_argument("--functions", help="comma-separated function names")
    add_run_flags(trace_parser)
    trace_parser.set_defaults(handler=cmd_trace)

    profile_parser = subparsers.add_parser(
        "profile", help="auto-annotate functions and profile calls"
    )
    _add_program_arguments(profile_parser)
    profile_parser.add_argument("--functions", help="comma-separated function names")
    add_run_flags(profile_parser)
    profile_parser.set_defaults(handler=cmd_profile)

    spec_parser = subparsers.add_parser(
        "specialize", help="partially evaluate with respect to static inputs"
    )
    _add_program_arguments(spec_parser)
    spec_parser.add_argument(
        "--static",
        action="append",
        metavar="NAME=VALUE",
        help="static input binding (repeatable)",
    )
    spec_parser.add_argument("--budget", type=int, default=200_000)
    spec_parser.add_argument("--stats", action="store_true")
    spec_parser.add_argument(
        "--simplify", action="store_true", help="post-process the residual program"
    )
    spec_parser.set_defaults(handler=cmd_specialize)

    emit_parser = subparsers.add_parser(
        "emit", help="emit the residual instrumented program as Python"
    )
    _add_program_arguments(emit_parser)
    emit_parser.add_argument("--tools", help="comma-separated toolbox monitors")
    emit_parser.set_defaults(handler=cmd_emit)

    compile_parser = subparsers.add_parser(
        "compile",
        help="specialize a program + monitor stack to codegen-engine Python",
    )
    _add_program_arguments(compile_parser)
    compile_parser.add_argument("--tools", help="comma-separated toolbox monitors")
    compile_parser.add_argument(
        "--emit-source",
        dest="emit_source",
        action="store_true",
        help="print the full residual Python source instead of the summary",
    )
    compile_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write --emit-source output to FILE instead of stdout",
    )
    compile_parser.add_argument(
        "--optimize",
        choices=("none", "flow"),
        default="none",
        help="'flow' erases hooks at statically-unreachable sites and "
        "drops monitors the claim-flow analysis proves can never fire",
    )
    compile_parser.set_defaults(handler=cmd_compile)

    session_parser = subparsers.add_parser(
        "session", help="evaluate against a saved session file"
    )
    session_parser.add_argument("session_file", help="file written by Session.save")
    session_parser.add_argument("--eval", required=True, help="expression to evaluate")
    session_parser.add_argument("--tools", help="toolbox monitors (profile & trace)")
    session_parser.add_argument("--functions", help="restrict auto-annotation")
    session_parser.add_argument(
        "--language", choices=sorted(LANGUAGE_NAMES), default="strict"
    )
    add_run_flags(session_parser)
    session_parser.set_defaults(handler=cmd_session)

    check_parser = subparsers.add_parser(
        "check", help="statically analyze a program (no execution)"
    )
    _add_program_arguments(check_parser)
    check_parser.add_argument(
        "--monitors",
        "--tools",
        dest="monitors",
        help="comma-separated toolbox monitors the program will run under "
        "(enables the annotation/stack and monitor-spec passes)",
    )
    check_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic rendering (default: text with caret underlines)",
    )
    check_parser.add_argument(
        "--no-probe",
        dest="probe",
        action="store_false",
        default=True,
        help="skip the dynamic probe pass over the monitor specs",
    )
    check_parser.add_argument(
        "--flow",
        action="store_true",
        default=False,
        help="run the claim-flow & reachability pass (REP5xx): unreachable "
        "annotation sites, monitors no reachable site can trigger, and "
        "sites reachable only through quarantinable paths",
    )
    check_parser.set_defaults(handler=cmd_check)

    batch_parser = subparsers.add_parser(
        "batch", help="run many requests concurrently from a JSONL file"
    )
    batch_parser.add_argument(
        "requests",
        help="JSONL file of requests ('-' for stdin); each line is an object "
        "with 'program' plus optional tools/language/engine/fault_policy/"
        "max_steps/timeout/lint/tag",
    )
    batch_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads (default 4; 1 = sequential)",
    )
    batch_parser.add_argument(
        "--cache-size",
        dest="cache_size",
        type=int,
        default=128,
        help="compiled-program cache capacity (LRU entries)",
    )
    batch_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write result JSONL to FILE instead of stdout",
    )
    batch_parser.add_argument(
        "--stats",
        action="store_true",
        help="print batch and cache statistics to stderr",
    )
    batch_parser.add_argument(
        "--mode",
        choices=("inline", "record"),
        default="inline",
        help="default execution mode for requests: inline runs monitors "
        "live, record writes an event trace per request (see --record-dir)",
    )
    batch_parser.add_argument(
        "--record-dir",
        dest="record_dir",
        metavar="DIR",
        default=None,
        help="directory record-mode requests write their traces into",
    )
    add_run_flags(batch_parser)
    batch_parser.set_defaults(handler=cmd_batch)

    record_parser = subparsers.add_parser(
        "record",
        help="run a program once, writing a minimal event trace for "
        "post-hoc monitoring (see 'repro analyze')",
    )
    _add_program_arguments(record_parser)
    record_parser.add_argument(
        "-o",
        "--out",
        required=True,
        metavar="FILE",
        help="trace output path (JSON lines)",
    )
    record_parser.add_argument(
        "--tools",
        help="record only the sites these toolbox monitors claim "
        "(default: every annotated site)",
    )
    record_parser.add_argument(
        "--sites",
        metavar="NAMES",
        default=None,
        help="comma-separated site filter: annotation names, renderings, "
        "or site ids",
    )
    record_parser.add_argument(
        "--sample",
        type=float,
        default=None,
        metavar="RATE",
        help="deterministic activation sampling rate in [0, 1] "
        "(default 1.0 = record everything)",
    )
    record_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sampling seed (same seed + program => byte-identical trace)",
    )
    record_parser.add_argument(
        "--values",
        choices=("full", "fingerprint"),
        default="full",
        help="record full values (default) or short content fingerprints",
    )
    add_run_flags(record_parser)
    record_parser.set_defaults(handler=cmd_record)

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="fold monitor stacks over a recorded trace (post-hoc monitoring)",
    )
    analyze_parser.add_argument("trace", help="trace file written by 'repro record'")
    analyze_parser.add_argument(
        "--monitors",
        "--tools",
        dest="monitors",
        action="append",
        metavar="STACK",
        help="a comma-separated monitor stack to fold (repeat the flag to "
        "fold several independent stacks concurrently)",
    )
    analyze_parser.add_argument(
        "--program",
        metavar="FILE",
        default=None,
        help="the recorded program's source (required when the trace does "
        "not embed it)",
    )
    analyze_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread-pool width for folding multiple stacks",
    )
    analyze_parser.add_argument(
        "--allow-truncated",
        dest="allow_truncated",
        action="store_true",
        help="analyze the readable prefix of a trace whose recorder "
        "crashed mid-write",
    )
    analyze_parser.add_argument(
        "--list-sites",
        dest="list_sites",
        action="store_true",
        help="print the trace's annotated-site table",
    )
    _add_fault_policy_argument(analyze_parser)
    analyze_parser.add_argument(
        "--metrics",
        action="store_true",
        help="reconstruct and print RunMetrics for each folded stack",
    )
    analyze_parser.set_defaults(handler=cmd_analyze)

    serve_parser = subparsers.add_parser(
        "serve",
        help="long-lived JSONL-over-socket serving daemon over a process pool",
    )
    transport = serve_parser.add_mutually_exclusive_group(required=True)
    transport.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="listen on a unix-domain socket at PATH",
    )
    transport.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen on a TCP port (0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1; only with --port)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default 4); requests shard by program fingerprint",
    )
    serve_parser.add_argument(
        "--cache-size",
        dest="cache_size",
        type=int,
        default=128,
        help="per-worker compiled-program cache capacity (LRU entries)",
    )
    serve_parser.add_argument(
        "--queue-depth",
        dest="queue_depth",
        type=int,
        default=32,
        help="per-worker request queue bound; beyond it submissions are "
        "rejected with an explicit Overloaded record",
    )
    serve_parser.add_argument(
        "--trace-dir",
        dest="trace_dir",
        metavar="DIR",
        default=None,
        help="stream worker-tagged telemetry to DIR/worker-N.jsonl (one "
        "JSONL sink per worker, flushed per event)",
    )
    serve_parser.add_argument(
        "--record-dir",
        dest="record_dir",
        metavar="DIR",
        default=None,
        help="directory record-mode requests ({\"mode\": \"record\"}) write "
        "their event traces into; the response carries the trace path",
    )
    serve_parser.add_argument(
        "--prewarm",
        metavar="FILE",
        default=None,
        help="JSONL requests compiled into the caches at startup, each on "
        "the worker it routes to",
    )
    add_run_flags(serve_parser)
    serve_parser.set_defaults(handler=cmd_serve)

    debug_parser = subparsers.add_parser("debug", help="scriptable/interactive debugger")
    _add_program_arguments(debug_parser)
    _add_debugger_arguments(debug_parser)
    debug_parser.add_argument(
        "--record-dir",
        dest="record_dir",
        metavar="DIR",
        default=None,
        help="record the session as a replayable trace into DIR "
        "(every command you type becomes part of the trace; "
        "step through it later with 'repro replay')",
    )
    add_run_flags(debug_parser)
    debug_parser.set_defaults(handler=cmd_debug)

    replay_parser = subparsers.add_parser(
        "replay",
        help="time-travel debugger over a recorded trace "
        "(back/goto/rewind plus omniscient queries)",
    )
    replay_parser.add_argument(
        "trace", help="trace file written by 'repro record' or 'repro debug'"
    )
    replay_parser.add_argument(
        "--program",
        metavar="FILE",
        default=None,
        help="the recorded program's source (required when the trace does "
        "not embed it; enables the 'source' command)",
    )
    _add_debugger_arguments(replay_parser)
    replay_parser.add_argument(
        "--capacity",
        type=int,
        default=4096,
        metavar="EVENTS",
        help="history ring size backing events/when-was/value-at "
        "(default 4096; overflow is reported as REP401)",
    )
    replay_parser.add_argument(
        "--allow-truncated",
        dest="allow_truncated",
        action="store_true",
        help="replay the readable prefix of a trace whose recorder "
        "crashed mid-write",
    )
    replay_parser.add_argument(
        "--sidecar",
        action="store_true",
        help="load/save a checkpoint sidecar next to the trace "
        "(TRACE.ckpt) so later sessions seek without refolding",
    )
    add_run_flags(replay_parser, engine=False)
    replay_parser.set_defaults(handler=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
