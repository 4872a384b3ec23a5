"""Command-line interface: the programming environment at a shell prompt.

::

    python -m repro run prog.lam --tools profile,trace
    python -m repro run -e "letrec f = ... in f 3" --tools profile
    python -m repro trace prog.lam --functions fac,mul
    python -m repro specialize prog.lam --static n=3
    python -m repro debug prog.lam --break fac --command "print x" --command continue
    python -m repro batch requests.jsonl --engine codegen --stats

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
from repro.languages import LANGUAGE_NAMES, parse_source
from repro.runtime.config import OPTIONS, RunConfig


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_source(args) -> str:
    if args.expression is not None:
        return args.expression
    if args.program is None:
        raise ReproError("provide a program file or -e EXPRESSION")
    return _read_file(args.program)


def _load_program(args) -> object:
    source = _read_source(args)
    try:
        return parse_source(args.language, source)
    except (LexError, ParseError) as exc:
        context = format_source_context(source, exc.location)
        if context:
            raise ReproError(f"{exc}\n{context}") from None
        raise


def _language(args):
    from repro.languages import by_name

    return by_name(args.language)


def _names(text: Optional[str]) -> Optional[List[str]]:
    """A comma-separated flag's names, or ``None`` when it was not given."""
    if not text:
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def _tools(names: Optional[str]) -> List:
    from repro.toolbox.registry import make_tool

    return [make_tool(name) for name in _names(names) or ()]


def _read_jsonl(path: str) -> List[object]:
    """The JSON value of every line of ``path`` ('-' for stdin), skipping
    blank and ``#`` lines; a bad line is an error naming its number."""
    import json

    text = sys.stdin.read() if path == "-" else _read_file(path)
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise ReproError(f"{path}:{lineno}: {exc}") from None
    return records


def run_config_from_args(args):
    """Build the run's :class:`repro.runtime.RunConfig` from parsed flags.

    The dataclass supplies every default (a flag left out sets nothing),
    and each value is checked under its flag's name, the name the user typed.
    """
    from repro.observability import RunMetrics

    values = {name: getattr(args, name) for name in OPTIONS if hasattr(args, name)}
    try:
        for name, value in values.items():
            OPTIONS[name].check_value(value, OPTIONS[name].flag)
    except ValueError as exc:
        # Validation failures are user input errors, not crashes: surface
        # them the way every other CLI error is surfaced.
        raise ReproError(str(exc)) from None
    if values.pop("metrics", False):
        values["metrics"] = RunMetrics()
    return RunConfig(**values)


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
    if not tools and config.metrics is None and config.lint == "off":
        answer = language.evaluate(
            program,
            max_steps=config.max_steps,
            engine=config.engine,
            deadline=config.deadline(),
        )
        print(_render_answer(answer))
        return 0
    result = run_monitored(language, program, tools, config=config)
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
    functions = _names(args.functions)
    annotated = annotate_function_bodies(
        program, functions, style=style, namespace=tool_name
    )
    monitor = make_tool(tool_name, namespace=tool_name)
    config = run_config_from_args(args)
    result = run_monitored(language, annotated, monitor, config=config)
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
    if run_config_from_args(args).optimize == "flow":
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
    result = session.evaluate(
        args.eval,
        tools=args.tools,
        functions=_names(args.functions),
        config=config,
    )
    print(_render_answer(result.answer))
    if result.monitored is not None:
        _print_reports(result.monitored)
    _print_metrics(config.metrics)
    return 0


def cmd_debug(args) -> int:
    from dataclasses import replace

    from repro.monitors.interactive import ConsoleSource, debug

    program = _load_program(args)
    source = None if args.command else ConsoleSource()
    config = run_config_from_args(args)
    if config.record_dir:
        # --record-dir on debug records the session it runs.
        config = replace(config, mode="record")
    result = debug(
        program,
        breakpoints=args.breakpoints or None,
        language=_language(args),
        script=args.command or [],
        source=source or (lambda: None),
        config=config,
    )
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

    config = run_config_from_args(args)
    session = ReplaySession(
        args.trace,
        default_stack(capacity=args.capacity),
        program=_read_file(args.program) if args.program else None,
        fault_policy=config.fault_policy,
        checkpoint_interval=config.checkpoint_interval,
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
        program = parse_source(args.language, source)
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

    from repro.observability import JsonlSink
    from repro.runtime import BatchRunner, CompilationCache

    config = run_config_from_args(args)
    # Records are admitted by the runner: a bad one (unknown key, missing
    # program, invalid option) fails its own slot with a diagnostic
    # ok=False result in the output JSONL; the rest of the batch still runs.
    requests = _read_jsonl(args.requests)

    sink = JsonlSink(args.trace_out) if args.trace_out else None
    cache = CompilationCache(args.cache_size, event_sink=sink)
    runner = BatchRunner(config=config, cache=cache, event_sink=sink)
    try:
        results = runner.run(requests)
    finally:
        if sink is not None:
            sink.close()

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
    sites = _names(args.sites)
    result = record(
        language,
        program,
        args.out,
        monitors=tools,
        sites=sites,
        values=args.values,
        source=source,
        config=config,
    )
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

    config = run_config_from_args(args)
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
    results = analyze_many(
        trace,
        stacks,
        program=_read_file(args.program) if args.program else None,
        fault_policy=config.fault_policy,
        metrics=True if config.metrics is not None else None,
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
    from repro.runtime.serve import Server

    config = run_config_from_args(args)
    prewarm = _read_jsonl(args.prewarm) if args.prewarm else []
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
    # SIGTERM (systemd/docker stop) must shut down as cleanly as Ctrl-C:
    # the default handler would kill this process abruptly and orphan the
    # forked workers.  Install it before start() forks them, and start
    # inside the try, so a SIGTERM during pre-warm still reaches close().
    import signal

    stopping = []

    def _sigterm(signo, _frame):
        # Python ignores an exception raised inside an at-fork hook, and
        # start() forks the workers, so the request is recorded as well.
        stopping.append(signo)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.start()
        if stopping:
            raise KeyboardInterrupt
        print(
            f"repro serve: listening on {server.address} "
            f"({server.workers} worker processes)",
            file=sys.stderr,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


# Argument parsing ------------------------------------------------------------------


def add_run_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Declare, in table order, the flag of every row of
    :data:`repro.runtime.config.OPTIONS` whose ``commands`` name ``command``;
    each stores under its ``RunConfig`` field's name, and only when given.
    """
    for option in OPTIONS.values():
        if command not in option.commands:
            continue
        if option.type is bool:
            kind = {"action": "store_true"}
        else:
            choices = option.choices
            kind = {
                "choices": choices() if callable(choices) else choices,
                "type": option.type,
                "metavar": option.metavar,
            }
        parser.add_argument(
            option.flag,
            dest=option.name,
            default=argparse.SUPPRESS,
            help=option.help() if callable(option.help) else option.help,
            **kind,
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

    def command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        subparser = subparsers.add_parser(name, **kwargs)
        subparser.set_defaults(handler=handler)
        return subparser

    run_parser = command("run", cmd_run, help="evaluate a program")
    _add_program_arguments(run_parser)
    run_parser.add_argument(
        "--tools", help="comma-separated toolbox monitors (profile,trace,...)"
    )

    for name, handler in (("trace", cmd_trace), ("profile", cmd_profile)):
        annotated = command(
            name, handler, help=f"auto-annotate functions and {name} calls"
        )
        _add_program_arguments(annotated)
        annotated.add_argument("--functions", help="comma-separated function names")

    spec_parser = command(
        "specialize", cmd_specialize,
        help="partially evaluate with respect to static inputs",
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

    compile_parser = command(
        "compile", cmd_compile,
        help="specialize a program + monitor stack to codegen-engine Python",
    )
    _add_program_arguments(compile_parser)
    compile_parser.add_argument("--tools", help="comma-separated toolbox monitors")
    compile_parser.add_argument(
        "--emit-source",
        action="store_true",
        help="print the full residual Python source instead of the summary",
    )
    compile_parser.add_argument(
        "--output",
        metavar="FILE",
        help="write --emit-source output to FILE instead of stdout",
    )

    session_parser = command(
        "session", cmd_session, help="evaluate against a saved session file"
    )
    session_parser.add_argument("session_file", help="file written by Session.save")
    session_parser.add_argument("--eval", required=True, help="expression to evaluate")
    session_parser.add_argument("--tools", help="toolbox monitors (profile & trace)")
    session_parser.add_argument("--functions", help="restrict auto-annotation")
    session_parser.add_argument(
        "--language", choices=sorted(LANGUAGE_NAMES), default="strict"
    )

    check_parser = command(
        "check", cmd_check, help="statically analyze a program (no execution)"
    )
    _add_program_arguments(check_parser)
    check_parser.add_argument(
        "--monitors",
        "--tools",
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
        help="skip the dynamic probe pass over the monitor specs",
    )
    check_parser.add_argument(
        "--flow",
        action="store_true",
        help="run the claim-flow & reachability pass (REP5xx): unreachable "
        "annotation sites, monitors no reachable site can trigger, and "
        "sites reachable only through quarantinable paths",
    )

    batch_parser = command(
        "batch", cmd_batch, help="run many requests in order from a JSONL file"
    )
    batch_parser.add_argument(
        "requests",
        help="JSONL file of requests ('-' for stdin); each line is an object "
        "with 'program' plus optional tools/language/tag and the run options "
        + "/".join(name for name, row in OPTIONS.items() if "batch" in row.records),
    )
    batch_parser.add_argument(
        "--cache-size",
        type=int,
        default=128,
        help="generated-program cache capacity (LRU entries)",
    )
    batch_parser.add_argument(
        "--output",
        metavar="FILE",
        help="write result JSONL to FILE instead of stdout",
    )
    batch_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the cache and batch lifecycle events to FILE as JSON lines",
    )
    batch_parser.add_argument(
        "--stats",
        action="store_true",
        help="print batch and cache statistics to stderr",
    )

    record_parser = command(
        "record", cmd_record,
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
        help="comma-separated site filter: annotation names, renderings, "
        "or site ids",
    )
    record_parser.add_argument(
        "--values",
        choices=("full", "fingerprint"),
        default="full",
        help="record full values (default) or short content fingerprints",
    )

    analyze_parser = command(
        "analyze", cmd_analyze,
        help="fold monitor stacks over a recorded trace (post-hoc monitoring)",
    )
    analyze_parser.add_argument("trace", help="trace file written by 'repro record'")
    analyze_parser.add_argument(
        "--monitors",
        "--tools",
        action="append",
        metavar="STACK",
        help="a comma-separated monitor stack to fold (repeat the flag to "
        "fold several independent stacks over the one trace)",
    )
    analyze_parser.add_argument(
        "--program",
        metavar="FILE",
        help="the recorded program's source (required when the trace does "
        "not embed it)",
    )
    analyze_parser.add_argument(
        "--allow-truncated",
        action="store_true",
        help="analyze the readable prefix of a trace whose recorder "
        "crashed mid-write",
    )
    analyze_parser.add_argument(
        "--list-sites",
        action="store_true",
        help="print the trace's annotated-site table",
    )

    serve_parser = command(
        "serve", cmd_serve,
        help="long-lived JSONL-over-socket serving daemon over a process pool",
    )
    transport = serve_parser.add_mutually_exclusive_group(required=True)
    transport.add_argument(
        "--socket",
        metavar="PATH",
        help="listen on a unix-domain socket at PATH",
    )
    transport.add_argument(
        "--port",
        type=int,
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
        help="worker processes (default 4); requests shard by program fingerprint",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
        default=128,
        help="per-worker generated-program cache capacity (LRU entries)",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="per-worker request queue bound; beyond it submissions are "
        "rejected with an explicit Overloaded record",
    )
    serve_parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="stream worker-tagged telemetry to DIR/worker-N.jsonl (one "
        "JSONL sink per worker, flushed per event)",
    )
    serve_parser.add_argument(
        "--prewarm",
        metavar="FILE",
        help="JSONL requests compiled into the caches at startup, each on "
        "the worker it routes to",
    )

    debug_parser = command("debug", cmd_debug, help="scriptable/interactive debugger")
    _add_program_arguments(debug_parser)
    _add_debugger_arguments(debug_parser)

    replay_parser = command(
        "replay", cmd_replay,
        help="time-travel debugger over a recorded trace "
        "(back/goto/rewind plus omniscient queries)",
    )
    replay_parser.add_argument(
        "trace", help="trace file written by 'repro record' or 'repro debug'"
    )
    replay_parser.add_argument(
        "--program",
        metavar="FILE",
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

    # Last, so each subcommand lists its own flags before the run options.
    for name, subparser in subparsers.choices.items():
        add_run_flags(subparser, name)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
