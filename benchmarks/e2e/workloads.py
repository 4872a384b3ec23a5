"""The client side of the four workloads; runs inside the child process.

Each workload drives the system through its public API only.  A
workload is set up once (everything a user pays before the first
request, plus one untimed warm-up), then measured for a number of
seconds, either plain or traced.  A traced phase makes the same calls,
split into one span per layer (see :mod:`benchmarks.e2e.spans`); it is
never the source of an end-to-end number.

A measured phase is a sequence of rounds.  A round is a fixed number of
requests (``round_size``) whose mix is the same in every round: the
seeded inputs are laid out in blocks that a round holds a whole number
of.  Closed loops run whole rounds until the time is up; the open loop
sends as many rounds as fit its rate.  The end-to-end numbers are
medians over rounds (see :mod:`benchmarks.e2e.harness`).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter, perf_counter_ns, sleep
from typing import Dict, Iterator, List, Optional

from repro import (
    BatchRunner,
    CompilationCache,
    ReplaySession,
    RunConfig,
    RunRequest,
    RunResult,
    analyze,
    analyze_trace,
    parse,
    read_trace,
    record,
    run_monitored,
    strict,
)
from repro.monitoring.derive import check_disjoint
from repro.observability.metrics import RunMetrics

from benchmarks.e2e import corpus
from benchmarks.e2e.catalog import SERVE_RATE
from benchmarks.e2e.spans import Spans


class Phase:
    """What one measured phase observed."""

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.completed = 0
        #: One entry per finished round: its latency samples, the requests
        #: it completed, and the seconds the system was busy with them.
        self.rounds: List[Dict[str, float]] = []
        self._round_busy_s = 0.0
        #: oneshot: ``[request index, outcome digest]`` per request, for the
        #: parent's oracle pass.
        self.outputs: List[list] = []
        #: Per-request side measurements of the traced phase, by request id.
        self.extra: Dict[str, Dict[int, float]] = {}
        #: Counters the workload reads from the system (cache, serve stats).
        self.counters: Dict[str, float] = {}

    def sample(self, start: float, end: float) -> None:
        """One request's latency, ``start`` to ``end`` in ``perf_counter`` s."""
        self.latencies_ms.append((end - start) * 1e3)
        self._round_busy_s += end - start

    def end_round(self, busy_s: Optional[float] = None) -> None:
        """Close the current round.  A closed loop is busy for the sum of
        its latencies; the open loop passes the span from the round's
        first scheduled send to its last reply."""
        self.rounds.append(
            {
                "samples": len(self.latencies_ms) - sum(r["samples"] for r in self.rounds),
                "completed": self.completed - sum(r["completed"] for r in self.rounds),
                "busy_s": self._round_busy_s if busy_s is None else busy_s,
            }
        )
        self._round_busy_s = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def note(self, key: str, req: int, value: float) -> None:
        self.extra.setdefault(key, {})[req] = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "latencies_ms": self.latencies_ms,
            "rounds": self.rounds,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "completed": self.completed,
            "outputs": self.outputs,
        }


@contextmanager
def compile_probe(spans: Spans, counters: Dict[str, float]) -> Iterator[None]:
    """Span and count every codegen compile while a traced phase runs.

    The compile happens inside public calls (``get_or_compile`` on a
    miss, ``run_monitored`` for a metrics-on run, ``record``), which look
    ``generate_program`` up on its module at call time; wrapping that one
    public function attributes compile time to ``partial_eval.codegen``
    instead of to the enclosing layer.
    """
    from repro.partial_eval import codegen

    original = getattr(codegen, "generate_program", None)
    if original is None:
        yield
        return

    def traced_generate_program(*args, **kwargs):
        counters["compiles"] = counters.get("compiles", 0) + 1
        with spans.span("partial_eval.codegen"):
            return original(*args, **kwargs)

    codegen.generate_program = traced_generate_program
    try:
        yield
    finally:
        codegen.generate_program = original


def _span(spans: Optional[Spans], name: str, req: Optional[int] = None):
    return spans.span(name, req) if spans is not None else nullcontext()


def _nodes(program) -> int:
    return sum(1 for _ in program.walk())


class Workload:
    """One workload's inputs, set-up, measured loop and tear-down."""

    #: Requests per round (a whole number of the inputs' blocks).
    round_size = 1

    def __init__(self, inputs: Dict[str, object]) -> None:
        self.inputs = inputs
        self.position = 0  # next input; a traced phase continues the stream

    def setup(self, traced: bool) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, spans: Optional[Spans] = None) -> Phase:
        """Closed loop: whole rounds, until ``seconds`` have passed."""
        phase = Phase()
        deadline = perf_counter() + seconds
        while True:
            for _ in range(self.round_size):
                self.position += 1
                self.step(self.position - 1, phase, spans)
            phase.end_round()
            if perf_counter() >= deadline:
                return phase

    def step(self, index: int, phase: Phase, spans: Optional[Spans]) -> None:
        """Request ``index`` of the closed loop."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Oneshot(Workload):
    """``repro run``: parse, lint, compile and run a never-seen program."""

    #: 16 blocks of the engine/optimize mix, 32 of the monitor stacks.
    round_size = 128

    def setup(self, traced: bool) -> None:
        self.requests = self.inputs["requests"]
        self._request(self.inputs["warmup"], 0, None, Phase())

    def step(self, index: int, phase: Phase, spans: Optional[Spans]) -> None:
        self._request(self.requests[index % len(self.requests)], index, spans, phase)

    def _request(self, request, index: int, spans: Optional[Spans], phase: Phase) -> None:
        phase.attempted += 1
        try:
            start = perf_counter()
            if spans is None:
                record, nodes = self._plain(request, index), None
            else:
                record, nodes = self._traced(request, index, spans, phase)
            end = perf_counter()
        except Exception as exc:  # a failed request is a result, not a crash
            phase.fail(f"request {index}: {type(exc).__name__}: {exc}")
            phase.outputs.append([index, None])
            return
        phase.sample(start, end)
        phase.completed += 1
        phase.outputs.append([index, corpus.digest(corpus.outcome(record))])
        if nodes is not None:
            phase.note("nodes", index, nodes)

    def _plain(self, request, index: int) -> dict:
        program = parse(request["text"])
        config = RunConfig(
            engine=request["engine"], lint="warn", optimize=request["optimize"]
        )
        result = run_monitored(
            strict, program, corpus.stack(request["tools"]), config=config
        )
        if result.diagnostics:
            raise AssertionError("program is not lint-clean")
        record = RunResult(
            index=index, ok=True, answer=result.answer, reports=result.reports()
        ).to_dict()
        json.dumps(record, sort_keys=True)
        return record

    def _traced(self, request, index: int, spans: Spans, phase: Phase):
        engine, optimize = request["engine"], request["optimize"]
        with spans.span("request", index):
            with spans.span("syntax.parse"):
                program = parse(request["text"])
            monitors = corpus.stack(request["tools"])
            with spans.span("analysis.lint"):
                report = analyze(
                    program, monitors, language=strict, flow=optimize == "flow"
                )
            with spans.span("monitoring.disjoint"):
                check_disjoint(monitors, program)
            config = RunConfig(
                engine=engine,
                lint="off",
                check_disjointness=False,
                optimize=optimize,
            )
            if engine == "codegen":
                cache = CompilationCache()
                if optimize == "flow":
                    with spans.span("analysis.flow"):
                        cache.flow_verdict(monitors, program)
                with spans.span("runtime.cache"):
                    cache.get_or_compile(
                        strict, program, monitors, engine="codegen", optimize=optimize
                    )
                with spans.span("exec.monitored"):
                    result = run_monitored(
                        strict, program, monitors, config=config, cache=cache
                    )
            else:
                with spans.span("exec.reference"):
                    result = run_monitored(strict, program, monitors, config=config)
            with spans.span("monitors.report"):
                reports = result.reports()
            with spans.span("runtime.batch.encode"):
                record = RunResult(
                    index=index, ok=True, answer=result.answer, reports=reports
                ).to_dict()
                line = json.dumps(record, sort_keys=True)
        if report.diagnostics:
            raise AssertionError("program is not lint-clean")
        phase.note("response_bytes", index, len(line))
        return record, _nodes(program)


class BatchHot(Workload):
    """In-process ``repro batch``: warm chunks through a shared cache."""

    #: Chunks per round; every chunk holds the same 64 runs.
    round_size = 4

    def setup(self, traced: bool) -> None:
        self.programs = [parse(text) for text, _ in corpus.BATCH_PAIRS]
        self.cache = CompilationCache()
        self.config = RunConfig(engine="codegen")
        self.runner = BatchRunner(workers=2, config=self.config, cache=self.cache)
        self.requests = {}
        for pair, with_metrics in corpus.BATCH_CHUNK:
            config = (
                RunConfig(engine="codegen", metrics=RunMetrics()) if with_metrics else None
            )
            self.requests[pair, with_metrics] = RunRequest(
                program=self.programs[pair],
                tools=corpus.BATCH_PAIRS[pair][1],
                config=config,
            )
        self.expected = self.inputs["expected"]
        self.chunks = self.inputs["chunks"]
        # Pre-warm: every pair compiles once, as a long-lived service's
        # cache would hold them.
        self.runner.run([self.requests[key] for key in self.requests])
        if traced:  # the standard-semantics runs of the decomposition
            plain = RunConfig(engine="codegen", lint="off", check_disjointness=False)
            for program in self.programs:
                run_monitored(strict, program, [], config=plain, cache=self.cache)

    def measure(self, seconds: float, spans: Optional[Spans] = None) -> Phase:
        before = self.cache.stats()
        phase = super().measure(seconds, spans)
        after = self.cache.stats()
        lookups = (after.hits - before.hits) + (after.misses - before.misses)
        phase.counters["cache_hit_ratio"] = (
            (after.hits - before.hits) / lookups if lookups else 0.0
        )
        phase.counters["cache_evictions"] = after.evictions - before.evictions
        return phase

    def step(self, index: int, phase: Phase, spans: Optional[Spans]) -> None:
        """One chunk: a client request of 64 runs."""
        chunk = self.chunks[index % len(self.chunks)]
        base = index * len(chunk)
        phase.attempted += len(chunk)
        start = perf_counter()
        if spans is None:
            results = self.runner.run([self.requests[tuple(key)] for key in chunk])
            records = [result.to_dict() for result in results]
            for record in records:
                json.dumps(record)
        else:
            records = [
                self._traced(pair, with_metrics, base + i, spans, phase)
                for i, (pair, with_metrics) in enumerate(chunk)
            ]
        phase.sample(start, perf_counter())
        for (pair, _), record in zip(chunk, records):
            problem = corpus.first_difference(self.expected[pair], corpus.outcome(record))
            if problem is None:
                phase.completed += 1
            else:
                phase.fail(f"pair {pair}: {problem}")

    def _traced(self, pair: int, with_metrics: bool, req: int, spans: Spans, phase: Phase):
        program = self.programs[pair]
        plain = RunConfig(engine="codegen", lint="off", check_disjointness=False)
        with spans.span("request", req):
            monitors = corpus.stack(corpus.BATCH_PAIRS[pair][1])
            with spans.span("monitoring.disjoint"):
                self.cache.check_disjoint(monitors, program)
            with spans.span("runtime.cache"):
                self.cache.get_or_compile(strict, program, monitors, engine="codegen")
            with spans.span("exec.standard"):
                run_monitored(strict, program, [], config=plain, cache=self.cache)
            if with_metrics:
                counted = RunConfig(
                    engine="codegen",
                    lint="off",
                    check_disjointness=False,
                    metrics=RunMetrics(),
                )
                with spans.span("exec.telemetry"):
                    result = run_monitored(
                        strict, program, monitors, config=counted, cache=self.cache
                    )
            else:
                with spans.span("exec.monitored"):
                    result = run_monitored(
                        strict, program, monitors, config=plain, cache=self.cache
                    )
            with spans.span("monitors.report"):
                reports = result.reports()
            with spans.span("runtime.batch.encode"):
                record = RunResult(
                    index=req, ok=True, answer=result.answer, reports=reports
                ).to_dict()
                line = json.dumps(record)
        phase.note("response_bytes", req, len(line))
        return record


class ServeOpen(Workload):
    """Open-loop traffic over one connection to a ``repro serve`` daemon."""

    #: 2.5 s at the rate: four blocks of the request-kind mix.
    round_size = 400

    def setup(self, traced: bool) -> None:
        self.lines = [line.encode("utf-8") for line in self.inputs["lines"]]
        self.kinds = self.inputs["kinds"]
        self.targets = self.inputs["targets"]
        self.expected = self.inputs["expected"]
        self.log = open(self.inputs["server_log"], "ab")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.inputs["socket"],
                "--workers", "2",
                "--engine", "codegen",
                "--lint", "error",
                "--cache-size", "64",
                "--queue-depth", "256",
                "--prewarm", self.inputs["prewarm"],
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        self.sock = self._connect(deadline=perf_counter() + 120)
        self.reader = self.sock.makefile("rb")
        self._send_control({"op": "ping"})

    def _connect(self, deadline: float) -> socket.socket:
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.server.returncode}")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.inputs["socket"])
                return sock
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if perf_counter() > deadline:
                    raise
                sleep(0.002)

    def _send_control(self, record: Dict[str, object]) -> Dict[str, object]:
        self.sock.sendall((json.dumps(record) + "\n").encode("utf-8"))
        reply = json.loads(self.reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"control op failed: {reply}")
        return reply

    def warm(self) -> None:
        """Send every program once, untimed, so that the workers' caches
        hold what the steady state holds before the schedule starts."""
        for line in self.inputs["warmup"]:
            self.sock.sendall(line.encode("utf-8"))
        for _ in self.inputs["warmup"]:
            if not json.loads(self.reader.readline()).get("ok"):
                raise RuntimeError("a warm-up request failed")
        self.sent = len(self.inputs["warmup"])

    def measure(self, seconds: float, spans: Optional[Spans] = None) -> Phase:
        """Open loop: as many whole rounds as ``seconds`` hold at the rate."""
        if not hasattr(self, "sent"):
            self.warm()
        phase = Phase()
        rounds = max(1, round(seconds * SERVE_RATE / self.round_size))
        count = rounds * self.round_size
        first = self.position
        self.position += count
        base = self.sent  # the daemon numbers request lines per connection
        self.sent += count
        sent_ns = [0] * count
        recv_ns = [0] * count
        done_ns = [0] * count
        replies: List[Optional[dict]] = [None] * count

        def read_replies() -> None:
            for _ in range(count):
                line = self.reader.readline()
                received = perf_counter_ns()
                if not line:
                    return
                reply = json.loads(line)
                slot = int(reply.get("index", -1)) - base
                if 0 <= slot < count:
                    recv_ns[slot] = received
                    replies[slot] = reply
                    done_ns[slot] = perf_counter_ns()

        reader = threading.Thread(target=read_replies, name="serve-open-reader")
        reader.start()
        origin = perf_counter_ns() + 1_000_000
        due = [origin + int(slot * 1e9 / SERVE_RATE) for slot in range(count)]
        for slot in range(count):
            wait = (due[slot] - perf_counter_ns()) / 1e9
            if wait > 0:
                sleep(wait)
            sent_ns[slot] = perf_counter_ns()
            self.sock.sendall(self.lines[(first + slot) % len(self.lines)])
        reader.join(timeout=60)
        if reader.is_alive():  # unanswered requests: tear the connection down
            self.sock.shutdown(socket.SHUT_RDWR)
            reader.join(timeout=10)
            raise RuntimeError("serve replies did not arrive within 60 s")

        for start in range(0, count, self.round_size):
            last = due[start]
            for slot in range(start, start + self.round_size):
                index = first + slot
                phase.attempted += 1
                reply = replies[slot]
                if reply is None:
                    phase.fail(f"request {index}: no reply")
                    continue
                last = max(last, recv_ns[slot])
                phase.sample(due[slot] / 1e9, recv_ns[slot] / 1e9)
                entry = index % len(self.lines)
                kind = self.kinds[entry]
                if kind == "ok":
                    expected = self.expected["ok"][self.targets[entry]]
                else:
                    expected = self.expected[kind]
                problem = corpus.first_difference(expected, corpus.outcome(reply))
                if problem is not None:
                    phase.fail(f"request {index} ({kind}): {problem}")
                    continue
                phase.completed += 1
                phase.note("lag_ms", index, (sent_ns[slot] - due[slot]) / 1e6)
                if kind == "ok":
                    roundtrip = (recv_ns[slot] - sent_ns[slot]) / 1e6
                    phase.note("roundtrip_ms", index, roundtrip)
                    phase.note("worker_ms", index, float(reply["duration"]) * 1e3)
                if spans is not None:
                    root = spans.add("request", index, due[slot], done_ns[slot])
                    spans.add("client.gen_lag", index, due[slot], sent_ns[slot], parent=root)
                    spans.add(
                        "runtime.serve.roundtrip", index, sent_ns[slot], recv_ns[slot],
                        parent=root,
                    )
                    spans.add(
                        "client.decode", index, recv_ns[slot], done_ns[slot], parent=root
                    )
            phase.end_round(busy_s=(last - due[start]) / 1e9)
        stats = self._send_control({"op": "stats"})
        phase.counters["rejected"] = stats["serve"]["rejected"]
        phase.counters["crashes"] = stats["pool"]["crashes"]
        return phase

    def close(self) -> None:
        for closeable in (getattr(self, "reader", None), getattr(self, "sock", None)):
            if closeable is not None:
                closeable.close()
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            # Block in waitpid (a timed wait polls and quantizes the teardown);
            # the timer kills a server that ignores SIGTERM.
            watchdog = threading.Timer(60, server.kill)
            watchdog.start()
            server.send_signal(signal.SIGTERM)
            server.wait()
            watchdog.cancel()
        if getattr(self, "log", None) is not None:
            self.log.close()


class RecordReplay(Workload):
    """Record a trace, read it, fold stacks over it, seek backward in it."""

    #: Eight blocks of the nine recorded programs.
    round_size = 72

    def setup(self, traced: bool) -> None:
        self.cycles = self.inputs["cycles"]
        self.expected = self.inputs["expected"]
        self.path = self.inputs["trace_path"]
        self._cycle(self.cycles[-1], -1, None, Phase())

    def step(self, index: int, phase: Phase, spans: Optional[Spans]) -> None:
        self._cycle(self.cycles[index % len(self.cycles)], index, spans, phase)

    def _cycle(self, cycle, index: int, spans: Optional[Spans], phase: Phase) -> None:
        phase.attempted += 1
        program_index = cycle["program"]
        try:
            start = perf_counter()
            with _span(spans, "request", index):
                outcome = self._steps(cycle, spans)
            end = perf_counter()
        except Exception as exc:
            phase.fail(f"cycle {index}: {type(exc).__name__}: {exc}")
            if os.path.exists(self.path):
                os.remove(self.path)
            return
        program, answer, folds, replayed, positions, targets, events, size = outcome
        phase.sample(start, end)
        expected = self.expected[program_index]
        problems = []
        for stack_index, reports in enumerate(folds):
            rendered = corpus.outcome(json.loads(corpus.encode(0, answer, reports)))
            problems.append(corpus.first_difference(expected[stack_index], rendered))
        rendered = corpus.outcome(json.loads(corpus.encode(0, answer, replayed)))
        problems.append(corpus.first_difference(expected[cycle["replay_stack"]], rendered))
        if positions != targets:
            problems.append(f"seeks landed at {positions}, asked for {targets}")
        problems = [p for p in problems if p is not None]
        if problems:
            phase.fail(f"cycle {index}: {problems[0]}")
            return
        phase.completed += 1
        phase.note("events", index, events)
        phase.note("bytes", index, size)
        if spans is not None:
            phase.note("nodes", index, _nodes(program))

    def _steps(self, cycle, spans: Optional[Spans]):
        text = corpus.RECORD_PROGRAMS[cycle["program"]]
        with _span(spans, "syntax.parse"):
            program = parse(text)
        with _span(spans, "tracing.record"):
            recorded = record(strict, program, self.path, config=RunConfig(engine="codegen"))
        size = os.path.getsize(self.path)
        with _span(spans, "tracing.read"):
            trace = read_trace(self.path)
        folds = []
        for tools in corpus.RECORD_STACKS:
            with _span(spans, "tracing.fold"):
                folds.append(
                    analyze_trace(trace, corpus.stack(tools), program=program).reports()
                )
        replay_tools = corpus.RECORD_STACKS[cycle["replay_stack"]]
        with _span(spans, "replay.open"):
            session = ReplaySession(trace, corpus.stack(replay_tools), program=program)
            session.seek(len(session))
            replayed = session.analysis().reports()
        targets = [int(f * len(session)) for f in cycle["seeks"]]
        positions = []
        for target in targets:
            with _span(spans, "replay.seek"):
                positions.append(session.seek(target))
        os.remove(self.path)
        return (
            program, recorded.answer, folds, replayed, positions, targets,
            recorded.events, size,
        )


WORKLOADS = {
    "oneshot": Oneshot,
    "batch_hot": BatchHot,
    "serve_open": ServeOpen,
    "record_replay": RecordReplay,
}
