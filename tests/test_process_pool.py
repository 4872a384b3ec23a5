"""The process pool: parity with the oracle, crashes, backpressure.

The multi-core serving tier (ISSUE PR 7 tentpole) must be invisible in
the answers: routing by program fingerprint, per-worker caches and the
process boundary may change *where* a request runs, never *what* it
returns — the soundness theorem (Section 7) is what licenses the
sharding.  Beyond parity, the pool owes its callers the operational
guarantees a daemon is built on: a dead worker fails only the request
it was running, never resends it, and is replaced, and its queued
requests go to the replacement (no future ever hangs); a full worker is
an explicit :class:`OverloadedError`, never a silent drop; a bad record
fails its own slot with a diagnostic result; a record's config keys
overlay the pool's config instead of shedding its lint gate and
timeout.
"""

import json
import os
import signal
import time

import pytest

from repro.errors import ReproError
from repro.monitoring.faults import FlakyMonitor
from repro.monitors import ProfilerMonitor
from repro.observability import read_events
from repro.runtime import (
    OverloadedError,
    ProcessPoolRunner,
    RunConfig,
    RunRequest,
    RunResult,
    route_key,
    run_batch,
)
from repro.runtime.process_pool import (
    _encode,
    _shard,
    request_from_wire,
    request_to_wire,
)
from repro.toolbox.registry import evaluate
from tests.test_run_batch import LANGUAGE_SOURCES, parsed_reference_answer

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac %d"
TRACE_FIB = (
    "letrec fib = lambda n. {trace: fib}: "
    "if n < 2 then n else fib (n - 1) + fib (n - 2) in fib %d"
)
PLAIN = "let f = lambda x. x * x in f %d"
#: A cheap program with a large answer: its result message is far bigger
#: than a pipe buffer, so the worker spends its time writing it.
BIG = "letrec build = lambda n. if n = 0 then [] else n :: build (n - 1) in build %d"
LOOP = "letrec loop = lambda x. loop (x + 1) in loop 0"


def _oracle(request):
    """One request through the plain single-run pipeline (no pool).

    Answers and reports are passed through the batch renderer because
    pool results are *rendered* projections — they crossed the process
    boundary as JSON (tuples come back as lists, values as strings).
    """
    from repro.runtime.batch import _render_value

    cfg = request.config if request.config is not None else RunConfig()
    outcome = evaluate(
        request.tools, request.program, language=request.language, config=cfg
    )
    reports = (
        {k: _render_value(v) for k, v in outcome.monitored.reports().items()}
        if outcome.monitored is not None
        else {}
    )
    faults = (
        tuple(
            (f.monitor_key, f.phase, f.error_type, f.message)
            for f in outcome.monitored.faults
        )
        if outcome.monitored is not None
        else ()
    )
    return outcome.answer, reports, faults


def _mixed_requests():
    """Mixed programs, tools and both engines — the parity workload."""
    requests = []
    for engine in ("reference", "codegen"):
        for n in range(4):
            requests.append(
                RunRequest(program=PLAIN % n, config=RunConfig(engine=engine))
            )
        requests.append(
            RunRequest(
                program=FAC % 6, tools="profile", config=RunConfig(engine=engine)
            )
        )
    requests.append(RunRequest(program=TRACE_FIB % 5, tools="trace", tag="traced"))
    requests.append(
        RunRequest(
            program=FAC % 5,
            tools=FlakyMonitor(ProfilerMonitor(), fail_on=2),
            config=RunConfig(engine="codegen", fault_policy="quarantine"),
        )
    )
    return requests


@pytest.fixture(scope="module")
def pool():
    """One warm two-worker pool shared by the read-only tests."""
    with ProcessPoolRunner(workers=2) as runner:
        yield runner


class TestWireFormat:
    def test_route_key_is_deterministic(self):
        assert route_key(FAC % 3) == route_key(FAC % 3)
        assert route_key(FAC % 3) != route_key(FAC % 4)

    def test_request_round_trips_the_boundary(self):
        request = RunRequest(
            program=FAC % 2,
            tools="profile",
            config=RunConfig(engine="codegen", max_steps=5000, timeout=2.0),
            tag="wire",
        )
        wire = request_to_wire(request, request_id=7, index=3)
        json.dumps({k: v for k, v in wire.items() if k != "config"})
        rebuilt = request_from_wire(wire)
        assert rebuilt.program == request.program
        assert rebuilt.tools == "profile"
        assert rebuilt.config.engine == "codegen"
        assert rebuilt.config.max_steps == 5000
        assert rebuilt.config.timeout == 2.0
        assert rebuilt.tag == "wire"

    def test_unpicklable_tools_rejected_at_admission(self):
        request = RunRequest(program=PLAIN % 1, tools=(lambda state: state,))
        with pytest.raises(ValueError, match="process boundary"):
            _encode(request_to_wire(request, request_id=1, index=0))


class TestRunResultRoundTrip:
    def test_ok_result_round_trips(self):
        result = RunResult(
            index=2,
            ok=True,
            tag="t",
            answer=42,
            reports={"profile": {"fac": 5}},
            faults=(("flaky", "post", "RuntimeError", "boom"),),
            duration=0.25,
        )
        back = RunResult.from_dict(result.to_dict())
        assert (back.index, back.ok, back.tag, back.answer) == (2, True, "t", 42)
        assert back.reports == result.reports
        assert back.faults == result.faults
        assert back.duration == 0.25

    def test_error_result_round_trips(self):
        result = RunResult(
            index=0,
            ok=False,
            error="took too long",
            error_type="EvaluationTimeout",
            timed_out=True,
            duration=0.5,
        )
        back = RunResult.from_dict(result.to_dict())
        assert back.ok is False
        assert back.error_type == "EvaluationTimeout"
        assert back.timed_out is True
        assert back.duration == 0.5


class TestPoolParity:
    def test_mixed_requests_match_sequential_oracle(self, pool):
        """The acceptance criterion: pool == oracle on both engines."""
        requests = _mixed_requests()
        expected = [_oracle(request) for request in requests]
        results = pool.run(requests)
        assert len(results) == len(requests)
        for request, result, (answer, reports, faults) in zip(
            requests, results, expected
        ):
            assert result.ok, result.error
            assert result.answer == answer
            assert result.reports == reports
            assert result.faults == faults
            assert result.tag == request.tag

    def test_results_in_submission_order(self, pool):
        results = pool.run([RunRequest(program=PLAIN % n) for n in range(12)])
        assert [result.index for result in results] == list(range(12))
        assert [result.answer for result in results] == [n * n for n in range(12)]

    def test_one_failure_does_not_contaminate_others(self, pool):
        results = pool.run(
            [
                RunRequest(program=PLAIN % 2),
                RunRequest(program="let oops = in"),
                RunRequest(program=PLAIN % 3),
            ]
        )
        assert [result.ok for result in results] == [True, False, True]
        assert results[1].error_type == "ParseError"

    @pytest.mark.parametrize("language", sorted(LANGUAGE_SOURCES))
    def test_program_text_parses_with_the_record_language(self, pool, language):
        from repro.runtime.batch import _render_value

        source = LANGUAGE_SOURCES[language]
        [result] = pool.run([{"program": source, "language": language}])
        assert result.ok, result.error
        expected = parsed_reference_answer(language, source)
        assert result.answer == _render_value(expected)

    def test_repeated_program_routes_to_one_worker(self, pool):
        shard = int(route_key(FAC % 4)[:8], 16) % pool.workers
        futures = [pool.submit(RunRequest(program=FAC % 4)) for _ in range(6)]
        assert all(future.result().answer == 24 for future in futures)
        assert shard == int(route_key(FAC % 4)[:8], 16) % pool.workers


class TestAdmissionAndTimeouts:
    def test_invalid_timeout_fails_its_slot(self, pool):
        """The historical bypass: ``"timeout": 0`` must be a clean rejection."""
        results = pool.run(
            [
                {"program": PLAIN % 1, "timeout": 0},
                {"program": PLAIN % 2, "timeout": -3},
                {"program": PLAIN % 3, "timeout": "fast"},
                {"program": PLAIN % 4},
            ]
        )
        for result in results[:3]:
            assert result.ok is False
            assert result.error_type == "ValueError"
        assert "positive" in results[0].error
        assert "number" in results[2].error
        assert results[3].ok and results[3].answer == 16

    def test_cooperative_timeout_inside_worker(self, pool):
        result = pool.run([RunRequest(program=LOOP, config=RunConfig(timeout=0.3))])[0]
        assert result.ok is False
        assert result.timed_out is True
        assert result.error_type == "EvaluationTimeout"
        assert result.duration >= 0.3

    def test_unpicklable_tools_fail_fast(self, pool):
        future = pool.submit(
            RunRequest(program=PLAIN % 1, tools=(lambda state: state,), tag="bad")
        )
        result = future.result(timeout=5)
        assert result.ok is False
        assert result.error_type == "ValueError"
        assert "process boundary" in result.error
        assert result.tag == "bad"

    def test_bad_record_fails_fast(self, pool):
        result = pool.submit({"program": PLAIN % 1, "bogus": 1}).result(timeout=5)
        assert result.ok is False
        assert "bogus" in result.error

    def test_config_must_be_a_run_config(self):
        with pytest.raises(TypeError, match="RunConfig"):
            ProcessPoolRunner(workers=1, config={"engine": "codegen"})

    def test_record_config_keys_overlay_pool_config(self):
        """A record naming one config key must not shed the pool's config.

        The historical bypass: ``submit`` built a *fresh* ``RunConfig``
        from the record's keys, so ``{"max_steps": 100}`` silently turned
        the pool's ``lint="error"`` admission gate back off.
        """
        with ProcessPoolRunner(
            workers=1, config=RunConfig(lint="error")
        ) as runner:
            results = runner.run(
                [
                    {"program": "foo 1", "max_steps": 100},
                    {"program": PLAIN % 3, "max_steps": 100},
                ]
            )
        assert results[0].ok is False
        assert results[0].error_type == "StaticAnalysisError"
        assert results[1].ok and results[1].answer == 9

    def test_record_config_keys_keep_pool_timeout(self):
        """Overriding ``engine`` must not disable the pool's deadline."""
        with ProcessPoolRunner(
            workers=1, config=RunConfig(timeout=0.3)
        ) as runner:
            future = runner.submit({"program": LOOP, "engine": "reference"})
            result = future.result(timeout=15)
        assert result.ok is False
        assert result.timed_out is True
        assert result.error_type == "EvaluationTimeout"


class TestCrashRecovery:
    def test_sigkilled_worker_fails_in_flight_and_restarts(self):
        with ProcessPoolRunner(workers=2) as runner:
            future = runner.submit(
                RunRequest(program=LOOP, config=RunConfig(timeout=30.0), tag="victim")
            )
            victim_pid = None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and victim_pid is None:
                for worker in runner._pool:
                    if worker.running is not None:
                        victim_pid = worker.process.pid
                time.sleep(0.01)
            assert victim_pid is not None, "request never reached a worker"
            os.kill(victim_pid, signal.SIGKILL)
            result = future.result(timeout=15)
            assert result.ok is False
            assert result.error_type == "WorkerCrashed"
            assert result.tag == "victim"
            # The replacement worker serves the next request.
            after = runner.run([RunRequest(program=PLAIN % 5)])[0]
            assert after.ok and after.answer == 25
            stats = runner.stats()
            assert stats["crashes"] == 1
            assert stats["restarts"] == 1

    def test_queued_requests_move_to_the_replacement(self):
        """A crash fails only the request in flight; the queued ones run.

        The parent sends a worker its next request only after the last
        one is done, so requests still queued never reached the dead
        process and the replacement serves them.  The 15 s bound also
        shows the blocker is not resent: its 30 s loop would hold the
        queued requests past it.
        """
        with ProcessPoolRunner(workers=1, queue_depth=8) as runner:
            blocker = runner.submit(
                RunRequest(program=LOOP, config=RunConfig(timeout=30.0), tag="running")
            )
            queued = [
                runner.submit(RunRequest(program=PLAIN % n, tag=f"queued-{n}"))
                for n in range(3)
            ]
            victim_pid = None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and victim_pid is None:
                for worker in runner._pool:
                    if worker.running is not None:
                        victim_pid = worker.process.pid
                time.sleep(0.01)
            assert victim_pid is not None, "request never reached the worker"
            os.kill(victim_pid, signal.SIGKILL)
            started = time.monotonic()
            results = [
                future.result(timeout=15) for future in [blocker, *queued]
            ]
            assert time.monotonic() - started < 15
            assert results[0].ok is False
            assert results[0].error_type == "WorkerCrashed"
            assert "running this request" in results[0].error
            assert [(r.ok, r.answer) for r in results[1:]] == [
                (True, 0), (True, 1), (True, 4)
            ]
            assert [r.tag for r in results[1:]] == [f"queued-{n}" for n in range(3)]
            # The replacement worker keeps serving new traffic.
            after = runner.run([RunRequest(program=PLAIN % 6)])[0]
            assert after.ok and after.answer == 36
            assert runner.stats()["pending"] == 0

    def test_crash_releases_a_submitter_waiting_on_a_full_queue(self):
        """A batch ``run()`` blocked on a full worker finishes when it dies.

        The dead worker's queued request passes to the replacement, which
        takes it once ready; that frees the slot the waiting submitter
        needs, and all three batch requests are answered.
        """
        import threading

        with ProcessPoolRunner(workers=1, queue_depth=1) as runner:
            blocker = runner.submit(
                RunRequest(program=LOOP, config=RunConfig(timeout=30.0), tag="running")
            )
            deadline = time.monotonic() + 10.0
            while runner._pool[0].running is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert runner._pool[0].running is not None, "blocker never started"
            results = []
            batch = threading.Thread(
                target=lambda: results.extend(
                    runner.run([RunRequest(program=PLAIN % n) for n in range(3)])
                ),
                daemon=True,
            )
            batch.start()
            # The first request fills the depth-1 worker; the second waits.
            while runner.stats()["pending"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert runner.stats()["pending"] == 3
            os.kill(runner._pool[0].process.pid, signal.SIGKILL)
            batch.join(timeout=15)
            assert not batch.is_alive(), "run() hung on the dead worker's queue"
            assert blocker.result(timeout=5).error_type == "WorkerCrashed"
            assert [(r.ok, r.answer) for r in results] == [
                (True, 0), (True, 1), (True, 4)
            ]

    def test_random_kills_lose_only_requests_in_flight(self):
        """Kills racing a stream of submissions fail one request at most each.

        Three workers on any core count, depth-4 deques and ten SIGKILLs
        at random points of dispatch: every future resolves, every ``ok``
        answer is right, and the failures are exactly the requests the
        ``worker-crash`` events report in flight — never a queued one.
        """
        import random
        import threading

        from repro.observability.sinks import InMemorySink

        rng = random.Random(7)
        sink = InMemorySink()
        with ProcessPoolRunner(workers=3, queue_depth=4, event_sink=sink) as runner:

            def kill_some():
                for _ in range(10):
                    time.sleep(rng.uniform(0.0, 0.03))
                    try:
                        os.kill(runner.worker_pids()[rng.randrange(3)], signal.SIGKILL)
                    except ProcessLookupError:
                        pass  # already dead, not yet replaced

            killer = threading.Thread(target=kill_some, daemon=True)
            killer.start()
            futures = [
                runner.submit(RunRequest(program=PLAIN % n)) for n in range(300)
            ]
            killer.join(timeout=15)
            assert not killer.is_alive()
            results = [future.result(timeout=30) for future in futures]
        assert all(r.answer == n * n for n, r in enumerate(results) if r.ok)
        failed = [r for r in results if not r.ok]
        assert {r.error_type for r in failed} <= {"WorkerCrashed"}
        assert all("running this request" in r.error for r in failed)
        crashes = [e.payload for e in sink.events if e.type == "worker-crash"]
        assert len(failed) == sum(crash["failed"] for crash in crashes)
        assert len(crashes) <= 10

    def test_sigkill_during_result_writes_leaves_the_pool_serving(self):
        """Workers SIGKILLed while writing results must not wedge the pool.

        Each worker writes to its own pipe, so a worker killed halfway
        through a message leaves the truncated bytes on a pipe nobody
        reads again: its in-flight request fails, and its replacement and
        its sibling keep serving.  A result channel shared
        by every worker would let the victim die holding its write lock,
        and then no worker could ever reply again.
        """
        import random

        rng = random.Random(1)
        probes = {_shard(PLAIN % n, 2): PLAIN % n for n in range(20)}
        assert sorted(probes) == [0, 1]
        with ProcessPoolRunner(
            workers=2, queue_depth=64, config=RunConfig(engine="codegen")
        ) as runner:
            for kill in range(8):
                burst = [
                    runner.submit(RunRequest(program=BIG % (20_000 + n)))
                    for n in range(12)
                ]
                # Kill once results are flowing, at a random point of a write.
                burst[0].result(timeout=30)
                time.sleep(rng.uniform(0.0, 0.01))
                victim = runner._pool[kill % 2].process.pid
                os.kill(victim, signal.SIGKILL)
                for future in burst:
                    result = future.result(timeout=30)
                    assert result.ok or result.error_type == "WorkerCrashed"
            assert runner.stats()["restarts"] >= 8
            for worker, program in sorted(probes.items()):
                result = runner.submit(RunRequest(program=program)).result(
                    timeout=30
                )
                assert result.ok, f"worker {worker}: {result.error}"


def _gone(pid: int) -> bool:
    """``pid`` has exited: no such process, or an unreaped zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestKilledParent:
    def test_workers_exit_when_their_parent_is_killed(self):
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            "import time\n"
            "from repro.runtime.process_pool import ProcessPoolRunner\n"
            "pool = ProcessPoolRunner(workers=2).start()\n"
            "print(*pool.worker_pids(), flush=True)\n"
            "time.sleep(60)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not all(map(_gone, pids)):
                time.sleep(0.05)
            assert [pid for pid in pids if not _gone(pid)] == []
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
            for pid in pids:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)


class TestBackpressure:
    def test_full_queue_raises_overloaded(self):
        with ProcessPoolRunner(workers=1, queue_depth=1) as runner:
            futures = []
            rejected = 0
            for _ in range(8):
                try:
                    futures.append(
                        runner.submit(
                            RunRequest(program=LOOP, config=RunConfig(timeout=0.4)),
                            block=False,
                        )
                    )
                except OverloadedError as exc:
                    rejected += 1
                    assert "back off" in str(exc)
            assert rejected >= 1, "eight instant submits never filled depth-1"
            for future in futures:
                result = future.result(timeout=15)
                assert result.error_type in ("EvaluationTimeout", "PoolClosed")
            assert runner.stats()["pending"] == 0

    def test_submit_after_close_raises(self):
        runner = ProcessPoolRunner(workers=1)
        runner.start()
        runner.close()
        with pytest.raises(ReproError, match="closed"):
            runner.submit(RunRequest(program=PLAIN % 1))

    def test_close_during_run_fails_unsubmitted_slots(self):
        """``close()`` while ``run()`` is still submitting never raises.

        One worker of depth 1: the first request runs, the second waits
        in the worker's deque and the third blocks its submitter, so the
        fourth is never submitted before ``close()``.  Every slot comes
        back in order with its index and tag; the slots the closing pool
        never ran fail as ``PoolClosed``.
        """
        import threading

        requests = [
            RunRequest(program=LOOP, config=RunConfig(timeout=1.0), tag="slot-0")
        ]
        requests += [
            RunRequest(program=PLAIN % n, tag=f"slot-{n}") for n in (1, 2, 3)
        ]
        results, errors = [], []

        def run_batch():
            try:
                results.extend(runner.run(requests))
            except Exception as exc:  # the regression: run() raised
                errors.append(exc)

        with ProcessPoolRunner(workers=1, queue_depth=1) as runner:
            batch = threading.Thread(target=run_batch, daemon=True)
            batch.start()
            deadline = time.monotonic() + 10.0
            while runner.stats()["pending"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert runner.stats()["pending"] == 3, "the third submit never blocked"
            runner.close()
            batch.join(timeout=15)
        assert not batch.is_alive(), "run() hung after close()"
        assert errors == []
        assert [(r.index, r.tag) for r in results] == [
            (n, f"slot-{n}") for n in range(4)
        ]
        assert results[0].error_type == "EvaluationTimeout"
        assert (results[1].ok, results[1].answer) == (True, 1)
        assert [r.error_type for r in results[2:]] == ["PoolClosed", "PoolClosed"]


class TestParentEventSink:
    def test_start_with_event_sink_does_not_deadlock(self):
        """The historical deadlock: ``start()`` emitted worker-start while
        holding the pool lock, and ``_emit`` re-acquired the same
        non-reentrant lock to bump the sequence — any pool built with a
        real ``event_sink`` hung forever once workers reported ready.
        """
        import threading

        from repro.observability.sinks import InMemorySink

        sink = InMemorySink()
        runner = ProcessPoolRunner(workers=1, event_sink=sink)
        starter = threading.Thread(target=runner.start, daemon=True)
        starter.start()
        starter.join(timeout=30)
        try:
            assert not starter.is_alive(), "start() deadlocked with event sink"
            [result] = runner.run([RunRequest(program=PLAIN % 3)])
            assert result.ok and result.answer == 9
        finally:
            runner.close()
        types = [event.type for event in sink.events]
        assert "worker-start" in types
        assert "batch-start" in types and "batch-end" in types
        assert "worker-exit" in types
        seqs = [event.seq for event in sink.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


class TestTelemetryAndPrewarm:
    def test_per_worker_traces_parse_and_replay(self, tmp_path):
        trace_dir = tmp_path / "traces"
        with ProcessPoolRunner(
            workers=2,
            trace_dir=str(trace_dir),
            prewarm=[{"program": FAC % 6, "tools": "profile"}],
        ) as runner:
            results = runner.run(
                [
                    RunRequest(program=FAC % 6, tools="profile")
                    for _ in range(4)
                ]
            )
            assert all(result.ok for result in results)
        paths = sorted(trace_dir.glob("worker-*.jsonl"))
        assert len(paths) == 2
        served = 0
        for path in paths:
            worker_id = int(path.stem.split("-")[1])
            for line in path.read_text().splitlines():
                record = json.loads(line)  # every line is whole JSON
                assert record["payload"]["worker"] == worker_id
            events = read_events(path)
            served += sum(event.type == "serve-request" for event in events)
        assert served == 4

    def test_worker_trace_seq_is_line_order(self, tmp_path):
        """A worker's cache and serve-request events share one numbering."""
        trace_dir = tmp_path / "traces"
        with ProcessPoolRunner(
            workers=1, config=RunConfig(engine="codegen"), trace_dir=str(trace_dir)
        ) as runner:
            results = runner.run(
                [RunRequest(program=FAC % n, tools="profile") for n in (3, 4, 3)]
            )
            assert all(result.ok for result in results)
        [path] = trace_dir.glob("worker-*.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["type"] for record in records] == [
            "cache-miss", "serve-request",
            "cache-miss", "serve-request",
            "cache-hit", "serve-request",
        ]
        assert [record["seq"] for record in records] == list(range(1, 7))

    def test_prewarm_is_shard_local_and_rewarms_after_restart(self, tmp_path):
        """Each worker compiles only the pre-warm entries routed to it.

        Counted from the per-worker traces: during pre-warm a worker logs
        one ``cache-miss`` per entry of its own shard and nothing for the
        other's; the first request for each pre-warmed program is then a
        ``cache-hit``; and a replacement worker warms its shard again.
        """
        programs = [FAC % n for n in range(1, 9)]
        shards = {
            worker: [p for p in programs if int(route_key(p)[:8], 16) % 2 == worker]
            for worker in (0, 1)
        }
        assert all(shards.values()), "the programs must span both shards"
        trace_dir = tmp_path / "traces"

        def cache_events(worker):
            path = trace_dir / f"worker-{worker}.jsonl"
            types = [json.loads(line)["type"] for line in path.read_text().splitlines()]
            return types.count("cache-miss"), types.count("cache-hit")

        def requests(sources):
            return [RunRequest(program=p, tools="profile") for p in sources]

        with ProcessPoolRunner(
            workers=2,
            config=RunConfig(engine="codegen"),
            trace_dir=str(trace_dir),
            prewarm=[{"program": p, "tools": "profile"} for p in programs],
        ) as runner:
            for worker, shard in shards.items():
                assert cache_events(worker) == (len(shard), 0)
            assert all(result.ok for result in runner.run(requests(programs)))
            for worker, shard in shards.items():
                assert cache_events(worker) == (len(shard), len(shard))

            os.kill(runner._pool[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while runner.stats()["restarts"] < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert runner.stats()["restarts"] == 1
            # The replacement truncated worker-0.jsonl and warmed shard 0.
            assert all(result.ok for result in runner.run(requests(shards[0])))
            assert cache_events(0) == (len(shards[0]), len(shards[0]))

    def test_startup_failure_reports_dead_worker(self, tmp_path):
        # A trace_dir pointing at a *file* makes the worker die in init.
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        runner = ProcessPoolRunner(workers=1, trace_dir=str(bogus / "sub"))
        with pytest.raises((ReproError, OSError)):
            runner.start()
        runner.close()


class TestRuntimeFacade:
    def test_process_pool_matches_the_runtime(self):
        requests = [
            {"program": PLAIN % n, "tools": "profile"} for n in range(6)
        ]
        in_process = run_batch(list(requests))
        with ProcessPoolRunner(workers=2) as pool:
            process_results = pool.run(list(requests))
        for a, b in zip(in_process, process_results):
            assert (a.ok, a.answer, a.reports) == (b.ok, b.answer, b.reports)
