"""The batch runner: parity with sequential runs, isolation, ordering.

The serving layer's central promise (ISSUE PR 4 acceptance): a
``run_batch`` over many mixed requests — different programs, tools,
engines, fault policies — produces results identical to running each
request alone through the single-run pipeline.  The shared compilation
cache, the process pool and per-request timeouts must all be invisible
in the answers, reports and fault records.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationTimeout
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.faults import FlakyMonitor
from repro.monitors import ProfilerMonitor
from repro.observability import InMemorySink
from repro.runtime import (
    BatchRunner,
    CompilationCache,
    ProcessPoolRunner,
    RunConfig,
    RunRequest,
    RunResult,
    Runtime,
    run_batch,
)
from repro.runtime.batch import _render_value
from repro.toolbox.registry import evaluate
from tests.generators import closed_program

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac %d"
TRACE_FIB = (
    "letrec fib = lambda n. {trace: fib}: "
    "if n < 2 then n else fib (n - 1) + fib (n - 2) in fib %d"
)
PLAIN = "let f = lambda x. x * x in f %d"
#: Program text in each non-``L_lambda`` grammar, by request language.
LANGUAGE_SOURCES = {
    "imperative": "x := 1; while x < 4 do x := x * 2; emit x",
    "exceptions": "try raise 1 catch e. e + 1",
}


def parsed_reference_answer(language_name, source):
    """The reference engine's answer for ``source`` parsed by its own grammar."""
    from repro.languages import by_name, parse_exc, parse_imp

    parser = {"imperative": parse_imp, "exceptions": parse_exc}[language_name]
    return by_name(language_name).evaluate(parser(source))


def _mixed_requests(count):
    """``count`` requests cycling programs, tools, engines, policies."""
    requests = []
    for n in range(count):
        which = n % 5
        if which == 0:
            requests.append(
                RunRequest(program=PLAIN % n, config=RunConfig(engine="codegen"))
            )
        elif which == 1:
            requests.append(
                RunRequest(
                    program=FAC % (n % 7),
                    tools="profile",
                    config=RunConfig(engine="codegen"),
                )
            )
        elif which == 2:
            requests.append(
                RunRequest(program=TRACE_FIB % (n % 6), tools="trace", tag=f"t{n}")
            )
        elif which == 3:
            requests.append(
                RunRequest(
                    program=FAC % 5,
                    tools=FlakyMonitor(ProfilerMonitor(), fail_on=2),
                    config=RunConfig(engine="codegen", fault_policy="quarantine"),
                )
            )
        else:
            requests.append(RunRequest(program=PLAIN % n, tools="profile"))
    return requests


def _oracle(request):
    """One request through the plain single-run pipeline (no pool, no cache).

    Reports are rendered as a process-pool result's are: they crossed the
    process boundary as JSON (tuples come back as lists, values as text).
    """
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


@pytest.fixture(scope="module")
def pool():
    """One two-worker process pool shared by the parity tests."""
    with ProcessPoolRunner(workers=2) as runner:
        yield runner


class TestBatchParity:
    def test_hundred_mixed_requests_match_sequential(self, pool):
        """The acceptance criterion: >=100 mixed requests, identical output."""
        requests = _mixed_requests(100)
        expected = [_oracle(request) for request in requests]
        results = pool.run(requests)
        assert len(results) == 100
        for request, result, (answer, reports, faults) in zip(
            requests, results, expected
        ):
            assert result.ok, result.error
            assert result.answer == answer
            assert result.reports == reports
            assert result.faults == faults
            assert result.tag == request.tag

    def test_pooled_matches_single_worker(self, pool):
        requests = _mixed_requests(40)
        sequential = [
            RunResult.from_dict(result.to_dict()) for result in run_batch(requests)
        ]
        pooled = pool.run(requests)
        for a, b in zip(sequential, pooled):
            assert (a.ok, a.answer, a.reports, a.faults) == (
                b.ok,
                b.answer,
                b.reports,
                b.faults,
            )

    @settings(max_examples=15, deadline=None)
    @given(st.lists(closed_program(), min_size=1, max_size=6))
    def test_property_batch_equals_sequential(self, pool, programs):
        requests = [
            RunRequest(program=program, config=RunConfig(engine="codegen"))
            for program in programs
        ]
        pooled = pool.run(requests)
        solo = [
            run_monitored(
                strict, program, [], config=RunConfig(engine="codegen")
            ).answer
            for program in programs
        ]
        assert [result.answer for result in pooled] == solo


class TestOrderingAndIsolation:
    def test_requests_run_in_submission_order(self):
        """``workers`` is ignored: a slow first request is still reported
        first, because nothing overtakes it."""
        slow = (
            "letrec fib = lambda n. {fib}: "
            "if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 20"
        )
        sink = InMemorySink()
        requests = [
            RunRequest(program=slow, tools="count"),
            RunRequest(program=PLAIN % 2),
            RunRequest(program=PLAIN % 3),
        ]
        results = BatchRunner(workers=4, event_sink=sink).run(requests)
        assert [result.answer for result in results] == [6765, 4, 9]
        indices = [event.payload["index"] for event in sink.of_type("batch-request")]
        assert indices == [0, 1, 2]

    def test_results_in_submission_order(self):
        requests = [RunRequest(program=PLAIN % n, tag=str(n)) for n in range(32)]
        results = run_batch(requests)
        assert [result.index for result in results] == list(range(32))
        assert [result.tag for result in results] == [str(n) for n in range(32)]

    def test_one_failure_does_not_contaminate_others(self):
        requests = [
            RunRequest(program=PLAIN % 1),
            RunRequest(program="1 +"),          # parse error
            RunRequest(program="f 1"),          # unbound identifier
            RunRequest(program=PLAIN % 2),
        ]
        results = run_batch(requests)
        assert [result.ok for result in results] == [True, False, False, True]
        assert results[1].error_type == "ParseError"
        assert results[2].error_type == "UnboundIdentifierError"
        assert results[0].answer == 1 and results[3].answer == 4

    def test_timeout_bounds_one_request_only(self):
        requests = [
            RunRequest(program=PLAIN % 3),
            RunRequest(
                program="letrec loop = lambda x. loop x in loop 1",
                timeout=0.1,
                config=RunConfig(engine="codegen"),
            ),
            RunRequest(program=PLAIN % 4),
        ]
        results = run_batch(requests)
        assert results[1].ok is False and results[1].timed_out is True
        assert results[1].error_type == "EvaluationTimeout"
        assert results[0].ok and results[2].ok

    def test_metrics_are_per_request(self):
        from repro.observability import RunMetrics

        shared = RunConfig(metrics=RunMetrics())
        requests = [
            RunRequest(program=FAC % 3, tools="profile"),
            RunRequest(program=FAC % 6, tools="profile"),
        ]
        results = run_batch(requests, config=shared)
        a, b = (result.metrics for result in results)
        assert a is not None and b is not None and a is not b
        assert a.steps != b.steps  # each counted its own run, not the sum
        assert shared.metrics.steps == 0  # the template never accumulated

    def test_batch_never_raises_for_request_failures(self):
        results = run_batch([RunRequest(program="(((")])
        assert results[0].ok is False and results[0].error


class TestBatchSurface:
    def test_dict_requests_accepted(self):
        results = run_batch(
            [{"program": PLAIN % 5, "engine": "codegen", "tag": "x"}]
        )
        assert results[0].answer == 25 and results[0].tag == "x"

    def test_from_dict_merges_base_config(self):
        base = RunConfig(engine="codegen", fault_policy="log", max_steps=9999)
        request = RunRequest.from_dict({"program": "1", "engine": "reference"}, base=base)
        assert request.config.engine == "reference"
        assert request.config.fault_policy == "log"       # kept from base
        assert request.config.max_steps == 9999           # kept from base

    def test_dict_record_config_keys_overlay_runner_config(self):
        """A record's config keys must not shed the runner's config.

        The historical bypass: ``BatchRunner.run`` normalized dict records
        without ``base=``, so ``{"max_steps": ...}`` built a fresh
        ``lint="off"`` config and slipped past the runner's lint gate.
        """
        runner = BatchRunner(config=RunConfig(lint="error"))
        results = runner.run(
            [
                {"program": "foo 1", "max_steps": 100},
                {"program": PLAIN % 4, "max_steps": 100},
            ]
        )
        assert results[0].ok is False
        assert results[0].error_type == "StaticAnalysisError"
        assert results[1].ok and results[1].answer == 16

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown batch request key"):
            RunRequest.from_dict({"program": "1", "engin": "codegen"})

    def test_from_dict_requires_program(self):
        with pytest.raises(ValueError, match="program"):
            RunRequest.from_dict({"tools": "profile"})

    def test_result_to_dict_is_json_safe(self):
        results = run_batch(
            [RunRequest(program=FAC % 4, tools="profile", tag="j")]
        )
        record = results[0].to_dict()
        json.dumps(record)  # must not raise
        assert record["ok"] is True and record["tag"] == "j"
        assert record["reports"]["profile"] == {"fac": 5}

    def test_batch_events_on_the_stream(self):
        sink = InMemorySink()
        requests = [RunRequest(program=PLAIN % n) for n in range(5)]
        run_batch(requests, event_sink=sink)
        kinds = [event.type for event in sink.events]
        assert kinds[0] == "batch-start" and kinds[-1] == "batch-end"
        assert kinds.count("batch-request") == 5
        assert len(sink.of_type("batch-request")) == 5
        end = sink.of_type("batch-end")[0]
        assert end.payload["succeeded"] == 5 and end.payload["failed"] == 0

    def test_runtime_facade_shares_cache(self):
        runtime = Runtime(config=RunConfig(engine="codegen"))
        single = runtime.run((), PLAIN % 7)
        assert single.answer == 49
        batch = runtime.run_batch([{"program": PLAIN % 7}])
        assert batch[0].answer == 49
        stats = runtime.cache_stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_shared_cache_warms_across_batches(self):
        cache = CompilationCache(16)
        cfg = RunConfig(engine="codegen")
        requests = [RunRequest(program=FAC % 5, tools="profile") for _ in range(10)]
        first = run_batch(requests, config=cfg, cache=cache)
        second = run_batch(requests, config=cfg, cache=cache)
        assert all(result.ok for result in first + second)
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 19


class TestTimeoutAdmission:
    """A bad per-request ``timeout`` is rejected cleanly.

    Splicing the override in with ``replace(cfg, timeout=...)`` without
    re-validating once let ``"timeout": 0`` past the config's "must be
    positive" check, disabling the deadline entirely.  Admission now
    validates the overlaid config (:meth:`RunConfig.validate`), so a bad
    value fails *its own slot* with a diagnostic result.
    """

    def test_zero_timeout_record_is_rejected(self):
        results = run_batch(
            [{"program": PLAIN % 2, "timeout": 0, "tag": "z"}]
        )
        assert results[0].ok is False
        assert results[0].error_type == "ValueError"
        assert "positive" in results[0].error
        assert results[0].tag == "z"

    def test_negative_and_non_number_timeouts_rejected(self):
        results = run_batch(
            [
                {"program": PLAIN % 1, "timeout": -2},
                {"program": PLAIN % 2, "timeout": "soon"},
                {"program": PLAIN % 3, "timeout": True},
                # Not a timeout, but a type error the same admission catches
                # (it used to surface mid-run as os.path's TypeError).
                {"program": PLAIN % 5, "mode": "record", "record_dir": 5},
                {"program": PLAIN % 4},
            ],
        )
        assert [result.ok for result in results] == [False] * 4 + [True]
        assert all(result.error_type == "ValueError" for result in results[:4])
        assert "record_dir must be a directory path" in results[3].error
        assert results[4].answer == 16

    def test_bad_request_timeout_fails_slot_not_batch(self):
        requests = [
            RunRequest(program=PLAIN % 1),
            RunRequest(program=PLAIN % 2, timeout=-1.0),
            RunRequest(program=PLAIN % 3),
        ]
        results = run_batch(requests)
        assert [result.ok for result in results] == [True, False, True]
        assert results[1].error_type == "ValueError"

    def test_validate_timeout_contract(self):
        assert RunConfig(timeout=None).validate().timeout is None
        assert RunConfig(timeout=2).validate().timeout == 2.0
        with pytest.raises(ValueError, match="positive"):
            RunConfig(timeout=0).validate()
        with pytest.raises(ValueError, match="number"):
            RunConfig(timeout=True).validate()  # bools are not durations

    def test_valid_override_still_enforced(self):
        loop = "letrec loop = lambda x. loop (x + 1) in loop 0"
        results = run_batch([{"program": loop, "timeout": 0.2}])
        assert results[0].timed_out is True
        assert results[0].error_type == "EvaluationTimeout"


COUNTDOWN = "letrec count = lambda n. if n = 0 then 0 else count (n - 1) in count %d"


class TestOptionAdmission:
    """What a record may set is decided by the option table
    (``repro.runtime.config.OPTIONS``), and a record can only tighten the
    runner's lint gate, timeout and step budget."""

    def test_record_cannot_loosen_the_runners_gate(self):
        runner = BatchRunner(
            config=RunConfig(lint="error", timeout=0.5, max_steps=10**6)
        )
        loosening = [
            {"program": "foo 1", "lint": "off"},
            {"program": "foo 1", "lint": "warn"},
            {"program": COUNTDOWN % 200_000, "timeout": 30},
            {"program": COUNTDOWN % 200_000, "timeout": None},
            {"program": PLAIN % 2, "max_steps": 10**7},
            {"program": PLAIN % 2, "max_steps": None},
        ]
        results = runner.run(loosening)
        for record, result in zip(loosening, results):
            key = (set(record) - {"program"}).pop()
            assert result.ok is False, record
            assert result.error_type == "ValueError", record
            assert f"would loosen the runner's {key}" in result.error
            assert result.duration == 0.0  # rejected at admission, never run

    def test_record_may_tighten_the_runners_gate(self):
        runner = BatchRunner(config=RunConfig(timeout=5, max_steps=10**6))
        results = runner.run(
            [
                {"program": "foo 1", "lint": "error"},
                {"program": COUNTDOWN % 200_000, "max_steps": 1000},
                {"program": "letrec loop = lambda x. loop x in loop 0", "timeout": 0.2},
                {"program": PLAIN % 3, "timeout": 1, "max_steps": 100},
            ]
        )
        assert results[0].error_type == "StaticAnalysisError"
        assert results[1].error_type == "StepLimitExceeded"
        assert results[2].timed_out is True
        assert results[3].ok and results[3].answer == 9

    def test_cli_lint_error_gate_holds_against_records(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"program": "foo 1", "lint": "off"}) + "\n", encoding="utf-8"
        )
        assert main(["batch", str(requests), "--lint", "error"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is False
        assert "would loosen the runner's lint 'error'" in record["error"]

    def test_optimize_record_matches_the_flag(self, tmp_path, capsys):
        from repro.cli import main

        def batch(record, *flags):
            requests = tmp_path / "requests.jsonl"
            requests.write_text(json.dumps(record) + "\n", encoding="utf-8")
            assert main(["batch", str(requests), *flags]) == 0
            out = json.loads(capsys.readouterr().out)
            del out["duration"]
            return out

        program = {"program": "1 + 2"}
        assert batch(program, "--optimize", "flow") == {
            "index": 0, "ok": True, "answer": 3
        }
        assert batch(dict(program, optimize="flow")) == batch(
            program, "--optimize", "flow"
        )
        monitored = {"program": FAC % 5, "tools": "count", "engine": "codegen"}
        assert batch(dict(monitored, optimize="flow")) == batch(
            monitored, "--optimize", "flow"
        )

    def test_checkpoint_interval_is_not_a_record_option(self):
        # Only a replay session reads the interval, and no record replays.
        (result,) = run_batch([{"program": PLAIN % 2, "checkpoint_interval": 8}])
        assert result.ok is False and result.error_type == "ValueError"
        assert "may not set 'checkpoint_interval'" in result.error


class TestMaxStepsAdmission:
    """A record's ``max_steps`` must be ``None`` or a positive integer.

    Unchecked, ``"abc"`` died inside the engine with a ``TypeError``,
    ``true`` became a budget of 1, and ``2.5`` split the engines (codegen
    answered where the reference raised ``StepLimitExceeded``).
    """

    BAD = ["abc", True, 2.5, 0, -3]
    PROGRAM = "let f = lambda x. x + 1 in f (f 1)"

    @pytest.mark.parametrize("pool", ["thread", "process"])
    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    def test_bad_max_steps_fails_its_slot(self, pool, engine):
        from repro.runtime import ProcessPoolRunner

        records = [
            {"program": self.PROGRAM, "max_steps": bad, "tag": repr(bad)}
            for bad in self.BAD
        ] + [{"program": self.PROGRAM, "max_steps": 100}]
        config = RunConfig(engine=engine)
        if pool == "thread":
            results = BatchRunner(config=config).run(records)
        else:
            with ProcessPoolRunner(workers=1, config=config) as runner:
                results = runner.run(records)
        for bad, result in zip(self.BAD, results):
            assert result.ok is False, bad
            assert result.error_type == "ValueError", bad
            assert "max_steps" in result.error
            assert result.tag == repr(bad)
        assert results[-1].ok and results[-1].answer == 3


class TestRecordLanguages:
    @pytest.mark.parametrize("language", sorted(LANGUAGE_SOURCES))
    def test_program_text_parses_with_the_record_language(self, language):
        source = LANGUAGE_SOURCES[language]
        [result] = run_batch(
            [{"program": source, "language": language}]
        )
        assert result.ok, result.error
        assert result.answer == parsed_reference_answer(language, source)


class TestResultWireFormat:
    def test_to_dict_always_carries_duration(self):
        """The latency-reporting fix: ok and error records both have it."""
        results = run_batch(
            [
                {"program": PLAIN % 3},
                {"program": "((("},
                {"program": PLAIN % 1, "timeout": 0},
            ],
        )
        for result in results:
            record = result.to_dict()
            assert "duration" in record
            assert isinstance(record["duration"], float)
        assert results[0].to_dict()["duration"] > 0.0

    def test_from_dict_inverts_to_dict(self):
        [result] = run_batch(
            [RunRequest(program=FAC % 4, tools="profile", tag="rt")]
        )
        back = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.ok is True and back.tag == "rt"
        assert back.answer == result.answer
        assert back.reports == result.reports
        assert back.metrics is None  # in-process-only fields do not cross
        assert not hasattr(back, "monitored")  # final states are not kept
