"""Deep recursion on the codegen engine, and the retired ``compiled`` engine.

Residual programs recurse on the host stack, whose limit codegen raises to
100k frames.  A deeper run is repeated on the trampolined reference
derivation whenever nobody can observe the repeat: no monitor touches the
host.  The result, reports, metrics and fault records are then the
reference engine's.  The two other deep runs — record mode and a debugger
reading live commands — raise :class:`~repro.errors.HostRecursionError`,
whose message points at ``engine='reference'``.
"""

import json

import pytest

from repro.errors import HostRecursionError, ReproError
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import DebuggerMonitor, ProfilerMonitor
from repro.observability import RunMetrics
from repro.partial_eval.codegen import GeneratedProgram
from repro.runtime import BatchRunner, RunConfig, RunRequest
from repro.syntax.parser import parse

from tests.fault_injection import FAC_LABELED, flaky_counter

LOOP = "letrec loop = lambda n. if n = 0 then 0 else loop (n - 1) in loop 200000"
DEPTH = 150_000
SUM = (
    "letrec sum = lambda n. {sum}: if n = 0 then 0 else n + sum (n - 1) "
    f"in sum {DEPTH}"
)
#: The reference engine's answer and profile for SUM (closed form: one
#: ``{sum}`` activation per level, n = DEPTH down to 0).
SUM_ANSWER = DEPTH * (DEPTH + 1) // 2
SUM_PROFILE = {"sum": DEPTH + 1}

CODEGEN = RunConfig(engine="codegen")


# -- real host-stack overflows ---------------------------------------------------


class TestDeepRuns:
    def test_monitored_recursion_on_the_main_thread(self):
        result = run_monitored(strict, parse(SUM), ProfilerMonitor(), config=CODEGEN)
        assert result.answer == SUM_ANSWER
        assert result.reports() == {"profile": SUM_PROFILE}

    def test_loop_and_recursion_through_a_batch(self):
        requests = [
            RunRequest(program=LOOP, config=CODEGEN, tag="loop"),
            RunRequest(program=SUM, tools="profile", config=CODEGEN, tag="sum"),
        ]
        loop, total = BatchRunner().run(requests)
        assert loop.ok and loop.answer == 0, loop.error
        assert total.ok and total.answer == SUM_ANSWER, total.error
        assert total.reports == {"profile": SUM_PROFILE}

    def test_record_mode_keeps_the_error(self, tmp_path):
        config = RunConfig(engine="codegen", mode="record", record_dir=str(tmp_path))
        with pytest.raises(HostRecursionError, match="use engine='reference'"):
            run_monitored(strict, parse(LOOP), [], config=config)


# -- the fallback's bookkeeping, on a simulated overflow -------------------------


@pytest.fixture
def overflowing(monkeypatch):
    """Every codegen run does all its work, then overflows the host stack."""
    real_run = GeneratedProgram.run

    def run(self, **kwargs):
        real_run(self, **kwargs)
        raise HostRecursionError(100_000)

    monkeypatch.setattr(GeneratedProgram, "run", run)


def _flaky_run(engine, fault_policy, metrics):
    config = RunConfig(engine=engine, fault_policy=fault_policy, metrics=metrics)
    return run_monitored(strict, parse(FAC_LABELED), flaky_counter(2), config=config)


class TestFallbackEqualsReference:
    @pytest.mark.parametrize("fault_policy", ["quarantine", "log"])
    def test_answer_reports_faults_and_metrics(self, overflowing, fault_policy):
        # Each accumulator already holds one earlier run's counts; the
        # abandoned codegen attempt must not add to them.
        expected_metrics, fallback_metrics = RunMetrics(), RunMetrics()
        _flaky_run("reference", fault_policy, expected_metrics)
        _flaky_run("reference", fault_policy, fallback_metrics)
        expected = _flaky_run("reference", fault_policy, expected_metrics)
        fallback = _flaky_run("codegen", fault_policy, fallback_metrics)
        assert fallback.answer == expected.answer == 24
        assert fallback.reports() == expected.reports()
        assert fallback.faults == expected.faults and fallback.faults
        assert fallback_metrics == expected_metrics

    def test_strict_evaluate_falls_back(self, overflowing):
        config = RunConfig(engine="codegen")
        assert strict.evaluate(parse(FAC_LABELED), config=config) == 24


class TestObservableRunsKeepTheError:
    def test_debugger_reading_live_commands(self, overflowing):
        debugger = DebuggerMonitor([], source=lambda: None)
        with pytest.raises(HostRecursionError):
            run_monitored(strict, parse(FAC_LABELED), debugger, config=CODEGEN)

    def test_scripted_debugger_is_pure_and_falls_back(self, overflowing):
        debugger = DebuggerMonitor(["continue"])
        result = run_monitored(strict, parse(FAC_LABELED), debugger, config=CODEGEN)
        assert result.answer == 24

    def test_record_mode(self, overflowing, tmp_path):
        config = RunConfig(engine="codegen", mode="record", record_dir=str(tmp_path))
        with pytest.raises(HostRecursionError):
            run_monitored(strict, parse(FAC_LABELED), ProfilerMonitor(), config=config)


# -- engine="compiled" is rejected everywhere, with one message ------------------


RETIRED = "unknown engine 'compiled'; choose one of 'reference', 'codegen'"


class TestRetiredCompiledEngine:
    def test_run_config(self):
        with pytest.raises(ReproError, match=RETIRED):
            RunConfig(engine="compiled").validate()

    def test_repro_run_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "-e", "1 + 2", "--engine", "compiled"])
        assert exc.value.code == 2
        assert "invalid choice: 'compiled'" in capsys.readouterr().err

    def test_repro_batch_slot(self, capsys, tmp_path):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"program": "1 + 2", "engine": "compiled", "tag": "old"}\n'
            '{"program": "1 + 2", "engine": "codegen", "tag": "new"}\n',
            encoding="utf-8",
        )
        assert main(["batch", str(requests)]) == 1
        old, new = map(json.loads, capsys.readouterr().out.splitlines())
        assert old["ok"] is False and RETIRED in old["error"]
        assert new["ok"] is True and new["answer"] == 3
