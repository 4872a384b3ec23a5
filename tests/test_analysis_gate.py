"""The lint gate through every runtime layer.

``RunConfig.lint`` must behave identically wherever a program enters the
system: ``run_monitored``, the toolbox ``evaluate`` (both its fast path
and its monitored path) and batch admission.  These
tests also pin the memoized disjointness verdict
(:meth:`CompilationCache.check_disjoint`) to the legacy per-run check.
"""

import json

import pytest

from repro.analysis import StaticAnalysisError
from repro.errors import MonitorError
from repro.languages import strict
from repro.monitoring.derive import check_disjoint, disjoint_verdict, run_monitored
from repro.monitors import LabelCounterMonitor, ProfilerMonitor
from repro.runtime import CompilationCache, RunConfig, run_batch
from repro.syntax.parser import parse
from repro.toolbox import evaluate

UNBOUND = "1 + froz0"
CLEAN = "let f = lambda x. x + 1 in f 41"
WARNED = "letrec unused = lambda x. x in 42"
OVERLAP = "{p}: 1"
DEAD_BRANCH = "if true then 1 else {dead}: 2"
DEAD_LETREC = "letrec f = {dead}: lambda x. x in f 1"


class TestRunConfigLint:
    def test_default_off(self):
        assert RunConfig().lint == "off"

    @pytest.mark.parametrize("level", ["off", "warn", "error"])
    def test_valid_levels(self, level):
        RunConfig(lint=level).validate()

    def test_invalid_level_rejected(self):
        with pytest.raises(Exception, match="lint"):
            RunConfig(lint="loud").validate()


class TestRunMonitoredGate:
    def test_error_rejects_before_execution(self):
        with pytest.raises(StaticAnalysisError) as info:
            run_monitored(strict, parse(UNBOUND), [], config=RunConfig(lint="error"))
        assert [d.code for d in info.value.diagnostics] == ["REP101"]

    def test_error_rejects_overlapping_stack(self):
        with pytest.raises(StaticAnalysisError) as info:
            run_monitored(
                strict,
                parse(OVERLAP),
                [ProfilerMonitor(), LabelCounterMonitor()],
                config=RunConfig(lint="error"),
            )
        assert "REP204" in [d.code for d in info.value.diagnostics]

    def test_warn_attaches_diagnostics_and_runs(self, capsys):
        result = run_monitored(
            strict, parse(WARNED), [ProfilerMonitor()], config=RunConfig(lint="warn")
        )
        assert result.answer == 42
        assert [d.code for d in result.diagnostics] == ["REP103"]
        assert "REP103" in capsys.readouterr().err

    def test_off_is_silent(self, capsys):
        result = run_monitored(strict, parse(WARNED), [ProfilerMonitor()])
        assert result.answer == 42
        assert result.diagnostics == ()
        assert capsys.readouterr().err == ""

    def test_clean_program_unaffected_by_error_level(self):
        result = run_monitored(
            strict, parse(CLEAN), [ProfilerMonitor()], config=RunConfig(lint="error")
        )
        assert result.answer == 42


class TestToolboxGate:
    def test_fast_path_error_rejects(self):
        # No tools, no telemetry: evaluate's direct path must still lint.
        with pytest.raises(StaticAnalysisError):
            evaluate((), UNBOUND, config=RunConfig(lint="error"))

    def test_fast_path_warn_attaches(self, capsys):
        result = evaluate((), WARNED, config=RunConfig(lint="warn"))
        assert result.answer == 42
        assert [d.code for d in result.diagnostics] == ["REP103"]
        capsys.readouterr()

    def test_monitored_path_error_rejects(self):
        with pytest.raises(StaticAnalysisError):
            evaluate("profile", UNBOUND, config=RunConfig(lint="error"))

    def test_cached_toolless_path_lints_once(self, capsys):
        cache = CompilationCache()
        result = evaluate(
            (), WARNED, config=RunConfig(engine="codegen", lint="warn"), cache=cache
        )
        assert result.answer == 42
        # Exactly one rendered report: the fast-path gate, not a second
        # one from the run_monitored delegation.
        err = capsys.readouterr().err
        assert err.count("REP103") == 1

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    @pytest.mark.parametrize(
        "source", [DEAD_BRANCH, DEAD_LETREC], ids=["branch", "letrec"]
    )
    def test_toolless_path_runs_the_flow_pass(self, source, engine, capsys):
        """Every spelling of a tool-less run goes through one lint gate."""
        config = RunConfig(engine=engine, lint="warn", optimize="flow")
        program = parse(source)
        direct = run_monitored(strict, program, [], config=config)
        codes = [d.code for d in direct.diagnostics]
        assert "REP501" in codes
        fast = evaluate((), program, config=config)
        assert [d.code for d in fast.diagnostics] == codes
        [batched] = run_batch([{"program": source}], config=config)
        assert [d.code for d in batched.diagnostics] == codes
        capsys.readouterr()

    def test_config_object_carries_lint(self):
        config = RunConfig(lint="error")
        with pytest.raises(StaticAnalysisError):
            evaluate((), UNBOUND, config=config)


class TestBatchGate:
    def test_admission_rejection_with_diagnostics(self):
        results = run_batch(
            [
                {"program": UNBOUND, "tools": "profile", "lint": "error", "tag": "bad"},
                {"program": CLEAN, "tools": "profile", "lint": "error", "tag": "good"},
            ]
        )
        bad, good = results
        assert not bad.ok
        assert bad.error_type == "StaticAnalysisError"
        assert [d.code for d in bad.diagnostics] == ["REP101"]
        assert good.ok
        assert good.answer == 42

    def test_rejected_result_serializes(self):
        (result,) = run_batch(
            [{"program": UNBOUND, "lint": "error", "tag": "bad"}]
        )
        record = json.loads(json.dumps(result.to_dict()))
        assert record["ok"] is False
        assert record["error_type"] == "StaticAnalysisError"
        assert record["diagnostics"][0]["code"] == "REP101"
        assert record["diagnostics"][0]["line"] == 1
        assert record["diagnostics"][0]["column"] == 5

    def test_warn_diagnostics_ride_along(self, capsys):
        (result,) = run_batch([{"program": WARNED, "lint": "warn"}])
        assert result.ok
        record = result.to_dict()
        assert [d["code"] for d in record["diagnostics"]] == ["REP103"]
        capsys.readouterr()


class TestDisjointnessMemo:
    STACKS = [
        [],
        [ProfilerMonitor()],
        [ProfilerMonitor(), LabelCounterMonitor()],
        [ProfilerMonitor(), ProfilerMonitor()],
    ]
    PROGRAMS = ["{p}: 1", "1 + 2", "{count: p}: 1 + {q}: 2"]

    def test_verdict_matches_legacy_check(self):
        for source in self.PROGRAMS:
            program = parse(source)
            for stack in self.STACKS:
                verdict = disjoint_verdict(stack, program)
                if verdict is None:
                    check_disjoint(stack, program)  # must not raise
                else:
                    with pytest.raises(MonitorError) as info:
                        check_disjoint(stack, program)
                    assert str(info.value) == verdict

    def test_cache_matches_legacy_check(self):
        cache = CompilationCache()
        for source in self.PROGRAMS:
            program = parse(source)
            for stack in self.STACKS:
                verdict = disjoint_verdict(stack, program)
                for _ in range(2):  # cold, then warm
                    if verdict is None:
                        cache.check_disjoint(stack, program)
                    else:
                        with pytest.raises(MonitorError) as info:
                            cache.check_disjoint(stack, program)
                        assert str(info.value) == verdict

    def test_memo_hits_on_repeats(self):
        cache = CompilationCache()
        program = parse("{p}: 1")
        stack = [ProfilerMonitor()]
        for _ in range(5):
            cache.check_disjoint(stack, program)
        stats = cache.disjoint_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_clear_resets_memo(self):
        cache = CompilationCache()
        program = parse("1")
        cache.check_disjoint([ProfilerMonitor()], program)
        cache.clear()
        assert cache.disjoint_stats()["size"] == 0

    def test_run_monitored_uses_cache_verdict(self):
        cache = CompilationCache()
        program = parse("{p}: 1")
        stack = [ProfilerMonitor(), LabelCounterMonitor()]
        with pytest.raises(MonitorError):
            run_monitored(strict, program, stack, cache=cache)
        assert cache.disjoint_stats()["misses"] == 1
        # The second rejection replays the memoized verdict.
        with pytest.raises(MonitorError):
            run_monitored(strict, program, stack, cache=cache)
        assert cache.disjoint_stats()["hits"] == 1
