"""``RunConfig``: the one value for every run option, on every entry point.

The consolidation contract (ISSUE PR 4):

* ``config=`` is accepted by ``run_monitored``, the toolbox ``evaluate``
  and ``Session.evaluate``;
* legacy keyword arguments keep working unchanged;
* passing ``config`` *and* a legacy keyword explicitly changed from its
  default raises ``TypeError`` with a message naming the conflict;
* a legacy keyword left at its default is indistinguishable from "not
  passed" and never conflicts.
"""

import dataclasses

import pytest

from repro.errors import EvaluationTimeout, ReproError
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import ProfilerMonitor
from repro.observability import RunMetrics
from repro.runtime import RunConfig
from repro.syntax.parser import parse
from repro.toolbox.registry import evaluate
from repro.toolbox.session import Session

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 4"


class TestRunConfigValue:
    def test_defaults_match_historical_keywords(self):
        cfg = RunConfig()
        assert cfg.engine == "reference"
        assert cfg.fault_policy == "propagate"
        assert cfg.max_steps is None
        assert cfg.metrics is None
        assert cfg.event_sink is None
        assert cfg.check_disjointness is True
        assert cfg.timeout is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().engine = "codegen"

    def test_validate_rejects_unknown_engine(self):
        with pytest.raises(ReproError, match="unknown engine"):
            RunConfig(engine="jit").validate()

    def test_validate_rejects_unknown_fault_policy(self):
        with pytest.raises(ReproError, match="fault policy"):
            RunConfig(fault_policy="retry").validate()

    def test_validate_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            RunConfig(timeout=0).validate()

    def test_resolve_rejects_non_config(self):
        with pytest.raises(TypeError, match="RunConfig"):
            RunConfig.resolve("codegen")

    def test_resolve_rejects_unknown_option(self):
        with pytest.raises(TypeError, match="unknown run option"):
            RunConfig.resolve(None, engines="codegen")

    def test_with_fresh_metrics_replaces_accumulator(self):
        shared = RunMetrics()
        cfg = RunConfig(metrics=shared)
        fresh = cfg.with_fresh_metrics()
        assert fresh.metrics is not shared
        assert isinstance(fresh.metrics, RunMetrics)
        # Metrics off: nothing to isolate, same config comes back.
        assert RunConfig().with_fresh_metrics() is not None
        assert RunConfig().with_fresh_metrics().metrics is None

    def test_deadline_tracks_timeout(self):
        assert RunConfig().deadline() is None
        assert RunConfig(timeout=5.0).deadline() is not None


class TestConfigOnEntryPoints:
    """``config=`` produces the same results as the loose keywords."""

    def test_run_monitored_accepts_config(self):
        program = parse(FAC)
        legacy = run_monitored(strict, program, ProfilerMonitor(), engine="codegen")
        via_config = run_monitored(
            strict, program, ProfilerMonitor(), config=RunConfig(engine="codegen")
        )
        assert via_config.answer == legacy.answer
        assert via_config.reports() == legacy.reports()

    def test_evaluate_accepts_config(self):
        legacy = evaluate("profile", FAC, engine="codegen")
        via_config = evaluate("profile", FAC, config=RunConfig(engine="codegen"))
        assert via_config.answer == legacy.answer
        assert via_config.reports == legacy.reports

    def test_session_evaluate_accepts_config(self):
        session = Session()
        session.define("double", "lambda x. x + x")
        legacy = session.evaluate("double 21", tools="profile", engine="codegen")
        via_config = session.evaluate(
            "double 21", tools="profile", config=RunConfig(engine="codegen")
        )
        assert via_config.answer == legacy.answer == 42
        assert via_config.reports == legacy.reports

    def test_timeout_flows_through_config(self):
        diverging = parse("letrec loop = lambda x. loop x in loop 1")
        with pytest.raises(EvaluationTimeout):
            run_monitored(strict, diverging, [], config=RunConfig(timeout=0.05))


class TestConfigConflicts:
    """config= plus a changed legacy keyword is a TypeError everywhere."""

    def test_run_monitored_conflict(self):
        program = parse(FAC)
        with pytest.raises(TypeError, match="conflicting legacy keyword"):
            run_monitored(
                strict,
                program,
                [],
                engine="codegen",
                config=RunConfig(engine="reference"),
            )

    def test_evaluate_conflict(self):
        with pytest.raises(TypeError, match="conflicting legacy keyword"):
            evaluate(
                (),
                "1 + 1",
                fault_policy="quarantine",
                config=RunConfig(fault_policy="log"),
            )

    def test_session_conflict(self):
        session = Session()
        with pytest.raises(TypeError, match="conflicting legacy keyword"):
            session.evaluate(
                "1 + 1", max_steps=10, config=RunConfig(max_steps=99)
            )

    def test_conflict_message_names_both_values(self):
        with pytest.raises(TypeError, match="engine='codegen'.*'reference'"):
            evaluate((), "1 + 1", engine="codegen", config=RunConfig())

    def test_default_valued_keyword_never_conflicts(self):
        # engine="reference" is the historical default: indistinguishable
        # from not-passed, so the config's engine simply wins.
        result = evaluate(
            (), "2 + 3", engine="reference", config=RunConfig(engine="codegen")
        )
        assert result.answer == 5

    def test_matching_keyword_never_conflicts(self):
        result = evaluate(
            (), "2 + 3", engine="codegen", config=RunConfig(engine="codegen")
        )
        assert result.answer == 5
