"""``RunConfig``: the one value for every run option, on every entry point.

The consolidation contract:

* ``config=`` is the only way ``run_monitored``, the toolbox
  ``evaluate``, ``Session.evaluate``, ``debug`` and ``record`` take run
  options (``tests/test_replay.py`` checks a loose keyword is a
  ``TypeError`` on each);
* every entry point admits its config through :meth:`RunConfig.checked`:
  ``None`` means the defaults, a non-``RunConfig`` is a ``TypeError``,
  and the value is validated.
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

    @pytest.mark.parametrize("bad", ["abc", True, 2.5, 0, -3])
    def test_validate_rejects_bad_max_steps(self, bad):
        with pytest.raises(ValueError, match="max_steps"):
            RunConfig(max_steps=bad).validate()

    def test_every_field_has_one_option_row(self):
        from repro.runtime.config import OPTIONS

        names = [field.name for field in dataclasses.fields(RunConfig)]
        assert sorted(OPTIONS) == sorted(names)
        # Everything but the accumulator and the answer algebra crosses
        # the process boundary.
        assert sorted(RunConfig().scalars()) == sorted(
            set(names) - {"metrics", "answers"}
        )

    def test_checked_rejects_non_config(self):
        with pytest.raises(TypeError, match="RunConfig"):
            RunConfig.checked("codegen")

    def test_checked_defaults_and_validates(self):
        assert RunConfig.checked(None) == RunConfig()
        cfg = RunConfig(engine="codegen")
        assert RunConfig.checked(cfg) is cfg
        with pytest.raises(ValueError, match="max_steps"):
            RunConfig.checked(RunConfig(max_steps=0))

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
    """``config=`` reaches the engine it names on every entry point."""

    def test_run_monitored_accepts_config(self):
        program = parse(FAC)
        reference = run_monitored(strict, program, ProfilerMonitor())
        via_config = run_monitored(
            strict, program, ProfilerMonitor(), config=RunConfig(engine="codegen")
        )
        assert via_config.answer == reference.answer
        assert via_config.reports() == reference.reports()

    def test_evaluate_accepts_config(self):
        reference = evaluate("profile", FAC)
        via_config = evaluate("profile", FAC, config=RunConfig(engine="codegen"))
        assert via_config.answer == reference.answer
        assert via_config.reports == reference.reports

    def test_session_evaluate_accepts_config(self):
        session = Session()
        session.define("double", "lambda x. x + x")
        reference = session.evaluate("double 21", tools="profile")
        via_config = session.evaluate(
            "double 21", tools="profile", config=RunConfig(engine="codegen")
        )
        assert via_config.answer == reference.answer == 42
        assert via_config.reports == reference.reports

    def test_timeout_flows_through_config(self):
        diverging = parse("letrec loop = lambda x. loop x in loop 1")
        with pytest.raises(EvaluationTimeout):
            run_monitored(strict, diverging, [], config=RunConfig(timeout=0.05))
