"""The observability layer: metrics, sinks, events, and stream completeness.

The headline property (Jahier & Ducassé's *sufficiency* of a generic
trace) is at the bottom: replaying a captured JSONL event stream through
the :func:`repro.observability.replay` fold reconstructs the profiler's
final counter environment and the fault log exactly — on both engines,
under both non-propagate fault policies.
"""

import io
import json

import pytest

from repro.languages.strict import strict
from repro.monitors import LabelCounterMonitor, ProfilerMonitor
from repro.monitoring.derive import run_monitored
from repro.observability import (
    CallbackSink,
    Event,
    InMemorySink,
    JsonlSink,
    NullSink,
    RunMetrics,
    Telemetry,
    fault_tuples,
    read_events,
    replay,
)
from repro.runtime import RunConfig
from repro.syntax.parser import parse

from tests.fault_injection import FAC_LABELED, flaky_profiler

ENGINES = ["reference", "codegen"]

FAC = parse(FAC_LABELED)


# -- RunMetrics ------------------------------------------------------------------


class TestRunMetrics:
    def test_defaults_and_totals(self):
        metrics = RunMetrics()
        assert metrics.steps == 0
        assert metrics.total_activations() == 0
        metrics.activations["a"] = 2
        metrics.activations["b"] = 3
        metrics.faults["a"] = 1
        assert metrics.total_activations() == 5
        assert metrics.total_faults() == 1

    def test_eval_time_is_wall_minus_monitor(self):
        metrics = RunMetrics(wall_time=2.0, monitor_time=0.5)
        assert metrics.eval_time == 1.5
        metrics.monitor_time = 3.0  # clock skew must not go negative
        assert metrics.eval_time == 0.0

    def test_times_excluded_from_equality(self):
        a = RunMetrics(steps=7, wall_time=1.0)
        b = RunMetrics(steps=7, wall_time=2.0)
        assert a == b

    def test_reset(self):
        metrics = RunMetrics(steps=5, applications=2, state_transitions=1)
        metrics.activations["m"] = 1
        metrics.reset()
        assert metrics == RunMetrics()
        assert metrics.activations == {}

    def test_to_dict_is_json_safe(self):
        metrics = RunMetrics(steps=3)
        metrics.pre_calls["m"] = 1
        assert json.loads(json.dumps(metrics.to_dict()))["steps"] == 3

    def test_render_mentions_every_counter(self):
        text = RunMetrics().render()
        for label in ("steps", "applications", "activations", "faults", "wall time"):
            assert label in text

    def test_accumulates_across_runs(self):
        metrics = RunMetrics()
        for _ in range(2):
            run_monitored(
                strict, FAC, LabelCounterMonitor(), config=RunConfig(metrics=metrics)
            )
        single = RunMetrics()
        run_monitored(
            strict, FAC, LabelCounterMonitor(), config=RunConfig(metrics=single)
        )
        assert metrics.steps == 2 * single.steps
        assert metrics.activations["count"] == 2 * single.activations["count"]


# -- the Telemetry gatekeeper ----------------------------------------------------


class TestTelemetryCreate:
    def test_nothing_requested_means_none(self):
        assert Telemetry.create(None, None) is None

    def test_null_sink_counts_as_no_sink(self):
        assert Telemetry.create(None, NullSink()) is None

    def test_metrics_alone_activates(self):
        metrics = RunMetrics()
        telemetry = Telemetry.create(metrics, None)
        assert telemetry is not None and telemetry.metrics is metrics
        assert telemetry.sink is None

    def test_sink_alone_activates_with_fresh_metrics(self):
        telemetry = Telemetry.create(None, InMemorySink())
        assert telemetry is not None
        assert isinstance(telemetry.metrics, RunMetrics)


# -- sinks -----------------------------------------------------------------------


class TestSinks:
    def test_in_memory_of_type(self):
        sink = InMemorySink()
        sink.emit(Event(1, "fault", "m"))
        sink.emit(Event(2, "quarantine", "m"))
        assert [e.type for e in sink.of_type("fault")] == ["fault"]

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit(Event(1, "fault"))
        assert seen[0].seq == 1

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(Event(1, "monitor-pre", "m", {"annotation": "fac"}))
            sink.emit(Event(2, "fault", "m", {"phase": "pre"}))
        events = read_events(path)
        assert events == [
            Event(1, "monitor-pre", "m", {"annotation": "fac"}),
            Event(2, "fault", "m", {"phase": "pre"}),
        ]

    def test_jsonl_accepts_file_object_without_closing_it(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit(Event(1, "step"))
        sink.close()
        assert json.loads(buffer.getvalue())["type"] == "step"

    def test_event_dict_round_trip(self):
        event = Event(3, "state-update", "m", {"phase": "post"})
        assert Event.from_dict(event.to_dict()) == event


# -- telemetry through run_monitored ---------------------------------------------


class TestRunTelemetry:
    def test_no_telemetry_means_no_metrics(self):
        result = run_monitored(strict, FAC, LabelCounterMonitor())
        assert result.metrics is None

    def test_null_sink_means_no_metrics(self):
        result = run_monitored(
            strict, FAC, LabelCounterMonitor(), config=RunConfig(event_sink=NullSink())
        )
        assert result.metrics is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_metrics_populated(self, engine):
        metrics = RunMetrics()
        result = run_monitored(
            strict,
            FAC,
            LabelCounterMonitor(),
            config=RunConfig(engine=engine, metrics=metrics),
        )
        assert result.metrics is metrics
        assert result.answer == 24
        assert metrics.steps > 0
        assert metrics.applications > 0
        assert metrics.activations == {"count": 5}
        assert metrics.pre_calls == {"count": 5}
        assert metrics.post_calls == {"count": 5}
        assert metrics.state_transitions == 5  # counter updates on pre only
        assert metrics.faults == {}
        assert metrics.wall_time > 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sink_alone_returns_metrics(self, engine):
        result = run_monitored(
            strict,
            FAC,
            LabelCounterMonitor(),
            config=RunConfig(engine=engine, event_sink=InMemorySink()),
        )
        assert result.metrics is not None and result.metrics.steps > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_step_events_match_step_counter(self, engine):
        metrics = RunMetrics()
        sink = InMemorySink(wants_steps=True)
        run_monitored(
            strict,
            FAC,
            LabelCounterMonitor(),
            config=RunConfig(engine=engine, metrics=metrics, event_sink=sink),
        )
        assert len(sink.of_type("step")) == metrics.steps

    @pytest.mark.parametrize("engine", ENGINES)
    def test_step_events_opt_in(self, engine):
        sink = InMemorySink()  # wants_steps=False
        run_monitored(
            strict,
            FAC,
            LabelCounterMonitor(),
            config=RunConfig(engine=engine, event_sink=sink),
        )
        assert sink.of_type("step") == []
        assert len(sink.of_type("monitor-pre")) == 5

    def test_monitored_result_keeps_original_specs(self):
        monitor = LabelCounterMonitor()
        result = run_monitored(
            strict, FAC, monitor, config=RunConfig(metrics=RunMetrics())
        )
        assert result.monitors == (monitor,)
        assert result.report() == {"fac": 5}

    def test_empty_stack_still_counts(self):
        metrics = RunMetrics()
        result = run_monitored(
            strict, parse("1 + 2"), [], config=RunConfig(metrics=metrics)
        )
        assert result.answer == 3
        assert metrics.steps == 5  # App, 2, App, 1, +
        assert metrics.applications == 2


# -- telemetry through the toolbox and sessions ----------------------------------


class TestToolboxTelemetry:
    def test_evaluate_with_tools(self):
        from repro.toolbox.registry import evaluate

        metrics = RunMetrics()
        result = evaluate("profile", FAC_LABELED, config=RunConfig(metrics=metrics))
        assert result.metrics is metrics
        assert metrics.activations == {"profile": 5}

    def test_evaluate_without_tools(self):
        from repro.toolbox.registry import evaluate

        metrics = RunMetrics()
        result = evaluate((), "1 + 2", config=RunConfig(metrics=metrics))
        assert result.answer == 3
        assert result.monitored is None
        assert result.metrics is metrics and metrics.steps == 5

    def test_session_evaluate(self):
        from repro.toolbox.session import Session

        session = Session()
        session.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
        metrics = RunMetrics()
        result = session.evaluate(
            "fac 4", tools="profile", config=RunConfig(metrics=metrics)
        )
        assert result.answer == 24
        assert result.metrics is metrics
        assert metrics.activations == {"profile": 5}

    def test_session_evaluate_no_tools(self):
        from repro.toolbox.session import Session

        session = Session()
        metrics = RunMetrics()
        result = session.evaluate("2 * 3", config=RunConfig(metrics=metrics))
        assert result.answer == 6
        assert metrics.steps > 0


# -- event-stream completeness ---------------------------------------------------


class TestEventStreamCompleteness:
    """Replaying a captured JSONL stream reconstructs the run exactly."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("fault_policy", ["quarantine", "log"])
    def test_replay_reconstructs_profiler_and_faults(
        self, tmp_path, engine, fault_policy
    ):
        path = tmp_path / f"{engine}-{fault_policy}.jsonl"
        metrics = RunMetrics()
        with JsonlSink(path, wants_steps=True) as sink:
            result = run_monitored(
                strict,
                FAC,
                flaky_profiler(2),
                config=RunConfig(
                    engine=engine,
                    fault_policy=fault_policy,
                    metrics=metrics,
                    event_sink=sink,
                ),
            )
        assert result.answer == 24  # fault isolation kept the answer

        summary = replay(read_events(path))

        # The fold's successful-pre counts ARE the profiler's final
        # counter environment — stream and state agree exactly.
        assert summary.pre_counts.get("profile", {}) == dict(result.report())
        # The fold's fault records ARE the fault log.
        assert summary.faults == fault_tuples(result.faults)
        assert summary.quarantined == list(result.quarantined_keys())
        # And the aggregates agree with the live metrics.
        assert summary.steps == metrics.steps
        assert summary.activations == metrics.activations
        assert summary.state_transitions == metrics.state_transitions

    @pytest.mark.parametrize("engine", ENGINES)
    def test_healthy_run_stream_matches_metrics(self, tmp_path, engine):
        path = tmp_path / "healthy.jsonl"
        metrics = RunMetrics()
        with JsonlSink(path, wants_steps=True) as sink:
            result = run_monitored(
                strict,
                FAC,
                ProfilerMonitor(),
                config=RunConfig(engine=engine, metrics=metrics, event_sink=sink),
            )
        summary = replay(read_events(path))
        assert summary.pre_counts["profile"] == dict(result.report())
        assert summary.faults == [] and summary.quarantined == []
        assert summary.steps == metrics.steps
