"""Tests for the ``L_exc`` exceptions language module."""

import pytest

from repro.languages.exceptions import (
    ExcParser,
    Raise,
    TryCatch,
    UncaughtException,
    exceptions_language,
    parse_exc,
)
from repro.monitoring.derive import run_monitored
from repro.monitoring.spec import FunctionSpec
from repro.monitors import StepperMonitor, TracerMonitor
from repro.runtime import RunConfig
from repro.syntax.annotations import Label
from repro.syntax.parser import parse as parse_lambda


def run(source, **kwargs):
    return exceptions_language.evaluate(parse_exc(source), **kwargs)


class TestParser:
    def test_raise(self):
        expr = parse_exc("raise 1")
        assert isinstance(expr, Raise)

    def test_try_catch(self):
        expr = parse_exc("try raise 1 catch e. e + 1")
        assert isinstance(expr, TryCatch)
        assert expr.param == "e"

    def test_contextual_keywords(self):
        # `raise` is an ordinary identifier to the base L_lambda parser.
        expr = parse_lambda("lambda raise. raise")
        assert expr.param == "raise"

    def test_missing_catch(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_exc("try 1 1")


class TestSemantics:
    def test_plain_programs_unchanged(self, corpus_case):
        program, expected = corpus_case
        assert exceptions_language.evaluate(program) == expected

    def test_no_raise_no_handler(self):
        assert run("try 1 + 1 catch e. 99") == 2

    def test_raise_caught(self):
        assert run("try raise 41 catch e. e + 1") == 42

    def test_raise_aborts_pending_work(self):
        # The multiplication never happens.
        assert run("try 100 * (raise 7) catch e. e") == 7

    def test_uncaught_raise(self):
        with pytest.raises(UncaughtException) as exc:
            run("1 + raise 13")
        assert exc.value.value == 13

    def test_nested_handlers_innermost_wins(self):
        assert run("try (try raise 1 catch a. a + 10) catch b. b + 100") == 11

    def test_raise_in_handler_propagates_outward(self):
        assert run("try (try raise 1 catch a. raise (a + 1)) catch b. b * 10") == 20

    def test_handler_is_dynamic(self):
        # A function defined outside the try raises into the *caller's*
        # handler.
        source = (
            "let thrower = lambda x. raise x in "
            "try thrower 5 catch e. e * 2"
        )
        assert run(source) == 10

    def test_raise_through_deep_recursion(self):
        source = (
            "letrec dig = lambda n. if n = 0 then raise n else 1 + dig (n - 1) in "
            "try dig 10000 catch e. e - 1"
        )
        assert run(source) == -1

    def test_raise_value_can_be_any_value(self):
        assert run("try raise [1, 2] catch e. hd e") == 1

    def test_condition_raise(self):
        assert run("try (if raise true then 1 else 2) catch e. if e then 3 else 4") == 3


class TestRandomExcPrograms:
    from hypothesis import given, settings

    from tests.generators import exc_program

    @settings(max_examples=80, deadline=None)
    @given(exc_program())
    def test_monitoring_soundness_under_exceptions(self, program):
        from repro.monitors import LabelCounterMonitor

        plain = exceptions_language.evaluate(program, max_steps=2_000_000)
        monitored = run_monitored(
            exceptions_language,
            program,
            LabelCounterMonitor(),
            config=RunConfig(max_steps=2_000_000),
        )
        assert monitored.answer == plain


class TestMonitoredExceptions:
    def test_monitor_sound_under_exceptions(self):
        program = parse_exc("try {p}: (1 + raise 5) catch e. {q}: (e * 2)")
        counter = FunctionSpec(
            key="count",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: {},
            pre=lambda ann, term, ctx, st: {**st, ann.name: st.get(ann.name, 0) + 1},
        )
        result = run_monitored(exceptions_language, program, counter)
        assert result.answer == 10
        # {p} was entered; {q} ran in the handler.
        assert result.report() == {"p": 1, "q": 1}

    def test_post_discarded_on_abort(self):
        # The continuation carrying updPost is discarded by the raise:
        # the stepper records an enter with no matching exit.
        program = parse_exc("try {p}: (raise 1) catch e. e")
        result = run_monitored(exceptions_language, program, StepperMonitor())
        monitor = result.monitors[0]
        events = monitor.events(result.state_of(monitor))
        kinds = [e.kind for e in events]
        assert kinds == ["enter"]  # no exit: the abort is visible

    def test_tracer_shows_unreturned_call(self):
        program = parse_exc(
            "letrec f = lambda x. {f(x)}: (if x = 0 then raise 99 else f (x - 1)) in "
            "try f 2 catch e. e"
        )
        result = run_monitored(exceptions_language, program, TracerMonitor())
        assert result.answer == 99
        trace = result.report()
        assert trace.count("receives") == 3
        assert trace.count("returns") == 0  # every activation was aborted

    def test_monitor_state_survives_abort(self):
        # State updates made before the raise are kept: the monitor state
        # threads *through* the machine, it is not part of the discarded
        # continuation's value world.
        program = parse_exc(
            "try ({a}: 1) + ({b}: (raise 2)) catch e. e"
        )
        counter = FunctionSpec(
            key="count",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: {},
            pre=lambda ann, term, ctx, st: {**st, ann.name: st.get(ann.name, 0) + 1},
        )
        result = run_monitored(exceptions_language, program, counter)
        assert result.answer == 2
        # Figure 2 order: the right operand {b} runs (and raises) before
        # {a} is ever reached.
        assert result.report() == {"b": 1}
