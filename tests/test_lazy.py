"""Tests for the lazy (call-by-need) language module."""

import pytest

from repro.errors import EvalError, StepLimitExceeded
from repro.languages import lazy, strict
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor
from repro.runtime import RunConfig
from repro.syntax.parser import parse


def run(source, **kwargs):
    return lazy.evaluate(parse(source), **kwargs)


class TestBasics:
    def test_corpus(self, corpus_case):
        program, expected = corpus_case
        assert lazy.evaluate(program) == expected

    def test_unused_divergence_ignored(self):
        source = (
            "letrec loop = lambda x. loop x in "
            "let dead = loop 1 in 42"
        )
        assert run(source) == 42

    def test_unused_error_ignored(self):
        assert run("let dead = hd [] in 1") == 1

    def test_strict_diverges_on_same_program(self):
        source = (
            "letrec loop = lambda x. loop x in "
            "let dead = loop 1 in 42"
        )
        with pytest.raises(StepLimitExceeded):
            strict.evaluate(parse(source), config=RunConfig(max_steps=100_000))

    def test_unused_argument_ignored(self):
        assert run("(lambda x. 7) (hd [])") == 7

    def test_demanded_error_still_raises(self):
        with pytest.raises(EvalError):
            run("(lambda x. x) (hd [])")


class TestSharing:
    def test_thunk_forced_once(self):
        program = parse(
            "let x = {costly}: (1 + 2) in x + x"
        )
        result = run_monitored(lazy, program, LabelCounterMonitor())
        assert result.answer == 6
        assert result.report() == {"costly": 1}

    def test_sharing_through_variables(self):
        program = parse(
            "let x = {costly}: (2 * 2) in "
            "let y = x in "
            "let z = y in z + y + x"
        )
        result = run_monitored(lazy, program, LabelCounterMonitor())
        assert result.answer == 12
        assert result.report() == {"costly": 1}

    def test_never_demanded_never_monitored(self):
        program = parse("let dead = {dead}: (1 + 1) in 5")
        result = run_monitored(lazy, program, LabelCounterMonitor())
        assert result.report() == {}

    def test_strict_monitors_eagerly(self):
        program = parse("let dead = {dead}: (1 + 1) in 5")
        result = run_monitored(strict, program, LabelCounterMonitor())
        assert result.report() == {"dead": 1}


class TestDemandOrder:
    def test_argument_forced_at_use_not_call(self):
        events = []
        from repro.monitoring.spec import FunctionSpec
        from repro.syntax.annotations import Label

        spy = FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, st: (events.append(ann.name), st)[1],
        )
        program = parse(
            "(lambda x. {body}: 1 + x) ({arg}: 2)"
        )
        run_monitored(lazy, program, spy)
        # Under call-by-need the body is entered before the argument is
        # forced; under call-by-value it would be the other way around.
        assert events == ["body", "arg"]

    def test_deep_lazy_recursion(self):
        source = "letrec f = lambda n. if n = 0 then 0 else f (n - 1) in f 50000"
        assert run(source) == 0

    def test_if_forces_condition_only(self):
        assert run("if true then 1 else hd []") == 1
