"""Tests for the monadic presentation (footnote 2)."""

from hypothesis import given, settings

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import CollectingMonitor, LabelCounterMonitor, ProfilerMonitor
from repro.runtime import RunConfig
from repro.semantics.monadic import (
    IDENTITY,
    STATE,
    run_identity,
    run_state,
    state_bind,
    state_unit,
)
from repro.syntax.parser import parse

from tests.generators import closed_program


class TestMonadLaws:
    """The state monad over MS satisfies the monad laws (on samples)."""

    def test_left_identity(self):
        fn = lambda v: state_unit(v * 2)
        assert state_bind(state_unit(21), fn)("s") == fn(21)("s")

    def test_right_identity(self):
        computation = state_unit(7)
        assert state_bind(computation, state_unit)("s") == computation("s")

    def test_associativity(self):
        f = lambda v: state_unit(v + 1)
        g = lambda v: state_unit(v * 2)
        m = state_unit(10)
        left = state_bind(state_bind(m, f), g)
        right = state_bind(m, lambda v: state_bind(f(v), g))
        assert left("s") == right("s")

    def test_unit_is_theta(self):
        # theta alpha = \sigma. (alpha, sigma) — Definition 4.1.
        assert state_unit(42)("sigma") == (42, "sigma")


class TestIdentityInterpreter:
    def test_corpus(self, corpus_case):
        program, expected = corpus_case
        assert run_identity(program) == expected


class TestStateInterpreter:
    def test_lemma_7_3_without_monitor(self, corpus_case):
        """The first projection of the lifted semantics is the standard answer."""
        program, expected = corpus_case
        answer, state = run_state(program)
        assert answer == expected
        assert state is None

    def test_profiler_agrees_with_machine(self, paper_profiler_program):
        monitor = ProfilerMonitor()
        answer, state = run_state(paper_profiler_program, monitor)
        machine = run_monitored(strict, paper_profiler_program, ProfilerMonitor())
        assert answer == machine.answer
        assert state == machine.state_of("profile")

    def test_collecting_agrees_with_machine(self, paper_collecting_program):
        monitor = CollectingMonitor()
        answer, state = run_state(paper_collecting_program, monitor)
        machine = run_monitored(strict, paper_collecting_program, CollectingMonitor())
        assert answer == machine.answer
        assert monitor.report(state) == machine.report()

    def test_unrecognized_annotations_transparent(self):
        program = parse("{f(x)}: ({p}: 2) * 3")
        answer, state = run_state(program, LabelCounterMonitor())
        assert answer == 6
        assert state == {"p": 1}


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_monadic_machine_agreement(program):
    """Identity-monad, state-monad and machine semantics all agree."""
    machine = run_monitored(
        strict, program, LabelCounterMonitor(), config=RunConfig(max_steps=2_000_000)
    )
    identity_answer = run_identity(program, recursion_limit=800_000)
    state_answer, state = run_state(
        program, LabelCounterMonitor(), recursion_limit=800_000
    )
    assert identity_answer == machine.answer
    assert state_answer == machine.answer
    assert state == machine.state_of("count")


def test_monad_records():
    assert IDENTITY.name == "identity"
    assert STATE.name == "state"
    assert IDENTITY.bind(IDENTITY.unit(1), lambda v: v + 1) == 2
