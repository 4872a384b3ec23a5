"""Tests for the standard continuation semantics of ``L_lambda``."""

import pytest

from repro.errors import (
    EvalError,
    NotAFunctionError,
    StepLimitExceeded,
    UnboundIdentifierError,
)
from repro.languages import strict
from repro.runtime import RunConfig
from repro.semantics.answers import BASIC_ANSWERS, STANDARD_ANSWERS, string_answers
from repro.semantics.machine import run_machine
from repro.semantics.values import Closure, from_python_list
from repro.syntax.parser import parse


def run(source, **options):
    return strict.evaluate(parse(source), config=RunConfig(**options))


class TestCorpus:
    def test_corpus_program(self, corpus_case):
        program, expected = corpus_case
        assert strict.evaluate(program) == expected


class TestConstructs:
    def test_constant(self):
        assert run("7") == 7

    def test_lambda_returns_closure(self):
        result = run("lambda x. x")
        assert isinstance(result, Closure)

    def test_application_order_argument_first(self):
        # Figure 2 evaluates e2 before e1: if the argument raises, the
        # operator must never be evaluated.
        with pytest.raises(EvalError) as exc:
            run("(missing_function) (1 / 0)")
        assert "division" in str(exc.value)

    def test_letrec_recursion(self):
        assert run("letrec f = lambda n. if n = 0 then 0 else 2 + f (n - 1) in f 4") == 8

    def test_letrec_mutual(self):
        source = (
            "letrec even = lambda n. if n = 0 then true else odd (n - 1) "
            "and odd = lambda n. if n = 0 then false else even (n - 1) "
            "in odd 7"
        )
        assert run(source) is True

    def test_let_is_not_recursive(self):
        with pytest.raises(UnboundIdentifierError):
            run("let f = lambda n. f n in f 1")

    def test_shadowing_primitives(self):
        assert run("let hd = lambda x. 99 in hd [1]") == 99

    def test_closures_capture_lexically(self):
        source = (
            "let x = 1 in "
            "let f = lambda y. x + y in "
            "let x = 100 in f 10"
        )
        assert run(source) == 11


class TestErrors:
    def test_unbound_identifier(self):
        with pytest.raises(UnboundIdentifierError):
            run("nosuchvar")

    def test_apply_non_function(self):
        with pytest.raises(NotAFunctionError):
            run("3 4")

    def test_non_boolean_condition(self):
        with pytest.raises(EvalError):
            run("if 1 then 2 else 3")

    def test_error_inside_deep_call(self):
        with pytest.raises(EvalError):
            run("letrec f = lambda n. if n = 0 then 1 / 0 else f (n - 1) in f 50")


class TestDeepRecursion:
    def test_hundred_thousand_levels(self):
        source = "letrec f = lambda n. if n = 0 then 0 else f (n - 1) in f 100000"
        assert run(source) == 0

    def test_non_tail_recursion_also_deep(self):
        # Even non-tail recursion only uses continuation chain, not the
        # Python stack.
        source = "letrec f = lambda n. if n = 0 then 0 else 1 + f (n - 1) in f 50000"
        assert run(source) == 50000


class TestStepLimit:
    def test_divergent_program_detected(self):
        with pytest.raises(StepLimitExceeded):
            run("letrec loop = lambda x. loop x in loop 1", max_steps=10_000)

    def test_terminating_program_within_limit(self):
        assert run("1 + 1", max_steps=1000) == 2


class TestAnswerAlgebras:
    def test_standard_identity(self):
        assert run("[1, 2]") == from_python_list([1, 2])

    def test_basic_rejects_functions(self):
        with pytest.raises(EvalError):
            run("lambda x. x", answers=BASIC_ANSWERS)

    def test_basic_passes_values(self):
        assert run("41 + 1", answers=BASIC_ANSWERS) == 42

    def test_string_answers(self):
        assert run("6 * 7", answers=string_answers()) == "The result is: 42"

    def test_string_answers_custom_prefix(self):
        assert run("1", answers=string_answers("got ")) == "got 1"


class TestObliviousness:
    """Definition 7.1: the standard semantics disregards annotations."""

    def test_annotated_equals_plain(self, corpus_case):
        program, expected = corpus_case
        assert strict.evaluate(program) == expected

    def test_annotations_anywhere(self):
        assert run("{a}: ({b}: 1 + {c}: 2) * {d}: 3") == 9

    def test_monitor_state_threaded_untouched(self):
        answer, state = run_machine(strict, parse("{p}: (1 + 1)"), initial_ms="SIGMA")
        assert answer == 2
        assert state == "SIGMA"
