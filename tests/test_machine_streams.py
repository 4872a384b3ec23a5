"""Direct unit tests for the generic machine and the stream algebra."""

import pytest

from repro.languages import strict
from repro.monitors.streams import Stream, init_stream
from repro.semantics.answers import (
    BASIC_ANSWERS,
    STANDARD_ANSWERS,
    AnswerAlgebra,
    monitoring_answers,
    string_answers,
)
from repro.semantics.machine import final_kont, fix, run_machine
from repro.semantics.trampoline import Done, trampoline
from repro.syntax.parser import parse


class TestFix:
    def test_knot_sees_final_definition(self):
        """The recur handle must re-enter the *derived* semantics."""
        calls = []

        def base(recur):
            def step(n):
                calls.append(("base", n))
                if n == 0:
                    return Done("done")
                return recur(n - 1)

            return step

        def derived(recur):
            base_step = base(recur)

            def step(n):
                calls.append(("derived", n))
                return base_step(n)

            return step

        run = fix(derived)
        assert trampoline(run(2)) == "done"
        # Every level went through the derived layer, not just the first.
        assert calls.count(("derived", 2)) == 1
        assert calls.count(("derived", 1)) == 1
        assert calls.count(("derived", 0)) == 1

    def test_fix_of_standard_evaluates(self):
        from repro.semantics.machine import run_machine

        answer, ms = run_machine(strict, parse("2 + 2"))
        assert answer == 4
        assert ms is None


class TestRunMachine:
    def test_custom_functional(self):
        # A "semantics" that doubles every constant, showing the machine
        # is agnostic to what functional it runs.
        from repro.semantics.standard import standard_functional
        from repro.semantics.trampoline import Bounce
        from repro.syntax.ast import Const

        def doubling(recur):
            base = standard_functional(recur)

            def eval_(expr, env, kont, ms):
                if type(expr) is Const and isinstance(expr.value, int):
                    return Bounce(kont, (expr.value * 2, ms))
                return base(expr, env, kont, ms)

            return eval_

        answer, _ = run_machine(strict, parse("3 + 4"), functional=doubling)
        assert answer == 14

    def test_answers_parameter(self):
        answer, _ = run_machine(strict, parse("3 * 3"), answers=string_answers())
        assert answer == "The result is: 9"

    def test_final_kont_applies_phi(self):
        kont = final_kont(AnswerAlgebra("neg", lambda v: -v))
        step = kont(5, "sigma")
        assert isinstance(step, Done)
        assert step.payload == (-5, "sigma")


class TestAnswerAlgebras:
    def test_monitoring_answers_wraps(self):
        lifted = monitoring_answers(STANDARD_ANSWERS)
        computation = lifted.phi(42)
        assert computation("sigma") == (42, "sigma")
        assert "monitoring" in lifted.name

    def test_basic_answers_projection(self):
        assert BASIC_ANSWERS.phi(7) == 7

    def test_repr(self):
        assert "standard" in repr(STANDARD_ANSWERS)


class TestStream:
    def test_empty(self):
        stream = init_stream()
        assert len(stream) == 0
        assert stream.render() == ""
        assert stream.lines() == []

    def test_add_is_persistent(self):
        base = init_stream().add("a")
        extended = base.add("b")
        assert base.render() == "a"
        assert extended.render() == "ab"

    def test_chunks_in_order(self):
        stream = init_stream().add("1").add("2").add("3")
        assert stream.chunks() == ["1", "2", "3"]
        assert list(stream) == ["1", "2", "3"]

    def test_lines(self):
        stream = init_stream().add("a\n").add("b\n")
        assert stream.lines() == ["a", "b"]

    def test_shared_structure(self):
        # 1000 appends are O(n) total, not O(n^2): structure is shared.
        stream = init_stream()
        for index in range(1000):
            stream = stream.add(str(index))
        assert len(stream) == 1000
        assert stream.chunks()[0] == "0"

    def test_repr(self):
        assert "2 chunks" in repr(init_stream().add("a").add("b"))

    def test_truthiness(self):
        empty = init_stream()
        assert not empty
        assert bool(empty.add("a"))
        assert bool(empty.add(""))  # an added chunk counts, even if empty
        assert not empty  # adding never mutates

    def test_len_without_a_length_slot(self):
        assert Stream.__slots__ == ("_text", "_rest")
        stream = init_stream().add("a").add("b").add("c")
        assert len(stream) == 3
        assert len(stream.add("d")) == 4
        assert len(stream) == 3
