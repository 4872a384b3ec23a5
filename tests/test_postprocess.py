"""Tests for the residual-program simplifier."""

import pytest
from hypothesis import given, settings

from repro.errors import EvalError
from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import ProfilerMonitor
from repro.partial_eval.online import specialize
from repro.partial_eval.postprocess import simplify, specialize_and_simplify
from repro.runtime import RunConfig
from repro.syntax.ast import Annotated, Const, If, Let, Letrec, node_count
from repro.syntax.parser import parse
from repro.syntax.pretty import pretty

from tests.generators import closed_program


class TestFolding:
    def test_constant_arithmetic(self):
        assert simplify(parse("1 + 2 * 3")) == Const(7)

    def test_folding_that_would_raise_is_kept(self):
        expr = parse("1 / 0")
        assert simplify(expr) == expr

    def test_if_constant_condition(self):
        assert simplify(parse("if true then 1 else oops")) == Const(1)
        assert simplify(parse("if false then oops else 2")) == Const(2)

    def test_if_dynamic_condition_kept(self):
        expr = parse("if b then 1 else 2")
        assert simplify(expr) == expr

    def test_cascaded_folding(self):
        assert simplify(parse("if 1 < 2 then 10 + 10 else 0")) == Const(20)


class TestLets:
    def test_atom_let_inlined(self):
        assert simplify(parse("let x = 5 in x + x")) == Const(10)

    def test_variable_let_inlined_when_used(self):
        assert simplify(parse("let a = y in a + 1")) == parse("y + 1")

    def test_dead_value_let_dropped(self):
        assert simplify(parse("let f = lambda x. x in 7")) == Const(7)

    def test_dead_effectful_let_kept(self):
        expr = parse("let d = hd [] in 7")
        assert simplify(expr) == expr

    def test_dead_unbound_variable_let_kept(self):
        expr = Let("d", parse("zz"), Const(7))
        assert simplify(expr) == expr

    def test_administrative_beta(self):
        assert simplify(parse("(lambda x. x + 1) 41")) == Const(42)

    def test_beta_on_unused_var_argument_kept(self):
        expr = parse("(lambda x. 7) zz")
        assert simplify(expr) == expr


class TestLetrec:
    def test_unused_binding_dropped(self):
        expr = parse(
            "letrec used = lambda x. used x and unused = lambda y. y in used"
        )
        simplified = simplify(expr)
        assert isinstance(simplified, Letrec)
        assert [name for name, _ in simplified.bindings] == ["used"]

    def test_transitively_used_bindings_kept(self):
        expr = parse(
            "letrec a = lambda x. b x and b = lambda y. a y and c = lambda z. z "
            "in a"
        )
        simplified = simplify(expr)
        assert {name for name, _ in simplified.bindings} == {"a", "b"}

    def test_fully_unused_letrec_removed(self):
        expr = parse("letrec f = lambda x. f x in 42")
        assert simplify(expr) == Const(42)


class TestAnnotations:
    def test_annotations_never_removed(self):
        expr = parse("{p}: (1 + 2)")
        simplified = simplify(expr)
        assert isinstance(simplified, Annotated)
        assert simplified == Annotated(expr.annotation, Const(3))

    def test_monitoring_preserved_through_simplification(self):
        program = parse(
            "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 3"
        )
        simplified = simplify(program)
        original = run_monitored(strict, program, ProfilerMonitor())
        after = run_monitored(strict, simplified, ProfilerMonitor())
        assert original.answer == after.answer
        assert original.report() == after.report()


class TestPipeline:
    def test_specialize_and_simplify(self):
        program = parse(
            "letrec pow = lambda n. lambda x. "
            "if n = 0 then 1 else x * (pow (n - 1) x) in pow 3 (y + 0)"
        )
        raw = specialize(program).residual
        cleaned = specialize_and_simplify(program).residual
        # The shared work stays let-bound (it is used three times and is
        # not atomic); the simplifier must not duplicate it.
        assert node_count(cleaned) <= node_count(raw)
        assert pretty(cleaned) == "let x_0 = y + 0 in x_0 * (x_0 * (x_0 * 1))"

    def test_cleans_administrative_chains(self):
        expr = parse("let a = 1 in let b = a in let f = lambda q. q in b + b")
        assert simplify(expr) == Const(2)

    def test_size_never_grows(self):
        for source in ("1 + 2", "let x = 1 in x", "if a then 1 + 1 else 2 * 2"):
            expr = parse(source)
            assert node_count(simplify(expr)) <= node_count(expr)


@settings(max_examples=100, deadline=None)
@given(closed_program())
def test_simplify_preserves_answers(program):
    simplified = simplify(program)
    original = strict.evaluate(program, max_steps=2_000_000)
    after = strict.evaluate(simplified, max_steps=2_000_000)
    assert original == after


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_simplify_preserves_monitoring(program):
    from repro.monitors import LabelCounterMonitor

    simplified = simplify(program)
    original = run_monitored(
        strict, program, LabelCounterMonitor(), config=RunConfig(max_steps=2_000_000)
    )
    after = run_monitored(
        strict, simplified, LabelCounterMonitor(), config=RunConfig(max_steps=2_000_000)
    )
    assert original.answer == after.answer
    assert original.report() == after.report()
