"""Tests for the ``L_imp`` imperative language module."""

import pytest

from repro.errors import EvalError, StepLimitExceeded, UnboundIdentifierError
from repro.languages.imperative import (
    AnnotatedCmd,
    Assign,
    Emit,
    IfC,
    Local,
    Seq,
    Skip,
    Store,
    While,
    binop,
    const,
    imperative,
    seq,
    var,
)
from repro.monitoring.derive import run_monitored
from repro.monitoring.spec import FunctionSpec, MonitorSpec
from repro.runtime import RunConfig
from repro.syntax.annotations import Label
from repro.syntax.ast import Annotated


class TestStore:
    def test_update_is_persistent(self):
        s0 = Store({"x": 1})
        s1 = s0.update("x", 2)
        assert s0.lookup("x") == 1
        assert s1.lookup("x") == 2

    def test_lookup_missing(self):
        with pytest.raises(UnboundIdentifierError):
            Store().lookup("x")

    def test_drop(self):
        s = Store({"x": 1}).drop("x")
        assert "x" not in s

    def test_equality(self):
        assert Store({"x": 1}) == Store({"x": 1})
        assert Store({"x": 1}) != Store({"x": 2})


class TestCommands:
    def test_skip(self):
        bindings, output = imperative.evaluate(Skip())
        assert bindings == {}
        assert output == ()

    def test_assign(self):
        bindings, _ = imperative.evaluate(Assign("x", const(5)))
        assert bindings == {"x": 5}

    def test_seq_order(self):
        program = seq(Assign("x", const(1)), Assign("x", binop("+", var("x"), const(1))))
        bindings, _ = imperative.evaluate(program)
        assert bindings == {"x": 2}

    def test_if_command(self):
        program = seq(
            Assign("x", const(3)),
            IfC(binop("<", var("x"), const(5)), Assign("y", const(1)), Assign("y", const(2))),
        )
        bindings, _ = imperative.evaluate(program)
        assert bindings["y"] == 1

    def test_while_loop(self):
        program = seq(
            Assign("i", const(0)),
            Assign("sum", const(0)),
            While(
                binop("<", var("i"), const(10)),
                seq(
                    Assign("sum", binop("+", var("sum"), var("i"))),
                    Assign("i", binop("+", var("i"), const(1))),
                ),
            ),
        )
        bindings, _ = imperative.evaluate(program)
        assert bindings["sum"] == 45

    def test_while_zero_iterations(self):
        program = While(binop("<", const(1), const(0)), Assign("x", const(1)))
        bindings, _ = imperative.evaluate(program)
        assert "x" not in bindings

    def test_emit(self):
        program = seq(Emit(const(1)), Emit(const(2)))
        _, output = imperative.evaluate(program)
        assert output == (1, 2)

    def test_local_scoping(self):
        program = seq(
            Assign("x", const(1)),
            Local("x", const(99), Emit(var("x"))),
            Emit(var("x")),
        )
        bindings, output = imperative.evaluate(program)
        assert output == (99, 1)
        assert bindings["x"] == 1

    def test_local_fresh_variable_dropped(self):
        program = Local("tmp", const(1), Skip())
        bindings, _ = imperative.evaluate(program)
        assert "tmp" not in bindings

    def test_divergent_while_detected(self):
        program = While(const(True), Skip())
        with pytest.raises(StepLimitExceeded):
            imperative.evaluate(program, config=RunConfig(max_steps=10_000))

    def test_non_boolean_condition(self):
        with pytest.raises(EvalError):
            imperative.evaluate(IfC(const(1), Skip(), Skip()))

    def test_expressions_cannot_apply_closures(self):
        # L_imp expressions only apply primitives.
        from repro.syntax.ast import App, Lam, Var as EVar, Const as EConst

        program = Assign("x", App(Lam("y", EVar("y")), EConst(1)))
        with pytest.raises(EvalError):
            imperative.evaluate(program)


class TestMonitoring:
    def test_annotated_command_post_sees_updated_store(self):
        observed = []

        spy = FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            post=lambda ann, term, ctx, result, st: (
                observed.append(result.lookup("x")),
                st,
            )[1],
        )
        program = AnnotatedCmd(Label("a"), Assign("x", const(7)))
        run_monitored(imperative, program, spy)
        assert observed == [7]

    def test_annotated_command_pre_sees_old_store(self):
        observed = []
        spy = FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, st: (
                observed.append(ctx.lookup("x") if "x" in ctx else None),
                st,
            )[1],
        )
        program = seq(
            Assign("x", const(1)),
            AnnotatedCmd(Label("a"), Assign("x", const(2))),
        )
        run_monitored(imperative, program, spy)
        assert observed == [1]

    def test_annotated_expression_inside_command(self):
        counter = FunctionSpec(
            key="count",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: 0,
            pre=lambda ann, term, ctx, st: st + 1,
        )
        program = seq(
            Assign("i", const(0)),
            While(
                binop("<", var("i"), const(3)),
                Assign("i", Annotated(Label("tick"), binop("+", var("i"), const(1)))),
            ),
        )
        result = run_monitored(imperative, program, counter)
        assert result.report() == 3

    def test_while_loop_monitored_per_iteration(self):
        counter = FunctionSpec(
            key="count",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: 0,
            pre=lambda ann, term, ctx, st: st + 1,
        )
        program = seq(
            Assign("i", const(0)),
            While(
                binop("<", var("i"), const(4)),
                AnnotatedCmd(
                    Label("body"), Assign("i", binop("+", var("i"), const(1)))
                ),
            ),
        )
        result = run_monitored(imperative, program, counter)
        assert result.report() == 4
        assert result.answer[0]["i"] == 4


class TestNormalizeSeq:
    def test_reassociation(self):
        from repro.languages.imperative import normalize_seq

        a, b, c = Assign("a", const(1)), Assign("b", const(2)), Assign("c", const(3))
        left = Seq(Seq(a, b), c)
        right = Seq(a, Seq(b, c))
        assert normalize_seq(left) == normalize_seq(right)

    def test_recurses_into_structures(self):
        from repro.languages.imperative import normalize_seq

        a, b, c = Assign("a", const(1)), Assign("b", const(2)), Assign("c", const(3))
        loop_left = While(const(False), Seq(Seq(a, b), c))
        loop_right = While(const(False), Seq(a, Seq(b, c)))
        assert normalize_seq(loop_left) == normalize_seq(loop_right)

    def test_semantics_preserved(self):
        from repro.languages.imperative import normalize_seq

        program = Seq(
            Seq(Assign("x", const(1)), Assign("y", binop("+", var("x"), const(1)))),
            Emit(var("y")),
        )
        assert imperative.evaluate(normalize_seq(program)) == imperative.evaluate(
            program
        )


class TestHelpers:
    def test_seq_empty_is_skip(self):
        assert isinstance(seq(), Skip)

    def test_seq_single(self):
        command = Assign("x", const(1))
        assert seq(command) is command

    def test_walk_covers_expressions(self):
        program = seq(Assign("x", binop("+", const(1), const(2))), Emit(var("x")))
        names = [type(node).__name__ for node in program.walk()]
        assert "Assign" in names
        assert "App" in names
        assert "Emit" in names
