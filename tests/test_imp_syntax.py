"""Tests for the L_imp surface syntax."""

import pytest

from repro.errors import ParseError
from repro.languages.imp_syntax import parse_imp, pretty_imp
from repro.languages.imperative import (
    AnnotatedCmd,
    Assign,
    Emit,
    IfC,
    Local,
    Seq,
    Skip,
    While,
    imperative,
)
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor
from repro.syntax.annotations import Label


class TestParsing:
    def test_skip(self):
        assert parse_imp("skip") == Skip()

    def test_assignment(self):
        command = parse_imp("x := 1 + 2")
        assert isinstance(command, Assign)
        assert command.name == "x"

    def test_emit(self):
        assert isinstance(parse_imp("emit 42"), Emit)

    def test_sequence(self):
        command = parse_imp("x := 1; y := 2; z := 3")
        assert isinstance(command, Seq)

    def test_trailing_semicolon(self):
        assert isinstance(parse_imp("x := 1;"), Assign)

    def test_if(self):
        command = parse_imp("if x > 0 then y := 1 else y := 2")
        assert isinstance(command, IfC)

    def test_while_with_block(self):
        command = parse_imp(
            "while i > 0 do begin emit i; i := i - 1 end"
        )
        assert isinstance(command, While)
        assert isinstance(command.body, Seq)

    def test_local(self):
        command = parse_imp("local t = 5 in emit t")
        assert isinstance(command, Local)

    def test_annotated_command(self):
        command = parse_imp("{p}: x := 1")
        assert isinstance(command, AnnotatedCmd)
        assert command.annotation == Label("p")

    def test_nested_blocks(self):
        command = parse_imp(
            """
            i := 0;
            while i < 3 do begin
                if i = 1 then emit i else skip;
                i := i + 1
            end
            """
        )
        bindings, output = imperative.evaluate(command)
        assert bindings["i"] == 3
        assert output == (1,)

    def test_lambda_rejected_in_expressions(self):
        with pytest.raises(ParseError) as exc:
            parse_imp("x := (lambda y. y) 1")
        assert "L_imp" in str(exc.value)

    def test_let_rejected(self):
        with pytest.raises(ParseError):
            parse_imp("x := let a = 1 in a")

    def test_missing_assign_operator(self):
        with pytest.raises(ParseError):
            parse_imp("x = 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_imp("skip skip")

    def test_keywords_contextual(self):
        # `end` etc. are ordinary identifiers to the expression grammar.
        command = parse_imp("done := 1; emit done")
        bindings, output = imperative.evaluate(command)
        assert output == (1,)


class TestExecution:
    def test_sum_of_squares(self):
        program = parse_imp(
            """
            i := 1;
            total := 0;
            while i <= 5 do begin
                total := total + i * i;
                i := i + 1
            end
            """
        )
        bindings, _ = imperative.evaluate(program)
        assert bindings["total"] == 55

    def test_monitored_surface_program(self):
        program = parse_imp(
            """
            i := 3;
            while i > 0 do begin
                {tick}: i := i - 1
            end
            """
        )
        result = run_monitored(imperative, program, LabelCounterMonitor())
        assert result.report() == {"tick": 3}


class TestPretty:
    ROUNDTRIP = [
        "skip",
        "x := 1",
        "emit x + 1",
        "x := 1;\ny := 2",
        "{p}: x := 1",
    ]

    @pytest.mark.parametrize("source", ROUNDTRIP)
    def test_roundtrip_simple(self, source):
        command = parse_imp(source)
        assert parse_imp(pretty_imp(command)) == command

    def test_roundtrip_structured(self):
        source = """
        i := 10;
        total := 0;
        while i > 0 do begin
            {acc}: total := total + i;
            local t = total in emit t;
            i := i - 1
        end;
        if total > 50 then emit 1 else emit 0
        """
        command = parse_imp(source)
        assert parse_imp(pretty_imp(command)) == command

    def test_rendering_shape(self):
        text = pretty_imp(parse_imp("while a do begin skip; skip end"))
        assert text.startswith("while a do")
        assert "begin" in text and "end" in text
