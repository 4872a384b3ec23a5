"""Property tests for L_imp: random programs through the reference interpreter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.languages.imperative import (
    AnnotatedCmd,
    Assign,
    Emit,
    IfC,
    Seq,
    Skip,
    While,
    binop,
    const,
    imperative,
    var,
)
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor
from repro.runtime import RunConfig
from repro.syntax.annotations import Label

#: A small fixed variable universe; programs initialize before use.
VARIABLES = ("a", "b", "c")


@st.composite
def int_expr(draw, depth: int = 2):
    if depth <= 0:
        if draw(st.booleans()):
            return const(draw(st.integers(-9, 9)))
        return var(draw(st.sampled_from(VARIABLES)))
    op = draw(st.sampled_from(["+", "-", "*", "min", "max"]))
    left = draw(int_expr(depth - 1))
    right = draw(int_expr(depth - 1))
    if op in ("min", "max"):
        from repro.syntax.ast import App, Var as EVar

        return App(App(EVar(op), left), right)
    return binop(op, left, right)


@st.composite
def bool_expr(draw):
    op = draw(st.sampled_from(["<", "<=", "=", ">", ">="]))
    return binop(op, draw(int_expr(1)), draw(int_expr(1)))


@st.composite
def command(draw, depth: int = 3):
    if depth <= 0:
        kind = draw(st.sampled_from(["assign", "skip", "emit"]))
    else:
        kind = draw(
            st.sampled_from(["assign", "skip", "emit", "seq", "if", "while", "annot"])
        )
    if kind == "assign":
        return Assign(draw(st.sampled_from(VARIABLES)), draw(int_expr(2)))
    if kind == "skip":
        return Skip()
    if kind == "emit":
        return Emit(draw(int_expr(1)))
    if kind == "seq":
        return Seq(draw(command(depth - 1)), draw(command(depth - 1)))
    if kind == "if":
        return IfC(
            draw(bool_expr()), draw(command(depth - 1)), draw(command(depth - 1))
        )
    if kind == "while":
        # A guaranteed-terminating counted loop.  The counter lives
        # outside the random body's variable universe (bodies only assign
        # a/b/c), and nesting depth gives nested loops distinct counters.
        counter = f"k{depth}"
        bound = draw(st.integers(0, 4))
        body = Seq(
            draw(command(depth - 1)),
            Assign(counter, binop("+", var(counter), const(1))),
        )
        return Seq(
            Assign(counter, const(0)),
            While(binop("<", var(counter), const(bound)), body),
        )
    if kind == "annot":
        label = draw(st.sampled_from(["p", "q"]))
        return AnnotatedCmd(Label(label), draw(command(depth - 1)))
    raise AssertionError(kind)


@st.composite
def closed_imp_program(draw):
    # Initialize every variable so expressions never hit unbound names.
    init = Seq(
        Assign("a", const(draw(st.integers(-5, 5)))),
        Seq(
            Assign("b", const(draw(st.integers(-5, 5)))),
            Assign("c", const(draw(st.integers(-5, 5)))),
        ),
    )
    return Seq(init, draw(command(3)))


@settings(max_examples=60, deadline=None)
@given(closed_imp_program())
def test_imp_monitoring_soundness(program):
    plain = imperative.run_to_store(program, max_steps=1_000_000)
    monitored = run_monitored(
        imperative,
        program,
        LabelCounterMonitor(),
        config=RunConfig(max_steps=1_000_000),
    )
    assert monitored.answer == plain


@settings(max_examples=80, deadline=None)
@given(closed_imp_program())
def test_imp_pretty_parse_roundtrip(program):
    from repro.languages.imp_syntax import parse_imp, pretty_imp
    from repro.languages.imperative import normalize_seq

    # ';' is associative: round-tripping preserves the program up to
    # sequence re-association.
    assert normalize_seq(parse_imp(pretty_imp(program))) == normalize_seq(program)
