"""Codegen's step tallies, one collapse rule at a time.

A metrics-on codegen run executes the collapsed residual program and
charges each straight-line region's node count into the run's step cell
on entry; every collapse rule must charge the nodes it folds away.  The
engine-parity property finds a miscount but only shrinks a program;
each case here names the rule it pins.

The same count is the unit of ``max_steps`` on both engines: a run
completes if and only if its ``RunMetrics.steps`` is at most the budget.
"""

import pytest

from repro.errors import StepLimitExceeded
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor
from repro.observability import RunMetrics
from repro.runtime import RunConfig
from repro.syntax.parser import parse

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 4"

#: rule -> (program, optimize)
CASES = {
    "unary-primitive": ("neg (3 - 5)", "none"),
    "unary-primitive-literal": ("not true", "none"),
    "binary-primitive-literals": ("1 + 2", "none"),
    "binary-primitive-variables": ("(lambda x. x * x) 7", "none"),
    "binary-primitive-not-inlined": ("length (cons 1 nil)", "none"),
    "known-function-call": ("letrec f = lambda n. n + 1 in f 2", "none"),
    "curried-known-call": (
        "letrec g = lambda a. lambda b. a - b in g 5 3",
        "none",
    ),
    "general-application": (
        "let f = lambda x. x in (if true then f else abs) 3",
        "none",
    ),
    "let-alias": ("let x = 4 in let y = x in y + x", "none"),
    "letrec": (
        "letrec even = lambda n. if n = 0 then true else odd (n - 1) "
        "and odd = lambda n. if n = 0 then false else even (n - 1) in even 5",
        "none",
    ),
    "unclaimed-annotation": ("{f(x)}: 1 + 2", "none"),
    "claimed-identity-post": ("{p}: 1 + 2", "none"),
    "flow-erased-site": ("if false then {p}: 1 else {q}: 2", "flow"),
    "if-both-ways-through-recursion": (FAC, "none"),
}

FIB_12 = "letrec f = lambda n. if n < 2 then n else f (n - 1) + f (n - 2) in f 12"

ENGINES = ("reference", "codegen")


def _run(program, engine, optimize, max_steps=None, metrics=None):
    metrics = RunMetrics() if metrics is None else metrics
    result = run_monitored(
        strict,
        parse(program),
        [LabelCounterMonitor()],
        config=RunConfig(
            engine=engine, optimize=optimize, metrics=metrics, max_steps=max_steps
        ),
    )
    return result, metrics


@pytest.mark.parametrize("rule", sorted(CASES))
def test_tallies_match_the_reference(rule):
    program, optimize = CASES[rule]
    reference, expected = _run(program, "reference", optimize)
    tallied, metrics = _run(program, "codegen", optimize)
    assert tallied.answer == reference.answer
    assert metrics == expected, rule


BUDGET_CASES = {**CASES, "fib-12": (FIB_12, "none")}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("rule", sorted(BUDGET_CASES))
def test_budget_is_the_step_count(rule, engine):
    """``max_steps = S`` answers and ``S - 1`` raises, on both engines,
    where ``S`` is the reference engine's ``RunMetrics.steps``."""
    program, optimize = BUDGET_CASES[rule]
    reference, expected = _run(program, "reference", optimize)
    steps = expected.steps
    result, _ = _run(program, engine, optimize, max_steps=steps)
    assert result.answer == reference.answer
    with pytest.raises(StepLimitExceeded) as exc:
        _run(program, engine, optimize, max_steps=steps - 1)
    assert exc.value.limit == steps - 1


@pytest.mark.parametrize("engine", ENGINES)
def test_budget_stops_an_unbounded_loop(engine):
    loop = "letrec loop = lambda n. loop (n + 1) in loop 0"
    with pytest.raises(StepLimitExceeded) as exc:
        _run(loop, engine, "none", max_steps=500)
    assert exc.value.limit == 500


@pytest.mark.parametrize("engine", ENGINES)
def test_budget_counts_this_run_only(engine):
    """Steps an accumulator already holds do not shrink the budget."""
    _, expected = _run(FIB_12, "reference", "none")
    steps = expected.steps
    metrics = RunMetrics(steps=10**6)
    result, _ = _run(FIB_12, engine, "none", max_steps=steps, metrics=metrics)
    assert result.answer == 144
    assert metrics.steps == 10**6 + steps


def test_budget_restarts_on_the_reference_rerun():
    """A codegen run too deep for the host stack re-runs on the reference
    engine, whose count starts from zero, so ``max_steps = S`` answers."""
    deep = "letrec loop = lambda n. if n = 0 then 0 else loop (n - 1) in loop 120000"
    _, expected = _run(deep, "reference", "none")
    result, metrics = _run(deep, "codegen", "none", max_steps=expected.steps)
    assert result.answer == 0
    assert metrics == expected
