"""Codegen's step tallies, one collapse rule at a time.

A metrics-on codegen run executes the collapsed residual program and
pays each straight-line region's node count in one ``_t(steps,
applications)`` call; every collapse rule must charge the nodes it folds
away.  The engine-parity property finds a miscount but only shrinks a
program; each case here names the rule it pins.
"""

import pytest

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


def _run(program, engine, optimize):
    metrics = RunMetrics()
    result = run_monitored(
        strict,
        parse(program),
        [LabelCounterMonitor()],
        config=RunConfig(engine=engine, optimize=optimize, metrics=metrics),
    )
    return result, metrics


@pytest.mark.parametrize("rule", sorted(CASES))
def test_tallies_match_the_reference(rule):
    program, optimize = CASES[rule]
    reference, expected = _run(program, "reference", optimize)
    tallied, metrics = _run(program, "codegen", optimize)
    assert tallied.answer == reference.answer
    assert metrics == expected, rule
