"""A-LANG: ablation — monitoring across language modules (Section 9.2).

The same profiler monitors a comparable workload under the strict,
lazy and imperative language modules, demonstrating (and pricing) the
claim that one derivation serves every continuation semantics.
"""

import pytest

from repro.languages import lazy, strict
from repro.languages.imperative import (
    AnnotatedCmd,
    Assign,
    While,
    binop,
    const,
    imperative,
    seq,
    var,
)
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor
from repro.syntax.annotations import Label
from repro.syntax.parser import parse

ITERATIONS = 2000

FUNCTIONAL_LOOP = parse(
    """
    letrec loop = lambda i. lambda acc.
        if i = 0 then acc else loop (i - 1) ({tick}: (acc + 1))
    in loop %d 0
    """
    % ITERATIONS
)

IMPERATIVE_LOOP = seq(
    Assign("i", const(ITERATIONS)),
    Assign("acc", const(0)),
    While(
        binop(">", var("i"), const(0)),
        seq(
            AnnotatedCmd(Label("tick"), Assign("acc", binop("+", var("acc"), const(1)))),
            Assign("i", binop("-", var("i"), const(1))),
        ),
    ),
)


@pytest.mark.parametrize("language", [strict, lazy], ids=lambda l: l.name)
def test_functional_languages_monitored(benchmark, language):
    result = benchmark(
        lambda: run_monitored(language, FUNCTIONAL_LOOP, LabelCounterMonitor())
    )
    assert result.answer == ITERATIONS
    assert result.report() == {"tick": ITERATIONS}


def test_imperative_language_monitored(benchmark):
    result = benchmark(
        lambda: run_monitored(imperative, IMPERATIVE_LOOP, LabelCounterMonitor())
    )
    bindings, _ = result.answer
    assert bindings["acc"] == ITERATIONS
    assert result.report() == {"tick": ITERATIONS}


@pytest.mark.parametrize("language", [strict, lazy], ids=lambda l: l.name)
def test_functional_languages_standard(benchmark, language):
    from repro.syntax.ast import strip_annotations

    program = strip_annotations(FUNCTIONAL_LOOP)
    result = benchmark(lambda: language.evaluate(program))
    assert result == ITERATIONS


def test_imperative_language_standard(benchmark):
    result = benchmark(lambda: imperative.evaluate(IMPERATIVE_LOOP))
    assert result[0]["acc"] == ITERATIONS


def test_exceptions_language_monitored(benchmark):
    from repro.languages.exceptions import exceptions_language, parse_exc

    program = parse_exc(
        """
        letrec loop = lambda i. lambda acc.
            if i = 0 then acc
            else loop (i - 1) (acc + (try {tick}: (raise 1) catch e. e))
        in loop %d 0
        """
        % ITERATIONS
    )
    result = benchmark(
        lambda: run_monitored(exceptions_language, program, LabelCounterMonitor())
    )
    assert result.answer == ITERATIONS
    assert result.report() == {"tick": ITERATIONS}
