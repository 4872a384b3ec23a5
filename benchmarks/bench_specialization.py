"""T-SPEC: the Section 9.1 specialization results.

Paper (prose "table", Section 9.1):

* the tracer (monitored interpreter) is about **11% slower** than the
  standard interpreter;
* the instrumented *program* (level-2 specialization) is about **85%
  faster** than the monitored interpreter and about **83% faster** than
  the standard interpreter.

The three systems measured here:

=====================  =======================================================
row                    what runs
=====================  =======================================================
standard interpreter   ``fix(standard_functional)`` over the plain program
monitored interpreter  ``fix(derive(standard_functional, tracer))`` over the
                       annotated program (level-1 specialization)
residual program       generated Python instrumented program (level 2)
=====================  =======================================================

Absolute times differ from the paper's Scheme/Schism setup; the *shape* —
monitored interpretation costs a modest constant factor, the specialized
program wins by a large factor over both interpreters — is the
reproduction target.  ``benchmarks/report.py`` prints the paper-style
percentage rows from these measurements.
"""

import pytest

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import TracerMonitor
from repro.partial_eval.codegen import generate_program

from benchmarks.workloads import plain_fib, traced_fib

FIB_N = 15


@pytest.fixture(scope="module")
def plain_program():
    return plain_fib(FIB_N)


@pytest.fixture(scope="module")
def traced_program():
    return traced_fib(FIB_N)


def test_standard_interpreter(benchmark, plain_program):
    result = benchmark(lambda: strict.evaluate(plain_program))
    assert result == 610


def test_monitored_interpreter_tracer(benchmark, traced_program):
    result = benchmark(
        lambda: run_monitored(strict, traced_program, TracerMonitor()).answer
    )
    assert result == 610


def test_standard_interpreter_on_annotated_program(benchmark, traced_program):
    # Obliviousness in action: the standard semantics runs the annotated
    # program; the gap against test_standard_interpreter is the pure cost
    # of skipping annotations.
    result = benchmark(lambda: strict.evaluate(traced_program))
    assert result == 610


def test_residual_standard_program(benchmark, plain_program):
    generated = generate_program(plain_program)
    result = benchmark(generated.evaluate)
    assert result == 610


def test_residual_instrumented_program(benchmark, traced_program):
    generated = generate_program(traced_program, TracerMonitor())
    result = benchmark(lambda: generated.run()[0])
    assert result == 610
