"""Cross-cutting property tests (hypothesis).

These strengthen the per-module suites with whole-pipeline invariants:

* parse/pretty round-trips on generated programs;
* all three execution paths (tree interpreter, literal denotational
  semantics, residual Python program) agree on answers;
* the monitored paths additionally agree on final monitor states;
* the nested-pair cascade answer (Section 6) is well-shaped;
* composition order never changes answers.
"""

from hypothesis import given, settings

from repro.languages import strict
from repro.monitoring.compose import nested_answer
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor, TracerMonitor
from repro.partial_eval.codegen import generate_program
from repro.runtime import RunConfig
from repro.semantics.denotational import run_denotational
from repro.syntax.parser import parse
from repro.syntax.pretty import pretty

from tests.generators import closed_program

MAX_STEPS = 2_000_000


@settings(max_examples=100, deadline=None)
@given(closed_program())
def test_parse_pretty_roundtrip(program):
    assert parse(pretty(program)) == program


@settings(max_examples=80, deadline=None)
@given(closed_program())
def test_all_execution_paths_agree(program):
    interpreter_answer = strict.evaluate(program, max_steps=MAX_STEPS)
    # The literal denotational semantics recurses on the host stack for the
    # *entire* CPS computation; CPython 3.11 heap-allocates Python frames,
    # so a large limit is safe for generated (exponential) programs.
    denotational_answer, _ = run_denotational(program, recursion_limit=800_000)
    residual_answer = generate_program(program).evaluate()
    assert interpreter_answer == denotational_answer
    assert interpreter_answer == residual_answer


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_monitored_paths_agree_on_states(program):
    monitor = LabelCounterMonitor()
    interp = run_monitored(
        strict, program, LabelCounterMonitor(), config=RunConfig(max_steps=MAX_STEPS)
    )
    generated = generate_program(program, LabelCounterMonitor())
    _, generated_states = generated.run()
    assert generated_states.get(monitor.key) == interp.state_of(monitor.key)


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_denotational_monitored_agrees(program):
    monitor = LabelCounterMonitor()
    den_answer, den_state = run_denotational(program, monitor, recursion_limit=800_000)
    machine = run_monitored(
        strict, program, LabelCounterMonitor(), config=RunConfig(max_steps=MAX_STEPS)
    )
    assert den_answer == machine.answer
    assert den_state == machine.state_of(monitor.key)


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_composition_order_irrelevant_for_answers(program):
    forward = run_monitored(
        strict,
        program,
        [LabelCounterMonitor(), TracerMonitor()],
        config=RunConfig(max_steps=MAX_STEPS),
    )
    backward = run_monitored(
        strict,
        program,
        [TracerMonitor(), LabelCounterMonitor()],
        config=RunConfig(max_steps=MAX_STEPS),
    )
    assert forward.answer == backward.answer
    assert forward.report("count") == backward.report("count")
    assert forward.report("trace") == backward.report("trace")


@settings(max_examples=40, deadline=None)
@given(closed_program())
def test_nested_answer_shape(program):
    result = run_monitored(
        strict,
        program,
        [LabelCounterMonitor(), TracerMonitor()],
        config=RunConfig(max_steps=MAX_STEPS),
    )
    nested = nested_answer(result)
    # ((answer x MS_count) x MS_trace) — Section 6's answer domain.
    assert isinstance(nested, tuple) and len(nested) == 2
    inner, trace_state = nested
    assert isinstance(inner, tuple) and len(inner) == 2
    assert inner[0] == result.answer
    assert inner[1] == result.state_of("count")
    assert trace_state == result.state_of("trace")


@settings(max_examples=40, deadline=None)
@given(closed_program())
def test_annotation_erasure_equals_oblivious_run(program):
    """Definition 7.1: running s_bar standardly equals running s."""
    from repro.syntax.ast import strip_annotations

    annotated_run = strict.evaluate(program, max_steps=MAX_STEPS)
    erased_run = strict.evaluate(strip_annotations(program), max_steps=MAX_STEPS)
    assert annotated_run == erased_run
