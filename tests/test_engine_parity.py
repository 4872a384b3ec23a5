"""Differential parity: the codegen engine against the reference oracle.

The specializing code generator (:mod:`repro.partial_eval.codegen`, the
``codegen`` engine) is only admissible as an implementation of the
monitoring semantics if it is *observationally indistinguishable* from
the reference interpreter — same answers, same final monitor states, same
errors with the same messages.  These property tests run every
hypothesis-generated program through both engines and compare everything
observable: answers, reports, metrics counters, and fault behavior under
every fault policy.
"""

import pytest
from hypothesis import given, settings

from repro.errors import (
    EvalError,
    HostRecursionError,
    NotAFunctionError,
    ReproError,
    StepLimitExceeded,
    UnboundIdentifierError,
)
from repro.languages import lazy
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.spec import FunctionSpec
from repro.monitors import LabelCounterMonitor, TracerMonitor
from repro.partial_eval.codegen import generate_program
from repro.runtime import CompilationCache, RunConfig
from repro.semantics.values import is_function, value_to_string, values_equal
from repro.syntax.annotations import untag
from repro.syntax.parser import parse
from repro.toolbox.registry import evaluate

from tests.generators import closed_program

ENGINES = ("reference", "codegen")
FAST_ENGINES = ("codegen",)


def answers_match(reference, fast) -> bool:
    """Observational equality of answers across engines.

    Function values are compared by display (the engines use different
    closure representations); everything else by object-language equality.
    """
    if is_function(reference) or is_function(fast):
        return is_function(reference) and is_function(fast) and (
            value_to_string(reference) == value_to_string(fast)
        )
    return values_equal(reference, fast)


def run_all(program, monitors):
    """One run per engine (specs are stateless, so sharing them is safe)."""
    return {
        engine: run_monitored(
            strict, program, monitors, config=RunConfig(engine=engine)
        )
        for engine in ENGINES
    }


def run_both(program, monitors, engine="codegen"):
    ref = run_monitored(strict, program, monitors, config=RunConfig(engine="reference"))
    fast = run_monitored(strict, program, monitors, config=RunConfig(engine=engine))
    return ref, fast


def assert_monitor_states_match(ref, fast, monitors):
    for monitor in monitors:
        key = monitor.key
        if isinstance(monitor, TracerMonitor):
            ref_chan, ref_level = ref.state_of(key)
            fast_chan, fast_level = fast.state_of(key)
            assert ref_chan.render() == fast_chan.render()
            assert ref_level == fast_level
        else:
            assert ref.state_of(key) == fast.state_of(key)


# -- the headline differential properties (>= 200 random programs) ---------------


@settings(max_examples=120, deadline=None)
@given(closed_program())
def test_unmonitored_answers_agree(program):
    reference = strict.evaluate(program, config=RunConfig(max_steps=2_000_000))
    for engine in FAST_ENGINES:
        fast = strict.evaluate(
            program, config=RunConfig(max_steps=2_000_000, engine=engine)
        )
        assert answers_match(reference, fast), engine


@settings(max_examples=120, deadline=None)
@given(closed_program())
def test_monitored_answers_and_states_agree(program):
    """Answer AND final monitor states agree under a composed stack."""
    counter = LabelCounterMonitor()
    tracer = TracerMonitor()
    monitors = counter & tracer
    runs = run_all(program, monitors)
    ref = runs["reference"]
    for engine in FAST_ENGINES:
        fast = runs[engine]
        assert answers_match(ref.answer, fast.answer), engine
        assert_monitor_states_match(ref, fast, [counter, tracer])


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_single_monitor_states_agree(program):
    """The single-slot state-vector fast path is invisible to monitors."""
    counter = LabelCounterMonitor()
    runs = run_all(program, counter)
    ref = runs["reference"]
    for engine in FAST_ENGINES:
        fast = runs[engine]
        assert answers_match(ref.answer, fast.answer), engine
        assert ref.state_of("count") == fast.state_of("count"), engine


# -- error parity ---------------------------------------------------------------


def engine_errors(source, exc_type):
    """The exception each engine raises for ``source``, keyed by engine."""
    program = parse(source)
    out = {}
    for engine in ENGINES:
        with pytest.raises(exc_type) as exc:
            strict.evaluate(program, config=RunConfig(engine=engine))
        out[engine] = exc.value
    return out


def assert_error_parity(source, exc_type):
    errors = engine_errors(source, exc_type)
    ref = errors["reference"]
    for engine in FAST_ENGINES:
        assert str(ref) == str(errors[engine]), engine
    return errors


class TestErrorParity:
    def test_unbound_identifier(self):
        errors = assert_error_parity("nosuch", UnboundIdentifierError)
        assert errors["codegen"].name == "nosuch"

    def test_unbound_in_dead_branch_is_lazy(self):
        # Reference semantics only fault on the branch actually taken;
        # the compilers must not fault at compile time on dead code.
        program = parse("if true then 1 else nosuch")
        for engine in FAST_ENGINES:
            assert strict.evaluate(program, config=RunConfig(engine=engine)) == 1
        assert_error_parity("if false then 1 else nosuch", UnboundIdentifierError)

    def test_apply_non_function(self):
        assert_error_parity("3 4", NotAFunctionError)

    def test_apply_non_function_after_call(self):
        assert_error_parity("(lambda x. x) 3 4", NotAFunctionError)

    def test_non_boolean_condition(self):
        assert_error_parity("if 7 then 1 else 2", EvalError)

    def test_division_by_zero(self):
        assert_error_parity("10 / 0", EvalError)

    def test_head_of_empty_list(self):
        assert_error_parity("hd []", EvalError)


# -- resource semantics ---------------------------------------------------------


LOOP = (
    "letrec loop = lambda n. if n = 0 then 0 else loop (n - 1) "
    "in loop {n}"
)
FIB_12 = "letrec f = lambda n. if n < 2 then n else f (n - 1) + f (n - 2) in f 12"


class TestResourceParity:
    def test_codegen_runs_deep_recursion_on_the_reference_engine(self):
        # Past the host stack, codegen re-runs on the trampolined oracle.
        program = parse(LOOP.format(n=200_000))
        assert strict.evaluate(program, config=RunConfig(engine="codegen")) == 0

    def test_step_limit_enforced_on_codegen_engine(self):
        # Both engines count expression-node evaluations, so one budget
        # trips both on deep recursion.  The reference engine stops on the
        # first node past it; codegen on the region that crosses it.
        program = parse(LOOP.format(n=100_000))
        consumed = {}
        for engine in ENGINES:
            with pytest.raises(StepLimitExceeded) as exc:
                strict.evaluate(program, config=RunConfig(engine=engine, max_steps=500))
            assert exc.value.limit == 500
            consumed[engine] = exc.value.consumed
        assert consumed["reference"] == 501
        assert consumed["codegen"] > 500

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_generous_step_limit_does_not_trip(self, engine):
        program = parse(LOOP.format(n=50))
        config = RunConfig(engine=engine, max_steps=1_000_000)
        assert strict.evaluate(program, config=config) == 0


# -- one run path: every tool-less entry is run_monitored over [] ---------------


#: The tool-less entry points, each called with a language, a parsed
#: program and a config.  All of them are ``run_monitored`` over the empty
#: stack, so they pick the same engine and fall back the same way.
TOOLLESS_ENTRIES = {
    "language.evaluate": lambda language, program, config: language.evaluate(
        program, config=config
    ),
    "toolbox.evaluate": lambda language, program, config: evaluate(
        (), program, language=language, config=config
    ).answer,
    "toolbox.evaluate+cache": lambda language, program, config: evaluate(
        (), program, language=language, config=config, cache=CompilationCache()
    ).answer,
    "run_monitored": lambda language, program, config: run_monitored(
        language, program, [], config=config
    ).answer,
}

#: Past the 100k host recursion limit codegen runs under, so a codegen
#: run overflows and every entry re-runs it on the reference engine.
DEEP = LOOP.format(n=120_000)

#: ``case: (language, source, options, answer or error type)``.
TOOLLESS_CASES = {
    "answer": (strict, FIB_12, {}, 144),
    "max_steps": (
        strict, LOOP.format(n=100_000), {"max_steps": 500}, StepLimitExceeded
    ),
    "unbound": (strict, "1 + nosuch", {}, UnboundIdentifierError),
    "deep": (strict, DEEP, {}, 0),
    "lazy": (lazy, "(lambda x. 7) (hd [])", {}, 7),
}


def _outcome(thunk):
    """The answer, or the error's type and message."""
    try:
        return ("answer", thunk())
    except Exception as exc:
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize(
    "case, engine",
    [
        (case, engine)
        for case in sorted(TOOLLESS_CASES)
        for engine in ENGINES
        # The reference run of DEEP is what the codegen case falls back to.
        if (case, engine) != ("deep", "reference")
    ],
)
def test_toolless_entries_agree(case, engine):
    language, source, options, expected = TOOLLESS_CASES[case]
    program = parse(source)
    config = RunConfig(engine=engine, **options)
    outcomes = {
        name: _outcome(lambda: entry(language, program, config))
        for name, entry in TOOLLESS_ENTRIES.items()
    }
    assert len(set(outcomes.values())) == 1, outcomes
    outcome = outcomes["run_monitored"]
    if case == "lazy" and engine == "codegen":
        expected = ReproError  # outside the engine x language matrix
    if isinstance(expected, type):
        assert outcome[:2] == ("error", expected), outcome
    else:
        assert outcome == ("answer", expected)


def test_deep_case_overflows_the_codegen_engine():
    with pytest.raises(HostRecursionError):
        generate_program(parse(DEEP)).run()


# -- observing monitors through the codegen engine -------------------------------


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_observing_monitor_sees_inner_state(engine):
    """A cascade where the outer monitor reads the inner one's state."""
    watcher = FunctionSpec(
        key="watch",
        recognize=lambda a: untag(a, "watch"),
        initial=list,
        pre=lambda ann, term, ctx, state, inner: state + [dict(inner["count"])],
        observes=("count",),
    )
    program = parse("({p0}: 1) + ({watch: w}: ({p1}: ({p0}: 2)))")
    monitors = [LabelCounterMonitor(), watcher]
    ref, fast = run_both(program, monitors, engine=engine)
    assert ref.answer == fast.answer == 3
    assert ref.state_of("count") == fast.state_of("count")
    assert ref.state_of("watch") == fast.state_of("watch")
    # The watcher fired exactly once, snapshotting the counter's state.
    assert len(fast.state_of("watch")) == 1


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_tracer_output_identical_on_paper_example(paper_tracer_program, engine):
    tracer = TracerMonitor()
    ref, fast = run_both(paper_tracer_program, tracer, engine=engine)
    assert ref.answer == fast.answer == 6
    assert ref.report() == fast.report()


@pytest.mark.parametrize(
    "source",
    [
        "let a = 1 in letrec f = lambda n. {f}: (n + a) in f 1",
        # ``n`` shadowed by the parameter, the primitive ``max`` by a let.
        "let n = 0 in let max = 2 in letrec f = lambda n. {f}: (n + max) in f 1",
    ],
)
def test_hook_context_names_agree(source):
    """A hook's ``ctx.names()`` lists what the reference environment does:
    innermost first, each name once, then the unshadowed primitives and
    ``nil`` — so the debugger's ``vars`` line is engine-independent."""
    from repro.monitors.debugger import DebuggerMonitor
    from repro.syntax.annotations import Label

    seen = {}

    def spy(engine):
        return FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, state: seen.setdefault(engine, ctx.names()),
        )

    program = parse(source)
    vars_lines = {}
    for engine in ENGINES:
        run_monitored(strict, program, spy(engine), config=RunConfig(engine=engine))
        debugger = DebuggerMonitor(["vars"], breakpoints=["f"])
        vars_lines[engine] = run_monitored(
            strict, program, debugger, config=RunConfig(engine=engine)
        ).reports()
    assert seen["codegen"] == seen["reference"]
    assert vars_lines["codegen"] == vars_lines["reference"]


@pytest.mark.parametrize("engine", ENGINES)
def test_pre_and_post_share_one_context(engine):
    """One activation passes the same ``ctx`` object to ``pre`` and to
    ``post``, as the reference derivation does."""
    from repro.syntax.annotations import Label

    spec = FunctionSpec(
        key="ctx",
        recognize=lambda a: a if isinstance(a, Label) else None,
        initial=tuple,
        pre=lambda ann, term, ctx, state: state + (ctx,),
        post=lambda ann, term, ctx, result, state: state + (ctx is state[-1],),
    )
    program = parse("letrec f = lambda n. {f}: (n + 1) in f 1")
    states = run_monitored(strict, program, spec, config=RunConfig(engine=engine))
    assert states.state_of("ctx")[-1] is True


# -- fault isolation: parity extends to injected monitor failures ----------------


# -- telemetry: RunMetrics counters are engine-independent -----------------------


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("fault_policy", ["propagate", "quarantine", "log"])
@given(closed_program())
def test_metrics_parity(fault_policy, program):
    """Steps, applications, per-slot activations, hook calls, state
    transitions and fault counts agree across engines — under every fault
    policy.  A metrics-on codegen run executes the collapsed artifact
    with one tally per straight-line region, each adding the nodes the
    reference interpreter evaluates there, so for these completed runs
    RunMetrics (whose equality ignores wall-clock fields) must compare
    equal outright."""
    from repro.observability import RunMetrics

    monitors = lambda: LabelCounterMonitor() & TracerMonitor()
    collected = {}
    for engine in ENGINES:
        metrics = RunMetrics()
        result = run_monitored(
            strict,
            program,
            monitors(),
            config=RunConfig(
                engine=engine,
                fault_policy=fault_policy,
                metrics=metrics,
                max_steps=2_000_000,
            ),
        )
        collected[engine] = (result, metrics)
    ref, ref_metrics = collected["reference"]
    for engine in FAST_ENGINES:
        fast, fast_metrics = collected[engine]
        assert answers_match(ref.answer, fast.answer), engine
        assert ref_metrics == fast_metrics, engine


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("fault_policy", ["quarantine", "log"])
@given(closed_program())
def test_metrics_parity_under_injected_faults(fault_policy, program):
    """Fault counts come from the run's final fault records, so they
    agree across engines by construction — this asserts the whole metrics
    object anyway, catching any counter the fault paths might skew."""
    from repro.observability import RunMetrics

    from tests.fault_injection import flaky_counter

    collected = {}
    for engine in ENGINES:
        metrics = RunMetrics()
        result = run_monitored(
            strict,
            program,
            flaky_counter(1),
            config=RunConfig(
                engine=engine,
                fault_policy=fault_policy,
                metrics=metrics,
                max_steps=2_000_000,
            ),
        )
        collected[engine] = (result, metrics)
    ref, ref_metrics = collected["reference"]
    for engine in FAST_ENGINES:
        fast, fast_metrics = collected[engine]
        assert answers_match(ref.answer, fast.answer), engine
        assert ref.faults == fast.faults, engine
        assert ref_metrics == fast_metrics, engine


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_quarantined_fault_parity(program):
    """Answers, surviving states AND fault records agree under injected
    failures — the fault-injection harness run as a parity property.
    (The full suite lives in tests/test_fault_injection.py.)"""
    from tests.fault_injection import flaky_counter

    runs = {}
    for engine in ENGINES:
        runs[engine] = run_monitored(
            strict,
            program,
            flaky_counter(1),
            config=RunConfig(
                engine=engine, fault_policy="quarantine", max_steps=2_000_000
            ),
        )
    ref = runs["reference"]
    for engine in FAST_ENGINES:
        fast = runs[engine]
        assert answers_match(ref.answer, fast.answer), engine
        assert ref.faults == fast.faults, engine
        assert ref.state_of("count") == fast.state_of("count"), engine
    assert answers_match(
        ref.answer, strict.evaluate(program, config=RunConfig(max_steps=2_000_000))
    )
