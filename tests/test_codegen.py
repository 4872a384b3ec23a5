"""Tests for residual Python code generation."""

import pytest

from repro.errors import EvalError, MonitorError, NotAFunctionError
from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import (
    CollectingMonitor,
    LabelCounterMonitor,
    ProfilerMonitor,
    StepperMonitor,
    TracerMonitor,
    UnsortedListDemon,
)
from repro.partial_eval.codegen import generate_program
from repro.syntax.parser import parse


class TestStandardResiduals:
    def test_corpus_parity(self, corpus_case):
        program, expected = corpus_case
        generated = generate_program(program)
        assert generated.evaluate() == expected

    def test_source_is_python(self, paper_tracer_program):
        generated = generate_program(paper_tracer_program, TracerMonitor())
        compile(generated.source, "<check>", "exec")  # must be valid Python

    def test_errors_preserved(self):
        with pytest.raises(EvalError):
            generate_program(parse("hd []")).evaluate()

    def test_apply_non_function(self):
        with pytest.raises(NotAFunctionError):
            generate_program(parse("1 2")).evaluate()

    def test_non_boolean_condition(self):
        with pytest.raises(EvalError):
            generate_program(parse("if 1 then 2 else 3")).evaluate()

    def test_shadowed_primitive(self):
        program = parse("let hd = lambda x. 99 in hd [1]")
        assert generate_program(program).evaluate() == 99

    def test_function_parameters_are_applied_generically(self):
        # f is a parameter, not a known function: no direct call is emitted.
        program = parse("(lambda f. f 2 3) (lambda a. lambda b. a * b)")
        assert generate_program(program).evaluate() == 6

    def test_identifier_mangling(self):
        program = parse("let x' = 1 in let ok? = true in if ok? then x' else 0")
        assert generate_program(program).evaluate() == 1

    def test_reruns_are_independent(self):
        program = parse("letrec f = lambda x. {f}: x in f 1")
        generated = generate_program(program, ProfilerMonitor())
        assert generated.report("profile") == {"f": 1}
        assert generated.report("profile") == {"f": 1}  # state reset per run


class TestMonitorParity:
    """The residual instrumented program must agree with the interpreter
    on answers AND final monitor states, for every toolbox monitor."""

    MONITORS = [
        ProfilerMonitor(),
        TracerMonitor(),
        LabelCounterMonitor(),
        CollectingMonitor(),
        UnsortedListDemon(),
        StepperMonitor(),
    ]

    @pytest.mark.parametrize("monitor", MONITORS, ids=lambda m: m.key)
    def test_parity_on_annotated_factorial(self, monitor):
        program = parse(
            """
            letrec mul = lambda x. lambda y. {mul(x, y)}: ({mul}: (x*y)) in
            letrec fac = lambda x. {fac(x)}: ({fac}: (if (x=0) then 1 else mul x (fac (x-1))))
            in fac 3
            """
        )
        # Only give each monitor its own annotations: labels vs headers
        # are already disjoint, so a single-monitor run is well-defined.
        interp = run_monitored(strict, program, type(monitor)())
        generated = generate_program(program, type(monitor)())
        answer, states = generated.run()
        assert answer == interp.answer == 6
        assert type(monitor)().report(states.get(monitor.key)) == interp.report()

    def test_demon_parity_on_paper_program(self, paper_demon_program):
        generated = generate_program(paper_demon_program, UnsortedListDemon())
        assert generated.report("demon") == frozenset({"l1", "l3"})


class TestEvaluationOrder:
    def test_argument_before_operator_hooks(self):
        # ({a}: f) ({b}: 1) must fire b's hooks before a's, as the
        # interpreter does (Figure 2).
        program = parse("({a}: (lambda x. x)) ({b}: 1)")
        monitor = LabelCounterMonitor()
        generated = generate_program(program, monitor)

        events = []

        from repro.monitoring.spec import FunctionSpec
        from repro.syntax.annotations import Label

        spy = FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, st: (events.append(ann.name), st)[1],
        )
        generate_program(program, spy).run()
        assert events == ["b", "a"]

    def test_binary_operand_order(self):
        events = []
        from repro.monitoring.spec import FunctionSpec
        from repro.syntax.annotations import Label

        spy = FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, st: (events.append(ann.name), st)[1],
        )
        # Figure 2: right operand (the application's outer argument) first.
        generate_program(parse("({l}: 1) + ({r}: 2)"), spy).run()
        interp_events = []
        spy2 = FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, st: (interp_events.append(ann.name), st)[1],
        )
        run_monitored(strict, parse("({l}: 1) + ({r}: 2)"), spy2)
        assert events == interp_events == ["r", "l"]


class TestSiteMetadata:
    def test_site_count(self, paper_profiler_program):
        generated = generate_program(paper_profiler_program, ProfilerMonitor())
        assert generated.site_count == 2

    def test_unrecognized_erased(self):
        generated = generate_program(parse("{f(x)}: 1"), ProfilerMonitor())
        assert generated.site_count == 0
        assert "_pre(" not in generated.source

    def test_stack_claims_each_site_once(self):
        program = parse("{p}: ({f(x)}: 2)")
        generated = generate_program(program, [LabelCounterMonitor(), TracerMonitor()])
        answer, states = generated.run()
        assert generated.site_count == 2
        assert answer == 2
        assert states.get("count") == {"p": 1}

    def test_disjointness_enforced(self):
        with pytest.raises(MonitorError):
            generate_program(
                parse("{p}: 1"),
                [LabelCounterMonitor(key="a"), LabelCounterMonitor(key="b")],
            )


class TestResidualContext:
    """The context residual hooks hand to monitors: the site's locals."""

    @staticmethod
    def spy(pre):
        from repro.monitoring.spec import FunctionSpec
        from repro.syntax.annotations import Label

        return FunctionSpec(
            key="spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, st: (pre(ctx), st)[1],
        )

    def test_monitor_sees_variables(self):
        seen = {}
        spy = self.spy(lambda ctx: seen.update(x=ctx.lookup("x"), names=ctx.names()))
        generate_program(parse("(lambda x. {p}: x) 5"), spy).run()
        assert seen["x"] == 5
        assert "x" in seen["names"]

    def test_letrec_visible_to_monitor(self):
        seen = []
        spy = self.spy(lambda ctx: seen.append(ctx.maybe_lookup("f")))
        generate_program(parse("letrec f = lambda n. {p}: n in f 1"), spy).run()
        assert callable(seen[0])  # the residual closure itself

    def test_lookup_outside_scope_fails(self):
        spy = self.spy(lambda ctx: ctx.lookup("nosuch"))
        with pytest.raises(EvalError, match="nosuch"):
            generate_program(parse("(lambda x. {p}: x) 5"), spy).run()
