"""Tests for the monitoring-semantics derivation (Definition 4.2)."""

import pytest

from repro.errors import MonitorError
from repro.languages import strict
from repro.monitoring.derive import (
    MonitoredResult,
    check_disjoint,
    derive_all,
    run_monitored,
)
from repro.monitoring.spec import FunctionSpec, MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.runtime import RunConfig
from repro.syntax.annotations import Label, Tagged
from repro.syntax.ast import Annotated, Const
from repro.syntax.parser import parse


def label_counter(key="count", names=None):
    def recognize(annotation):
        if isinstance(annotation, Label) and (names is None or annotation.name in names):
            return annotation
        return None

    return FunctionSpec(
        key=key,
        recognize=recognize,
        initial=lambda: {},
        pre=lambda ann, term, ctx, st: {**st, ann.name: st.get(ann.name, 0) + 1},
    )


class TestBasicDerivation:
    def test_answer_unchanged(self):
        program = parse("{p}: (2 + 3)")
        result = run_monitored(strict, program, label_counter())
        assert result.answer == 5

    def test_pre_called_per_evaluation(self):
        program = parse(
            "letrec f = lambda n. if n = 0 then 0 else {hit}: f (n - 1) in f 4"
        )
        result = run_monitored(strict, program, label_counter())
        assert result.report() == {"hit": 4}

    def test_monitoring_inside_closures(self):
        # The fixpoint is taken after derivation, so behavior appears at
        # all levels of recursion — including closures created before any
        # annotation is reached.
        program = parse("let f = lambda x. {inner}: x in f 1 + f 2")
        result = run_monitored(strict, program, label_counter())
        assert result.report() == {"inner": 2}

    def test_unrecognized_annotations_fall_through(self):
        program = parse("{known}: 1 + {unknown}: 2")
        result = run_monitored(strict, program, label_counter(names={"known"}))
        assert result.answer == 3
        assert result.report() == {"known": 1}

    def test_post_sees_result(self):
        seen = []

        spec = FunctionSpec(
            key="post-spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            post=lambda ann, term, ctx, result, st: (seen.append(result), st)[1],
        )
        run_monitored(strict, parse("{p}: (6 * 7)"), spec)
        assert seen == [42]

    def test_pre_sees_context(self):
        seen = []
        spec = FunctionSpec(
            key="ctx-spy",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=lambda ann, term, ctx, st: (seen.append(ctx.lookup("x")), st)[1],
        )
        run_monitored(strict, parse("(lambda x. {p}: x) 9"), spec)
        assert seen == [9]

    def test_evaluation_order_pre_post_nesting(self):
        events = []

        def mk(kind):
            def pre(ann, term, ctx, st):
                events.append(("pre", ann.name))
                return st

            def post(ann, term, ctx, result, st):
                events.append(("post", ann.name))
                return st

            return pre, post

        pre, post = mk("x")
        spec = FunctionSpec(
            key="order",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            pre=pre,
            post=post,
        )
        run_monitored(strict, parse("{outer}: ({inner}: 1 + 1)"), spec)
        assert events == [
            ("pre", "outer"),
            ("pre", "inner"),
            ("post", "inner"),
            ("post", "outer"),
        ]


class TestMonitoredResult:
    def test_report_single_monitor(self):
        result = run_monitored(strict, parse("{p}: 1"), label_counter())
        assert result.report() == {"p": 1}

    def test_report_by_key(self):
        result = run_monitored(strict, parse("{p}: 1"), label_counter(key="k1"))
        assert result.report("k1") == {"p": 1}

    def test_report_unknown_key(self):
        result = run_monitored(strict, parse("{p}: 1"), label_counter(key="k1"))
        with pytest.raises(MonitorError):
            result.report("nope")

    def test_states_vector(self):
        result = run_monitored(strict, parse("{p}: 1"), label_counter(key="k1"))
        assert isinstance(result.states, MonitorStateVector)
        assert result.state_of("k1") == {"p": 1}


class TestDisjointness:
    def test_overlapping_monitors_rejected(self):
        program = parse("{p}: 1")
        with pytest.raises(MonitorError):
            run_monitored(strict, program, [label_counter("a"), label_counter("b")])

    def test_disjoint_by_names_allowed(self):
        program = parse("{p}: {q}: 1")
        result = run_monitored(
            strict,
            program,
            [label_counter("a", names={"p"}), label_counter("b", names={"q"})],
        )
        assert result.report("a") == {"p": 1}
        assert result.report("b") == {"q": 1}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(MonitorError):
            check_disjoint([label_counter("same"), label_counter("same")], Const(1))

    def test_namespaced_annotations_disjoint(self):
        program = parse("{a: p}: {b: p}: 1")

        def ns_counter(namespace):
            def recognize(annotation):
                if isinstance(annotation, Tagged) and annotation.tool == namespace:
                    return annotation.payload
                return None

            return FunctionSpec(
                key=namespace,
                recognize=recognize,
                initial=lambda: 0,
                pre=lambda ann, term, ctx, st: st + 1,
            )

        result = run_monitored(strict, program, [ns_counter("a"), ns_counter("b")])
        assert result.report("a") == 1
        assert result.report("b") == 1


class TestDeriveAll:
    def test_empty_stack_is_standard(self):
        functional = derive_all(strict.functional(), [])
        assert functional is strict.functional()

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    def test_empty_stack_run_equals_unmonitored(self, engine):
        # run_monitored with no monitors is *exactly* unmonitored
        # evaluation on both engines — same answer, empty state vector,
        # no reports.
        program = parse("{p}: 1 + {q}: 2")  # annotations all unclaimed
        result = run_monitored(strict, program, [], config=RunConfig(engine=engine))
        assert result.answer == strict.evaluate(program, engine=engine) == 3
        assert len(result.states) == 0
        assert result.reports() == {}
        assert result.healthy()

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    def test_empty_stack_under_quarantine(self, engine):
        # With nothing to fault, a non-default policy changes nothing.
        program = parse("6 * 7")
        result = run_monitored(
            strict,
            program,
            [],
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        )
        assert result.answer == 42
        assert result.faults == ()
        assert result.fault_policy == "quarantine"

    def test_initial_state_vector_of_empty_stack(self):
        vector = MonitorStateVector.initial([])
        assert len(vector) == 0
        assert vector.as_dict() == {}

    def test_state_isolation(self):
        # Each monitor only ever sees (and updates) its own slot.
        program = parse("{p}: {q}: 1")
        a = label_counter("a", names={"p"})
        b = label_counter("b", names={"q"})
        result = run_monitored(strict, program, [a, b])
        assert result.state_of("a") == {"p": 1}
        assert result.state_of("b") == {"q": 1}
