"""Executable soundness (Theorem 7.7): monitors never change answers."""

import pytest
from hypothesis import given, settings

from repro.languages import lazy, strict
from repro.monitoring.soundness import (
    SoundnessViolation,
    assert_sound,
    check_soundness,
)
from repro.monitoring.spec import FunctionSpec
from repro.monitors import (
    CollectingMonitor,
    LabelCounterMonitor,
    ProfilerMonitor,
    StepperMonitor,
    TracerMonitor,
    UnsortedListDemon,
)
from repro.runtime import RunConfig
from repro.syntax.annotations import Label
from repro.syntax.parser import parse

from tests.generators import closed_program

ALL_TOOLBOX = [
    LabelCounterMonitor(),
    CollectingMonitor(namespace="collect"),
    UnsortedListDemon(namespace="demon"),
    StepperMonitor(namespace="step"),
    TracerMonitor(),
]


class TestToolboxSoundness:
    @pytest.mark.parametrize("monitor", ALL_TOOLBOX, ids=lambda m: m.key)
    def test_each_monitor_sound_on_paper_program(self, monitor, paper_tracer_program):
        result = assert_sound(strict, paper_tracer_program, monitor)
        assert result.answer == 6

    def test_full_stack_sound(self, paper_tracer_program):
        result = assert_sound(strict, paper_tracer_program, ALL_TOOLBOX)
        assert result.answer == 6

    def test_sound_on_corpus(self, corpus_case):
        program, expected = corpus_case
        result = assert_sound(strict, program, LabelCounterMonitor())
        assert result.answer == expected


class TestErrorAgreement:
    def test_error_programs_agree(self):
        program = parse("{p}: (hd [])")
        report = check_soundness(strict, program, LabelCounterMonitor())
        assert report.agreed

    def test_unbound_agrees(self):
        program = parse("{p}: nosuch")
        report = check_soundness(strict, program, LabelCounterMonitor())
        assert report.agreed


class TestViolationDetection:
    def test_rogue_monitor_detected(self):
        # A "monitor" that mutates a list value it is shown — the one
        # thing the framework cannot prevent in a host language with
        # mutable references.  The checker catches it.
        def corrupt(ann, term, ctx, result, st):
            from repro.semantics.values import Cons

            if isinstance(result, Cons):
                result.head = 999
            return st

        rogue = FunctionSpec(
            key="rogue",
            recognize=lambda a: a if isinstance(a, Label) else None,
            initial=lambda: None,
            post=corrupt,
        )
        program = parse("hd ({p}: [1, 2])")
        with pytest.raises(SoundnessViolation):
            assert_sound(strict, program, rogue)


class TestLazySoundness:
    def test_lazy_monitored_agrees(self):
        program = parse(
            "letrec f = lambda n. if n = 0 then 0 else {hit}: f (n - 1) in f 3"
        )
        result = assert_sound(lazy, program, LabelCounterMonitor())
        assert result.answer == 0


@settings(max_examples=120, deadline=None)
@given(closed_program())
def test_soundness_on_random_programs(program):
    """Theorem 7.7 over hypothesis-generated annotated programs."""
    stack = [LabelCounterMonitor(), TracerMonitor()]
    report = check_soundness(strict, program, stack, max_steps=2_000_000)
    assert report.agreed


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_soundness_under_lazy_semantics(program):
    report = check_soundness(lazy, program, [LabelCounterMonitor()], max_steps=2_000_000)
    assert report.agreed


@settings(max_examples=60, deadline=None)
@given(closed_program())
def test_strict_and_lazy_agree_on_terminating_programs(program):
    """For the generated (total) programs, CBV and CBN coincide."""
    from repro.syntax.ast import strip_annotations

    erased = strip_annotations(program)
    strict_answer = strict.evaluate(erased, config=RunConfig(max_steps=2_000_000))
    lazy_answer = lazy.evaluate(erased, config=RunConfig(max_steps=2_000_000))
    assert strict_answer == lazy_answer
