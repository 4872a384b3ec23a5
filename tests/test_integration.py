"""End-to-end integration tests: realistic workloads through the full stack."""

import pytest

from repro.languages import lazy, strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.soundness import assert_sound
from repro.monitors import (
    CollectingMonitor,
    CoverageMonitor,
    ProfilerMonitor,
    TracerMonitor,
    UnsortedListDemon,
)
from repro.partial_eval.codegen import generate_program
from repro.partial_eval.online import specialize
from repro.syntax.ast import Const
from repro.syntax.parser import parse
from repro.syntax.transform import substitute
from repro.toolbox import Session

MERGESORT = """
letrec merge = lambda xs. lambda ys.
    {merge}: if xs = [] then ys
    else if ys = [] then xs
    else if (hd xs) <= (hd ys) then (hd xs) :: (merge (tl xs) ys)
    else (hd ys) :: (merge xs (tl ys))
and take = lambda n. lambda l.
    if n = 0 then [] else (hd l) :: (take (n - 1) (tl l))
and drop = lambda n. lambda l.
    if n = 0 then l else drop (n - 1) (tl l)
and sort = lambda l.
    {sort}: if length l <= 1 then l
    else merge (sort (take (length l / 2) l))
               (sort (drop (length l / 2) l))
in sort [5, 3, 8, 1, 9, 2, 7]
"""


class TestMergesort:
    def test_sorts(self):
        from repro.semantics.values import to_python_list

        answer = strict.evaluate(parse(MERGESORT))
        assert to_python_list(answer) == [1, 2, 3, 5, 7, 8, 9]

    def test_profile_call_counts(self):
        result = run_monitored(strict, parse(MERGESORT), ProfilerMonitor())
        report = result.report()
        assert report["sort"] == 13  # 7 leaves + 6 internal merges
        assert report["merge"] > 0

    def test_all_paths_compute_same_profile(self):
        program = parse(MERGESORT)
        interp = run_monitored(strict, program, ProfilerMonitor())
        generated = generate_program(program, ProfilerMonitor())
        assert generated.report("profile") == interp.report()

    def test_demon_on_intermediate_results(self):
        # sort results are always sorted: the demon must stay silent.
        result = run_monitored(strict, parse(MERGESORT), UnsortedListDemon())
        assert "sort" not in result.report()


class TestChurchEncodings:
    """Higher-order stress: Church numerals through the monitored machine."""

    PROGRAM = """
    let zero = lambda f. lambda x. x in
    let succ = lambda n. lambda f. lambda x. f (n f x) in
    let plus = lambda m. lambda n. lambda f. lambda x. m f (n f x) in
    let toInt = lambda n. n (lambda k. k + 1) 0 in
    let three = succ (succ (succ zero)) in
    toInt ({church}: (plus three three))
    """

    def test_evaluates(self):
        assert strict.evaluate(parse(self.PROGRAM)) == 6

    def test_monitored_function_value(self):
        result = run_monitored(strict, parse(self.PROGRAM), CollectingMonitor())
        # The collected value is a function (a Church numeral).
        values = result.report()["church"]
        assert len(values) == 1

    def test_lazy_agrees(self):
        assert lazy.evaluate(parse(self.PROGRAM)) == 6


class TestFullPipeline:
    def test_specialize_then_compile_then_run_monitored(self):
        program = parse(
            "letrec pow = lambda n. lambda x. "
            "{pow}: if n = 0 then 1 else x * (pow (n - 1) x) in pow 3 y"
        )
        residual = specialize(program).residual
        closed = substitute(residual, {"y": Const(5)})
        interp = run_monitored(strict, closed, ProfilerMonitor())
        generated = generate_program(closed, ProfilerMonitor())
        assert interp.answer == 125
        assert generated.report("profile") == interp.report()

    def test_session_full_workflow(self):
        session = Session()
        session.define(
            "fib", "lambda n. if n < 2 then n else fib (n - 1) + fib (n - 2)"
        )
        result = session.evaluate("fib 10", tools="profile & trace & step")
        assert result.answer == 55
        assert result.report("profile") == {"fib": 177}
        assert result.report("trace").count("receives") == 177

    def test_soundness_of_everything_at_once(self):
        program = parse(MERGESORT)
        stack = [
            ProfilerMonitor(),
            UnsortedListDemon(namespace="demon"),
            CoverageMonitor(namespace="cover"),
        ]
        result = assert_sound(strict, program, stack)
        assert result.report("profile")["sort"] == 13


class TestBigWorkloads:
    def test_tak(self):
        program = parse(
            """
            letrec tak = lambda x. lambda y. lambda z.
                if y < x
                then tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)
                else z
            in tak 12 8 4
            """
        )
        expected = strict.evaluate(program)
        assert generate_program(program).evaluate() == expected

    def test_deep_monitored_recursion(self):
        program = parse(
            "letrec f = lambda n. {f}: if n = 0 then 0 else f (n - 1) in f 30000"
        )
        result = run_monitored(strict, program, ProfilerMonitor())
        assert result.report() == {"f": 30001}
