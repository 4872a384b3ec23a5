"""Heavier integration workloads exercising the whole system together."""

import pytest

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import CallGraphMonitor, CoverageMonitor, ProfilerMonitor
from repro.partial_eval.codegen import generate_program
from repro.prelude import with_prelude
from repro.semantics.values import to_python_list
from repro.syntax.parser import parse
from repro.toolbox.autoannotate import profile_functions

# N-queens via the prelude: a search-heavy workload with real list work.
NQUEENS = """
letrec safe? = lambda q. lambda d. lambda placed.
    if null? placed then true
    else if hd placed = q then false
    else if hd placed = q + d then false
    else if hd placed = q - d then false
    else safe? q (d + 1) (tl placed)
and place = lambda n. lambda k.
    if k = 0 then [[]]
    else concatMap
        (lambda placed.
            map (lambda q. q :: placed)
                (filter (lambda q. safe? q 1 placed) (fromTo 1 n)))
        (place n (k - 1))
and concatMap = lambda f. lambda xs.
    if null? xs then [] else append (f (hd xs)) (concatMap f (tl xs))
in length (place 6 6)
"""


class TestNQueens:
    def test_solution_count(self):
        # 6-queens has 4 solutions.
        assert strict.evaluate(with_prelude(NQUEENS)) == 4

    def test_all_paths_agree(self):
        program = with_prelude(NQUEENS)
        expected = strict.evaluate(program)
        assert generate_program(program).evaluate() == expected

    def test_profiled_run(self):
        program = profile_functions(with_prelude(NQUEENS), "place", "safe?")
        result = run_monitored(strict, program, ProfilerMonitor())
        assert result.answer == 4
        assert result.report()["place"] == 7  # place 6..0


# A meta-circular touch: an interpreter for a tiny arithmetic language,
# written in L_lambda, running object programs encoded as nested lists.
# Encoding: a leaf number n is [0, n]; [1, l, r] is addition; [2, l, r]
# is multiplication.
META_INTERPRETER = """
letrec eval = lambda t.
    {eval}: if hd t = 0 then nth 1 t
    else if hd t = 1 then (eval (nth 1 t)) + (eval (nth 2 t))
    else (eval (nth 1 t)) * (eval (nth 2 t))
in eval [1, [2, [0, 3], [0, 4]], [0, 5]]
"""


class TestMetaInterpreter:
    def test_interprets(self):
        # (3 * 4) + 5
        assert strict.evaluate(with_prelude(META_INTERPRETER)) == 17

    def test_monitoring_the_interpreter(self):
        # Monitoring a program that is itself an interpreter: the profiler
        # counts object-level node visits.
        result = run_monitored(
            strict, with_prelude(META_INTERPRETER), ProfilerMonitor()
        )
        assert result.answer == 17
        assert result.report() == {"eval": 5}  # 5 nodes in the object tree

    def test_callgraph_of_interpreter(self):
        result = run_monitored(
            strict, with_prelude(META_INTERPRETER), CallGraphMonitor()
        )
        graph = result.report()
        assert graph.edges[("eval", "eval")] == 4


class TestCoverageWorkflow:
    def test_branch_coverage_over_workload(self):
        program = parse(
            """
            letrec classify = lambda n.
                if n < 0 then {neg}: 0
                else if n = 0 then {zero}: 1
                else {pos}: 2
            and run = lambda xs.
                if xs = [] then 0 else classify (hd xs) + run (tl xs)
            in run [3, 1, 4, 1, 5]
            """
        )
        monitor = CoverageMonitor()
        result = run_monitored(strict, program, monitor)
        report = monitor.report_against(result.state_of(monitor), program)
        assert report.covered == frozenset({"pos"})
        assert report.uncovered == frozenset({"neg", "zero"})
        assert report.hits == {"pos": 5}


class TestStringWorkload:
    def test_string_building(self):
        program = parse(
            """
            letrec join = lambda xs.
                if xs = [] then ""
                else if tl xs = [] then hd xs
                else (hd xs) ++ ", " ++ join (tl xs)
            in join ["a", "b", "c"]
            """
        )
        assert strict.evaluate(program) == "a, b, c"
        assert generate_program(program).evaluate() == "a, b, c"
