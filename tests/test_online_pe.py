"""Tests for the online partial evaluator (level-3 specialization)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecializationError
from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor, ProfilerMonitor
from repro.partial_eval.online import specialize
from repro.runtime import RunConfig
from repro.syntax.ast import Annotated, App, Const, If, Letrec, Var, node_count
from repro.syntax.parser import parse
from repro.syntax.pretty import pretty
from repro.syntax.transform import free_variables, substitute

from tests.generators import closed_program

POW = (
    "letrec pow = lambda n. lambda x. "
    "if n = 0 then 1 else x * (pow (n - 1) x) in pow {n} x"
)
FAC = "letrec fac = lambda x. if x = 0 then 1 else x * fac (x - 1) in fac {arg}"


class TestConstantFolding:
    def test_closed_arith_folds_completely(self):
        result = specialize(parse("1 + 2 * 3"))
        assert result.residual == Const(7)
        # Every primitive application folds, including the curried partial
        # applications: (+) 1, (*) 2, ((*) 2) 3, ((+) 1) 6.
        assert result.stats.folded == 4

    def test_static_conditional_selects_branch(self):
        result = specialize(parse("if 1 < 2 then 10 else oops"))
        assert result.residual == Const(10)

    def test_fully_static_recursion_evaluates(self):
        result = specialize(parse(FAC.format(arg=6)))
        assert result.residual == Const(720)

    def test_dynamic_input_stays_free(self):
        result = specialize(parse("x + 1"))
        assert result.residual == parse("x + 1")

    def test_static_env_input(self):
        result = specialize(parse("x + y"), static={"x": 40})
        assert result.residual == parse("40 + y")
        # (the addition can't fold: y is dynamic)

    def test_folding_error_residualized(self):
        # 1/0 would raise; the PE must leave it in the program.
        result = specialize(parse("if b then 1 / 0 else 2"))
        assert isinstance(result.residual, If)


class TestUnfolding:
    def test_pow_unrolls(self):
        result = specialize(parse(POW.format(n=3)))
        assert pretty(result.residual) == "x * (x * (x * 1))"

    def test_non_recursive_beta(self):
        result = specialize(parse("(lambda a. a + a) (y + 1)"))
        # Dynamic argument is let-bound, evaluated once.
        assert pretty(result.residual) == "let a_0 = y + 1 in a_0 + a_0"

    def test_atomic_dynamic_arg_substituted(self):
        result = specialize(parse("(lambda a. a + a) y"))
        assert result.residual == parse("y + y")

    def test_unused_dynamic_arg_still_evaluated(self):
        # CBV: dropping the argument would change termination/errors.
        result = specialize(parse("(lambda a. 7) (f y)"))
        assert pretty(result.residual).startswith("let a_0 = f y in")


class TestFunctionSpecialization:
    def test_dynamic_recursion_produces_letrec(self):
        result = specialize(parse(FAC.format(arg="y")))
        assert isinstance(result.residual, Letrec)
        assert result.stats.specialized_functions == 1

    def test_memo_reuses_specialization(self):
        program = parse(
            "letrec f = lambda x. if x = 0 then 0 else f (x - 1) in f y + f z"
        )
        result = specialize(program)
        assert result.stats.specialized_functions == 1

    def test_different_static_configs_specialize_separately(self):
        program = parse(
            "letrec pow = lambda n. lambda x. if n = 0 then 1 else x * (pow (n - 1) x) in "
            "(pow 2 y) + (pow 2 z)"
        )
        result = specialize(program)
        # Full unfold (static exponent): no residual functions at all.
        assert result.stats.specialized_functions == 0
        assert pretty(result.residual) == "y * (y * 1) + z * (z * 1)"

    def test_static_loop_becomes_residual_function(self):
        # `loop 1` repeats the same static call: must residualize, not hang.
        program = parse(
            "letrec loop = lambda x. loop x in if d then 0 else loop 1"
        )
        result = specialize(program)
        assert isinstance(result.residual, Letrec)


class TestEquivalence:
    @pytest.mark.parametrize("y", [0, 1, 3, 7])
    def test_fac_residual_equivalent(self, y):
        program = parse(FAC.format(arg="y"))
        residual = specialize(program).residual
        original = strict.evaluate(substitute(program, {"y": Const(y)}))
        specialized = strict.evaluate(substitute(residual, {"y": Const(y)}))
        assert original == specialized

    @pytest.mark.parametrize("x", [-2, 0, 5])
    def test_pow_residual_equivalent(self, x):
        program = parse(POW.format(n=4))
        residual = specialize(program).residual
        original = strict.evaluate(substitute(program, {"x": Const(x)}))
        specialized = strict.evaluate(substitute(residual, {"x": Const(x)}))
        assert original == specialized

    def test_list_program(self):
        program = parse(
            "letrec sum = lambda l. if l = [] then 0 else (hd l) + sum (tl l) "
            "in sum (y :: [2, 3])"
        )
        residual = specialize(program).residual
        for y in (0, 10):
            original = strict.evaluate(substitute(program, {"y": Const(y)}))
            specialized = strict.evaluate(substitute(residual, {"y": Const(y)}))
            assert original == specialized


class TestAnnotationPreservation:
    def test_annotations_survive(self):
        program = parse("letrec f = lambda x. {f}: x in f y")
        residual = specialize(program).residual
        assert any(
            isinstance(node, Annotated) for node in residual.walk()
        )

    def test_monitoring_parity_static_run(self):
        program = parse(
            "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 3"
        )
        residual = specialize(program).residual
        original = run_monitored(strict, program, ProfilerMonitor())
        specialized = run_monitored(strict, residual, ProfilerMonitor())
        assert original.answer == specialized.answer
        assert original.report() == specialized.report()

    def test_monitoring_parity_dynamic_run(self):
        program = parse(
            "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac y"
        )
        residual = specialize(program).residual
        for y in (0, 4):
            original = run_monitored(
                strict, substitute(program, {"y": Const(y)}), ProfilerMonitor()
            )
            specialized = run_monitored(
                strict, substitute(residual, {"y": Const(y)}), ProfilerMonitor()
            )
            assert original.answer == specialized.answer
            assert original.report() == specialized.report()

    def test_stats_counts_annotations(self):
        program = parse("{a}: 1 + {b}: 2")
        assert specialize(program).stats.annotations_preserved == 2


class TestBudget:
    def test_divergent_static_computation_raises(self):
        program = parse(
            "letrec grow = lambda x. grow (x + 1) in if d then 0 else grow 0"
        )
        with pytest.raises(SpecializationError):
            specialize(program, budget=5_000)

    def test_budget_error_message(self):
        with pytest.raises(SpecializationError) as exc:
            specialize(
                parse("letrec g = lambda x. g (x + 1) in if d then 1 else g 0"),
                budget=1_000,
            )
        assert "budget" in str(exc.value)


@settings(max_examples=80, deadline=None)
@given(closed_program())
def test_pe_preserves_answers_on_random_programs(program):
    """Residual of a closed program computes the same answer."""
    try:
        residual = specialize(program, budget=500_000).residual
    except SpecializationError:
        return  # budget hit: allowed, just not wrong
    original = strict.evaluate(program, config=RunConfig(max_steps=2_000_000))
    specialized = strict.evaluate(residual, config=RunConfig(max_steps=2_000_000))
    assert original == specialized


@settings(max_examples=50, deadline=None)
@given(closed_program(), st.integers(0, 6))
def test_pe_open_program_equivalence(program, y):
    """Wrap the generated program as a function of a dynamic input."""
    from repro.syntax.ast import Lam

    open_program = App(Lam("dyninput", App(App(Var("+"), program), Var("dyninput"))), Var("y"))
    # open_program: (\d. program + d) y  — only meaningful for int programs.
    try:
        answer = strict.evaluate(
            substitute(open_program, {"y": Const(y)}),
            config=RunConfig(max_steps=2_000_000),
        )
    except Exception:
        return  # boolean-valued generated programs: + fails; skip
    try:
        residual = specialize(open_program, budget=500_000).residual
    except SpecializationError:
        return
    specialized = strict.evaluate(
        substitute(residual, {"y": Const(y)}), config=RunConfig(max_steps=2_000_000)
    )
    assert answer == specialized
