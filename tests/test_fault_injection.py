"""Soundness under monitor faults, made executable (differential suite).

Section 7's theorem says monitoring cannot change a program's standard
answer.  That proof assumes total monitoring functions; these tests pin
down what the *runtime* guarantees when a monitor's ``pre``/``post``
raises anyway, under each fault policy:

* ``propagate`` (default) — the exception escapes, identically on both
  engines, and pre-existing behavior is untouched;
* ``quarantine`` — the faulting monitor is disabled for the rest of the
  run, its annotations take the unclaimed path, and the standard answer
  (or the standard *error*) is exactly that of the unmonitored program;
* ``log`` — faults accumulate as records while monitoring continues.

Every property is checked on the reference interpreter AND the codegen
engine, and the two must agree on answers, fault records and surviving
monitor states — including on hypothesis-generated programs.
"""

import pytest
from hypothesis import given, settings

from repro.errors import EvalError, HostRecursionError, MonitorError
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.faults import (
    FAULT_POLICIES,
    FaultLog,
    FlakyMonitor,
    InjectedFault,
    MonitorFault,
    check_fault_policy,
)
from repro.monitoring.spec import FunctionSpec
from repro.monitors import LabelCounterMonitor, ProfilerMonitor, TracerMonitor
from repro.runtime import RunConfig
from repro.syntax.annotations import Label
from repro.syntax.parser import parse
from repro.tracing import analyze_trace, record

from tests.fault_injection import (
    FAC_LABELED,
    FAC_TRACED,
    assert_fault_parity,
    flaky_counter,
    run_both_with_faults,
)
from tests.generators import closed_program

ENGINES = ["reference", "codegen"]


# -- policy plumbing -------------------------------------------------------------


class TestPolicyValidation:
    def test_known_policies(self):
        for policy in FAULT_POLICIES:
            check_fault_policy(policy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(MonitorError):
            check_fault_policy("retry")

    def test_run_monitored_rejects_unknown_policy(self):
        with pytest.raises(MonitorError):
            run_monitored(
                strict,
                parse("1"),
                [],
                config=RunConfig(fault_policy="ignore-everything"),
            )

    def test_fault_log_refuses_propagate(self):
        with pytest.raises(MonitorError):
            FaultLog("propagate")

    def test_flaky_monitor_needs_failure_point(self):
        with pytest.raises(MonitorError):
            FlakyMonitor(ProfilerMonitor())

    def test_flaky_monitor_rejects_bad_phase(self):
        with pytest.raises(MonitorError):
            FlakyMonitor(ProfilerMonitor(), fail_on=1, phase="during")


class TestMonitorFaultRecord:
    def test_equality_ignores_exception_identity(self):
        a = MonitorFault("p", "pre", "ValueError", "boom", error=ValueError("boom"))
        b = MonitorFault("p", "pre", "ValueError", "boom", error=ValueError("boom"))
        assert a == b

    def test_render(self):
        fault = MonitorFault("profile", "post", "KeyError", "'x'")
        assert fault.render() == "profile.post raised KeyError: 'x'"


# -- propagate: the back-compat default ------------------------------------------


class TestPropagateDefault:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_pre_fault_escapes(self, engine):
        with pytest.raises(InjectedFault):
            run_monitored(
                strict,
                parse(FAC_LABELED),
                flaky_counter(3),
                config=RunConfig(engine=engine),
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_post_fault_escapes(self, engine):
        with pytest.raises(InjectedFault):
            run_monitored(
                strict,
                parse(FAC_LABELED),
                flaky_counter(3, phase="post"),
                config=RunConfig(engine=engine),
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_healthy_run_reports_no_faults(self, engine):
        result = run_monitored(
            strict,
            parse(FAC_LABELED),
            LabelCounterMonitor(),
            config=RunConfig(engine=engine),
        )
        assert result.healthy()
        assert result.faults == ()
        assert result.fault_policy == "propagate"
        assert "faults" not in result.reports()


# -- quarantine: the tentpole guarantee ------------------------------------------


class TestQuarantine:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_answer_is_standard_answer(self, engine, phase):
        program = parse(FAC_LABELED)
        expected = strict.evaluate(program)
        result = run_monitored(
            strict,
            program,
            flaky_counter(2, phase=phase),
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        )
        assert result.answer == expected == 24
        assert not result.healthy()
        assert result.quarantined_keys() == ("count",)
        assert len(result.faults) == 1
        fault = result.faults[0]
        assert fault.monitor_key == "count"
        assert fault.phase == phase
        assert fault.error_type == "InjectedFault"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_monitor_disabled_for_rest_of_run(self, engine):
        # fac 4 hits {fac} five times; failing on call 2 must leave the
        # counter at 1 — later activations take the unclaimed path.
        result = run_monitored(
            strict,
            parse(FAC_LABELED),
            flaky_counter(2),
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        )
        assert result.report("count") == {"fac": 1}
        assert len(result.faults) == 1  # exactly one fault, then silence

    @pytest.mark.parametrize("engine", ENGINES)
    def test_program_error_still_the_programs_error(self, engine):
        # Quarantine must not mask the program's own error either.
        program = parse(
            "letrec f = lambda x. {fac}: if x = 0 then 1 / 0 else f (x - 1) "
            "in f 3"
        )
        with pytest.raises(EvalError) as monitored_exc:
            run_monitored(
                strict,
                program,
                flaky_counter(2),
                config=RunConfig(engine=engine, fault_policy="quarantine"),
            )
        with pytest.raises(EvalError) as plain_exc:
            strict.evaluate(program)
        assert str(monitored_exc.value) == str(plain_exc.value)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_healthy_neighbors_unaffected(self, engine):
        # A faulting profiler must not perturb the tracer next to it.
        program = parse(FAC_TRACED.replace("{fac(x)}:", "{fac(x)}: {fac}:"))
        flaky = flaky_counter(2)
        tracer = TracerMonitor()
        result = run_monitored(
            strict,
            program,
            [flaky, tracer],
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        )
        healthy = run_monitored(strict, program, TracerMonitor())
        assert result.answer == 24
        assert result.quarantined_keys() == ("count",)
        assert (
            result.state_of("trace")[0].render()
            == healthy.state_of("trace")[0].render()
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_faults_rendered_in_reports(self, engine):
        result = run_monitored(
            strict,
            parse(FAC_LABELED),
            flaky_counter(1),
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        )
        reports = result.reports()
        assert "faults" in reports
        (line,) = reports["faults"]
        assert "count.pre raised InjectedFault" in line


# -- log: record everything, disable nothing -------------------------------------


class TestLogPolicy:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_monitor_keeps_running(self, engine):
        # The counter increment of the faulting call is dropped, so call
        # #3 keeps failing on every later activation: 5 hits, first two
        # counted, three recorded faults.
        result = run_monitored(
            strict,
            parse(FAC_LABELED),
            flaky_counter(3),
            config=RunConfig(engine=engine, fault_policy="log"),
        )
        assert result.answer == 24
        assert result.report("count") == {"fac": 2}
        assert len(result.faults) == 3
        assert result.quarantined_keys() == ()  # log never disables

    @pytest.mark.parametrize("engine", ENGINES)
    def test_post_fault_keeps_pre_updates(self, engine):
        result = run_monitored(
            strict,
            parse(FAC_LABELED),
            flaky_counter(2, phase="post"),
            config=RunConfig(engine=engine, fault_policy="log"),
        )
        # pre hooks all ran: full count despite the post faults.
        assert result.report("count") == {"fac": 5}
        assert not result.healthy()


# -- differential: both engines agree under injected failures ---------------------


class TestEngineFaultParity:
    @pytest.mark.parametrize("policy", ["quarantine", "log"])
    @pytest.mark.parametrize("fail_on", [1, 2, 5])
    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_fac_parity(self, policy, fail_on, phase):
        ref, fast = run_both_with_faults(
            FAC_LABELED,
            lambda: flaky_counter(fail_on, phase=phase),
            fault_policy=policy,
        )
        assert_fault_parity(ref, fast)
        assert ref.answer == 24

    def test_mixed_stack_parity(self):
        program = FAC_TRACED.replace("{fac(x)}:", "{fac(x)}: {fac}:")
        ref, fast = run_both_with_faults(
            program,
            lambda: [flaky_counter(2), TracerMonitor()],
            fault_policy="quarantine",
        )
        assert_fault_parity(ref, fast, surviving_keys=["trace"])

    def test_seeded_random_failures_are_engine_deterministic(self):
        ref, fast = run_both_with_faults(
            FAC_LABELED,
            lambda: FlakyMonitor(
                LabelCounterMonitor(), seed=1234, failure_rate=0.5
            ),
            fault_policy="log",
        )
        assert_fault_parity(ref, fast)
        assert ref.faults  # rate 0.5 over 5 calls: effectively certain

    @pytest.mark.parametrize("policy", ["log", "quarantine"])
    def test_unbound_lookup_faults_alike_on_every_path(self, policy, tmp_path):
        """A hook's ``ctx.lookup`` miss is one fault record everywhere:
        reference, codegen and record+fold all raise the reference
        environment's ``UnboundIdentifierError``."""

        def nosy():
            return FunctionSpec(
                key="nosy",
                recognize=lambda ann: ann if isinstance(ann, Label) else None,
                initial=lambda: 0,
                pre=lambda ann, term, ctx, state: ctx.lookup("nope"),
            )

        ref, fast = run_both_with_faults(FAC_LABELED, nosy, fault_policy=policy)
        path = str(tmp_path / "trace.jsonl")
        record(strict, parse(FAC_LABELED), path, monitors=[nosy()])
        fold = analyze_trace(path, nosy(), fault_policy=policy)
        assert [(f.error_type, f.message) for f in ref.faults[:1]] == [
            ("UnboundIdentifierError", "unbound identifier: 'nope'")
        ]
        assert fast.faults == ref.faults
        assert fold.faults == ref.faults

    @settings(max_examples=60, deadline=None)
    @given(closed_program())
    def test_random_programs_quarantine_parity(self, program):
        """The headline property: on arbitrary generated programs, a
        monitor faulting mid-run never changes the answer, and both
        engines agree on answer, fault records, and monitor state."""
        expected = strict.evaluate(program, max_steps=2_000_000)
        ref = run_monitored(
            strict,
            program,
            flaky_counter(2),
            config=RunConfig(
                engine="reference", fault_policy="quarantine", max_steps=2_000_000
            ),
        )
        fast = run_monitored(
            strict,
            program,
            flaky_counter(2),
            config=RunConfig(
                engine="codegen", fault_policy="quarantine", max_steps=2_000_000
            ),
        )
        assert ref.answer == fast.answer == expected
        assert ref.faults == fast.faults
        assert ref.state_of("count") == fast.state_of("count")


    @pytest.mark.parametrize("policy,faults", [("log", 4), ("quarantine", 1)])
    def test_hook_recursion_error_faults_alike_on_every_path(
        self, policy, faults, tmp_path
    ):
        """A hook's own ``RecursionError`` is a fault record on the
        reference engine and the fold.  Codegen takes it for the host
        stack overflowing and re-runs on the reference engine."""

        def deep():
            return FlakyMonitor(
                LabelCounterMonitor(key="c"), fail_on=2, error=RecursionError
            )

        ref, fast = run_both_with_faults(FAC_LABELED, deep, fault_policy=policy)
        path = str(tmp_path / "trace.jsonl")
        record(strict, parse(FAC_LABELED), path)
        fold = analyze_trace(path, deep(), fault_policy=policy)
        assert ref.answer == 24
        assert [f.error_type for f in ref.faults] == ["RecursionError"] * faults
        for other in (fast, fold):
            assert other.reports() == ref.reports()
            assert other.faults == ref.faults

        from repro.partial_eval.codegen import generate_program

        with pytest.raises(HostRecursionError):
            generate_program(parse(FAC_LABELED), [deep()]).run(
                fault_log=FaultLog(policy)
            )


# -- repeated runs of one generated program --------------------------------------


class TestGeneratedProgramReuse:
    def test_fault_log_resets_between_runs(self):
        from repro.monitoring.state import MonitorStateVector
        from repro.partial_eval.codegen import generate_program

        program = parse(FAC_LABELED)
        flaky = flaky_counter(2)
        generated = generate_program(program, [flaky])
        for _ in range(3):
            fault_log = FaultLog("quarantine")
            initial = MonitorStateVector.initial([flaky])
            answer, states = generated.run(initial_ms=initial, fault_log=fault_log)
            assert answer == 24
            # Each run faults afresh at call 2 — quarantine is per-run.
            assert len(fault_log.faults) == 1
            assert fault_log.disabled == {"count"}
