"""Tests for the public testing helpers."""

import pytest

from repro.monitoring.spec import FunctionSpec
from repro.monitors import ProfilerMonitor, TracerMonitor
from repro.syntax.annotations import Label
from repro.testing import (
    ParityError,
    assert_implementation_parity,
    assert_monitor_well_behaved,
    run_and_report,
)

PROGRAM = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 4"


class TestParity:
    def test_passes_for_toolbox_monitor(self):
        assert_implementation_parity(PROGRAM, ProfilerMonitor())

    def test_passes_without_monitors(self):
        assert_implementation_parity("1 + 2 * 3")

    def test_accepts_parsed_programs(self):
        from repro.syntax.parser import parse

        assert_implementation_parity(parse(PROGRAM), ProfilerMonitor())

    def test_lazy_language_smoke_path(self):
        from repro.languages import lazy

        assert_implementation_parity(PROGRAM, ProfilerMonitor(), language=lazy)

    def test_codegen_state_disagreement_raises(self, monkeypatch):
        from repro.partial_eval.codegen import GeneratedProgram

        real_run = GeneratedProgram.run

        def skewed_run(self, **kwargs):
            answer, states = real_run(self, **kwargs)
            return answer, states.set("profile", {"fac": 99})

        monkeypatch.setattr(GeneratedProgram, "run", skewed_run)
        with pytest.raises(ParityError, match="codegen engine's final report"):
            assert_implementation_parity(PROGRAM, ProfilerMonitor())

    def test_codegen_answer_disagreement_raises(self, monkeypatch):
        from repro.partial_eval.codegen import GeneratedProgram

        real_run = GeneratedProgram.run

        def skewed_run(self, **kwargs):
            answer, states = real_run(self, **kwargs)
            return answer + 1, states

        monkeypatch.setattr(GeneratedProgram, "run", skewed_run)
        with pytest.raises(ParityError, match="codegen engine answered 25"):
            assert_implementation_parity(PROGRAM, ProfilerMonitor())


class TestWellBehaved:
    @pytest.mark.parametrize(
        "monitor", [ProfilerMonitor(), TracerMonitor()], ids=lambda m: m.key
    )
    def test_toolbox_monitors(self, monitor):
        program = (
            "letrec fac = lambda x. {fac(x)}: ({fac}: "
            "(if x = 0 then 1 else x * fac (x - 1))) in fac 3"
        )
        assert_monitor_well_behaved(type(monitor)(), program)

    def test_catches_invalid_spec(self):
        from repro.errors import MonitorError

        broken = FunctionSpec(
            key="broken",
            recognize=lambda a: a.no_such_attribute,
            initial=lambda: 0,
        )
        with pytest.raises(MonitorError):
            assert_monitor_well_behaved(broken, PROGRAM)


class TestRunAndReport:
    def test_shorthand(self):
        answer, reports = run_and_report(PROGRAM, [ProfilerMonitor()])
        assert answer == 24
        assert reports["profile"] == {"fac": 5}
