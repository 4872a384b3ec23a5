"""Tests for session save/load."""

import pytest

from repro.errors import ReproError
from repro.languages import lazy
from repro.runtime import RunConfig
from repro.toolbox.session import Session


@pytest.fixture
def session():
    s = Session()
    s.define("double", "lambda x. x + x")
    s.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
    s.define("tagged", "lambda x. {tagged}: (x + 1)")
    return s


class TestRoundTrip:
    def test_save_load(self, session, tmp_path):
        path = tmp_path / "session.repro"
        session.save(path)
        restored = Session.load(path)
        assert restored.names() == session.names()
        assert restored.evaluate("fac (double 2)").answer == 24

    def test_annotations_survive(self, session, tmp_path):
        path = tmp_path / "session.repro"
        session.save(path)
        restored = Session.load(path)
        result = restored.evaluate("tagged 1", tools=["count"])
        # 'count' claims bare labels; the saved {tagged} annotation fires.
        assert result.report("count") == {"tagged": 1}

    def test_file_is_readable_source(self, session, tmp_path):
        path = tmp_path / "session.repro"
        session.save(path)
        text = path.read_text()
        assert "-- define: fac" in text
        assert "lambda x." in text

    def test_load_with_language(self, session, tmp_path):
        path = tmp_path / "session.repro"
        session.save(path)
        restored = Session.load(path, language=lazy)
        assert restored.language is lazy

    def test_empty_session(self, tmp_path):
        path = tmp_path / "empty.repro"
        Session().save(path)
        restored = Session.load(path)
        assert restored.names() == ()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a session\n")
        with pytest.raises(ReproError):
            Session.load(path)

    def test_hand_edit_survives(self, session, tmp_path):
        path = tmp_path / "session.repro"
        session.save(path)
        text = path.read_text().replace("x + x", "x * 3")
        path.write_text(text)
        restored = Session.load(path)
        assert restored.evaluate("double 2").answer == 6

    def test_label_and_header_annotations_round_trip(self, tmp_path):
        # Annotated definitions must survive pretty() -> save -> parse():
        # both bare labels and tracer headers come back firing.
        from repro.monitors import TracerMonitor

        s = Session()
        s.define(
            "fac",
            "lambda x. {fac(x)}: {fac}: if x = 0 then 1 else x * fac (x - 1)",
        )
        path = tmp_path / "annotated.repro"
        s.save(path)
        restored = Session.load(path)
        result = restored.evaluate("fac 4", tools=[TracerMonitor(), "count"])
        assert result.answer == 24
        assert result.report("count") == {"fac": 5}
        assert "[FAC receives (4)]" in result.report("trace")


class TestSessionFaultIsolation:
    @pytest.fixture
    def saved_session(self, tmp_path):
        s = Session()
        s.define("fac", "lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1)")
        path = tmp_path / "fault.repro"
        s.save(path)
        return Session.load(path)

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    def test_quarantined_profiler_reports_pre_fault_counts(
        self, saved_session, engine
    ):
        # A profiler that dies on its third activation is quarantined,
        # the answer stays standard, and its report still covers the
        # calls it counted before the fault.
        from repro.monitoring.faults import FlakyMonitor
        from repro.monitors import ProfilerMonitor

        flaky = FlakyMonitor(ProfilerMonitor(), fail_on=3)
        result = saved_session.evaluate(
            "fac 4",
            tools=[flaky],
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        )
        assert result.answer == 24
        assert result.report("profile") == {"fac": 2}
        assert result.monitored.quarantined_keys() == ("profile",)
        assert not result.monitored.healthy()

    def test_propagate_stays_default_through_session(self, saved_session):
        from repro.monitoring.faults import FlakyMonitor, InjectedFault
        from repro.monitors import ProfilerMonitor

        flaky = FlakyMonitor(ProfilerMonitor(), fail_on=1)
        with pytest.raises(InjectedFault):
            saved_session.evaluate("fac 4", tools=[flaky])
