"""The replay suite: checkpointed seeks are the straight fold, bit for bit.

A :class:`~repro.replay.session.ReplaySession` claims to be
``analyze_trace`` with a cursor — restoring a checkpoint and folding the
gap must land on exactly the state the one-pass fold reaches.  These
tests make that a property (hypothesis-generated programs, recorded
under every engine the language supports, seeked to every checkpoint
boundary; flaky stacks under ``quarantine`` and ``log``), pin the
scripted ``repro replay`` transcript to a golden, and cover the
satellites: v2 ``input``/``deadline`` records, the ``REP401``
history-overflow diagnostic, the :class:`DebugResult` wire format, and
``config=`` as the only spelling of run options on every entry point.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import EvaluationTimeout
from repro.languages.imperative import imperative
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.faults import FlakyMonitor
from repro.monitors import HistoryMonitor, LabelCounterMonitor, ProfilerMonitor
from repro.monitors.interactive import DebugResult, debug
from repro.observability import RunMetrics
from repro.replay import (
    HISTORY_KEY,
    ReplayDebugger,
    ReplaySession,
    default_stack,
    sidecar_path,
)
from repro.runtime import RunConfig, RunRequest
from repro.syntax.parser import parse
from repro.toolbox import Session, evaluate
from repro.tracing import analyze_trace, read_trace
from repro.tracing.record import record

from tests.generators import closed_program, recursive_program
from tests.test_imp_properties import closed_imp_program

FAC = (
    "letrec fac = lambda x. {fac(x)}: "
    "if x = 0 then 1 else x * fac (x - 1) in fac 5"
)
LOOP = "letrec loop = lambda x. {loop}: loop (x + 1) in loop 0"
# Two labelled sites; SWAPPED exchanges the labels (same site count).
TWO_SITES = (
    "letrec f = lambda n. if n = 0 then 0 "
    "else ({a}: f (n - 1)) + ({b}: 1) in f 6"
)
SWAPPED = (
    "letrec f = lambda n. if n = 0 then 0 "
    "else ({b}: f (n - 1)) + ({a}: 1) in f 6"
)

ENGINES = ("reference", "codegen")


def _record_tmp(language, program, *, engine="reference"):
    """Record ``program`` into a throwaway path (hypothesis-safe)."""
    handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="replay-")
    os.close(handle)
    record(
        language,
        program,
        path,
        config=RunConfig(engine=engine, metrics=RunMetrics()),
    )
    return path


def _stack():
    return [HistoryMonitor(64, key=HISTORY_KEY)]


def _imp_stack():
    # HistoryMonitor renders every observed value; imperative stores are
    # not renderable, so the L_imp property folds a counting monitor.
    return [LabelCounterMonitor()]


def assert_seeks_match_straight_fold(
    path, *, interval=3, stack=_stack, fault_policy="propagate"
):
    """Every checkpoint-boundary seek equals a from-scratch fold."""
    session = ReplaySession(
        path,
        stack(),
        checkpoint_interval=interval,
        metrics=True,
        fault_policy=fault_policy,
    )
    total = len(session)
    session.seek(total)  # populate the checkpoint index on the way out
    positions = sorted(
        {0, total, *range(interval, total + 1, interval)}
    )
    for position in positions:
        session.seek(position)  # backward: restored from a checkpoint
        fresh = ReplaySession(
            path,
            stack(),
            checkpoint_interval=10**9,
            metrics=True,
            fault_policy=fault_policy,
        )
        fresh.seek(position)  # forward only: the straight-line fold
        for key in session.states.keys():
            assert session.states.get(key) == fresh.states.get(key), (
                f"state {key!r} diverged at position {position}"
            )
        assert session.metrics == fresh.metrics, (
            f"metrics diverged at position {position}"
        )
        assert session.faults == fresh.faults, (
            f"fault records diverged at position {position}"
        )
        assert session.disabled == fresh.disabled, (
            f"disabled slots diverged at position {position}"
        )
    return session


class TestCheckpointEquivalence:
    """The tentpole property, engine by engine and language by language."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=15, deadline=None)
    @given(program=closed_program())
    def test_lambda_seeks_match_fold(self, engine, program):
        path = _record_tmp(strict, program, engine=engine)
        try:
            assert_seeks_match_straight_fold(path)
        finally:
            os.unlink(path)

    @settings(max_examples=15, deadline=None)
    @given(program=closed_imp_program())
    def test_imp_seeks_match_fold(self, program):
        path = _record_tmp(imperative, program)
        try:
            assert_seeks_match_straight_fold(path, stack=_imp_stack)
        finally:
            os.unlink(path)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_analysis_equals_analyze_trace(self, tmp_path, engine):
        path = str(tmp_path / "t.jsonl")
        record(
            strict,
            parse(FAC),
            path,
            config=RunConfig(engine=engine, metrics=RunMetrics()),
        )
        session = ReplaySession(
            path, _stack(), checkpoint_interval=3, metrics=True
        )
        via_session = session.analysis()
        via_fold = analyze_trace(path, _stack(), metrics=True)
        assert via_session.answer == via_fold.answer
        assert (
            via_session.states.get(HISTORY_KEY)
            == via_fold.states.get(HISTORY_KEY)
        )
        assert via_session.metrics == via_fold.metrics

    def test_seek_clamps_and_is_idempotent(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(FAC), path)
        session = ReplaySession(path, _stack(), checkpoint_interval=3)
        assert session.seek(10**9) == len(session)
        state_at_end = session.states.get(HISTORY_KEY)
        assert session.seek(-5) == 0
        assert session.seek(len(session)) == len(session)
        assert session.states.get(HISTORY_KEY) == state_at_end


class TestFaultPolicySeeks:
    """Quarantine and log under the cursor: checkpoints rewind faults too."""

    @pytest.mark.parametrize("policy", ["quarantine", "log"])
    @settings(max_examples=15, deadline=None)
    @given(
        program=recursive_program(),
        fail_on=st.integers(1, 3),
        phase=st.sampled_from(("pre", "post", "both")),
    )
    @example(program=parse(FAC.replace("{fac(x)}", "{fac}")), fail_on=3, phase="pre")
    def test_faulting_seeks_match_analyze_trace(
        self, policy, program, fail_on, phase
    ):
        def stack():
            return [
                FlakyMonitor(LabelCounterMonitor(), fail_on=fail_on, phase=phase)
            ]

        path = _record_tmp(strict, program)
        try:
            straight = analyze_trace(
                path, stack(), fault_policy=policy, metrics=True
            )
            probe = ReplaySession(
                path, stack(), fault_policy=policy, checkpoint_interval=10**9
            )
            total = len(probe)
            fault_at = next(
                (p for p in range(1, total + 1) if probe.seek(p) and probe.faults),
                None,
            )
            # A boundary just before the fault, so a backward seek across
            # it restores a fault-free checkpoint rather than the origin.
            interval = max(1, fault_at - 1) if fault_at else 2
            # Seeks to every boundary, each one backward from the end, so
            # the first crosses the fault; then forward to the end.
            session = assert_seeks_match_straight_fold(
                path, interval=interval, stack=stack, fault_policy=policy
            )
            if fault_at is not None:
                session.seek(fault_at - 1)
                assert session.faults == ()
                assert session.disabled == frozenset()
                session.seek(fault_at)
                assert session.faults == straight.faults[:1]
            via_session = session.analysis()
            assert via_session.reports() == straight.reports()
            assert via_session.faults == straight.faults
            assert via_session.metrics == straight.metrics
        finally:
            os.unlink(path)

    def test_seeks_keep_the_fold_accumulators(self, tmp_path):
        """A restore rewinds the fold's metrics and fault log in place:
        the objects its hook wrappers charge stay the session's own."""
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(FAC.replace("{fac(x)}", "{fac}")), path)

        def stack():
            return [FlakyMonitor(LabelCounterMonitor(), fail_on=3, phase="pre")]

        session = ReplaySession(
            path, stack(), fault_policy="quarantine", checkpoint_interval=2
        )
        metrics, fault_log = session.metrics, session.fault_log
        session.seek(5)  # past the checkpoints at 2 and 4, and the fault
        session.seek(0)
        session.seek(len(session))
        assert session.metrics is metrics
        assert session.fault_log is fault_log
        straight = analyze_trace(
            path, stack(), fault_policy="quarantine", metrics=True
        )
        assert tuple(fault_log.faults) == straight.faults != ()
        assert fault_log.disabled == {"count"}
        assert session.analysis().metrics == straight.metrics
        assert metrics.activations == straight.metrics.activations
        assert metrics.faults == straight.metrics.faults == {"count": 1}


class TestSidecar:
    def test_roundtrip_skips_refolding(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(FAC), path)
        first = ReplaySession(
            path, _stack(), checkpoint_interval=3, use_sidecar=True
        )
        first.seek(len(first))
        assert first.save_checkpoints()
        assert os.path.exists(sidecar_path(path))

        second = ReplaySession(
            path, _stack(), checkpoint_interval=3, use_sidecar=True
        )
        # The index arrived pre-populated: a backward-looking seek finds
        # a checkpoint even though this session never folded past it.
        assert second.checkpoints.nearest(len(second)).position > 0
        second.seek(5)
        fresh = ReplaySession(path, _stack(), checkpoint_interval=10**9)
        fresh.seek(5)
        assert second.states.get(HISTORY_KEY) == fresh.states.get(HISTORY_KEY)

    def test_corrupt_sidecar_is_ignored(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(FAC), path)
        with open(sidecar_path(path), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        session = ReplaySession(
            path, _stack(), checkpoint_interval=3, use_sidecar=True
        )
        session.seek(len(session))
        assert session.analysis().answer == 120

    def test_fold_identity_keys_the_sidecar(self, tmp_path):
        # A checkpoint's states, faults and counters depend on the specs'
        # configuration, the fault policy and whether metrics are on.
        path = str(tmp_path / "t.jsonl")
        labelled = FAC.replace("{fac(x)}", "{fac}")
        record(strict, parse(labelled), path)

        def session(policy, metrics, fail_on=3, interval=3):
            return ReplaySession(
                path,
                [FlakyMonitor(LabelCounterMonitor(), fail_on=fail_on)],
                fault_policy=policy,
                metrics=metrics,
                checkpoint_interval=interval,
                use_sidecar=True,
            )

        saved = session("quarantine", False)
        saved.seek(len(saved))
        assert saved.save_checkpoints()

        loaded = session("log", True)
        loaded.seek(5)
        fresh = session("log", True, interval=10**9)
        fresh.seek(5)
        assert loaded.disabled == fresh.disabled == frozenset()
        assert loaded.metrics == fresh.metrics
        assert loaded.metrics.pre_calls == {"count": 5}
        assert loaded.states.get("count") == fresh.states.get("count")

        for fail_on in (3, 4):
            other = session("quarantine", False, fail_on=fail_on)
            reused = other.checkpoints.nearest(len(other)) is not None
            assert reused == (fail_on == 3)

    @staticmethod
    def _counting(path, **kwargs):
        return ReplaySession(
            path,
            [LabelCounterMonitor()],
            checkpoint_interval=3,
            use_sidecar=True,
            **kwargs,
        )

    def _assert_every_position_fresh(self, path):
        loaded = self._counting(path)
        fresh = ReplaySession(path, [LabelCounterMonitor()])
        for position in range(len(fresh) + 1):
            loaded.seek(position)
            fresh.seek(position)
            assert loaded.states.get("count") == fresh.states.get("count"), position

    def test_rerecorded_trace_rebuilds(self, tmp_path):
        # A checkpoint is a fold over the trace's events: recording the
        # same program again, over fewer sites, must retire the sidecar.
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(TWO_SITES), path)
        first = self._counting(path)
        first.seek(len(first))
        assert first.save_checkpoints()
        record(strict, parse(TWO_SITES), path, sites=["b"])
        self._assert_every_position_fresh(path)

    def test_program_override_keys_the_sidecar(self, tmp_path):
        # The sidecar is keyed on the program folded, not on the
        # program the trace header names.
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(TWO_SITES), path)
        swapped = self._counting(path, program=parse(SWAPPED))
        swapped.seek(len(swapped))
        assert swapped.save_checkpoints()
        self._assert_every_position_fresh(path)

    def test_sidecar_is_keyed_on_the_bytes_read_trace_parsed(self, tmp_path):
        # A trace read, then rewritten on disk before the session opens:
        # the session folds the bytes it was given, so its checkpoints
        # must not be keyed on (and served for) the new file.
        import hashlib

        path = str(tmp_path / "t.jsonl")
        record(strict, parse(TWO_SITES), path)
        read_first = read_trace(path)
        with open(path, "rb") as handle:
            assert read_first.digest == hashlib.sha256(handle.read()).hexdigest()
        record(strict, parse(TWO_SITES), path, sites=["b"])
        stale = self._counting(read_first)
        stale.seek(len(stale))
        assert stale.save_checkpoints()
        self._assert_every_position_fresh(path)

    def test_used_accumulator_neither_loads_nor_saves(self, tmp_path):
        # Checkpoints carry the counters the fold started from: a session
        # folding into an accumulator that already holds counts must not
        # hand its checkpoints to a fresh metrics=True session, nor adopt
        # checkpoints a fresh session saved.
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(FAC.replace("{fac(x)}", "{fac}")), path)
        used = RunMetrics()
        for _ in range(2):
            analyze_trace(path, [LabelCounterMonitor()], metrics=used)
        assert used != RunMetrics()
        dirty = self._counting(path, metrics=used)
        dirty.seek(len(dirty))
        assert not dirty.save_checkpoints()
        assert not os.path.exists(sidecar_path(path))

        clean = self._counting(path)
        clean.seek(len(clean))
        assert clean.save_checkpoints()
        fresh = ReplaySession(path, [LabelCounterMonitor()])
        fresh.seek(6)
        loaded = self._counting(path)
        assert len(loaded.checkpoints) > 0
        loaded.seek(6)
        assert loaded.metrics == fresh.metrics
        assert fresh.metrics.pre_calls == {"count": 6}

        before = used.copy()
        again = self._counting(path, metrics=used)
        assert len(again.checkpoints) == 0
        again.seek(6)
        assert used.pre_calls == {"count": before.pre_calls["count"] + 6}

    def test_old_envelope_version_is_ignored(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(TWO_SITES), path)
        first = self._counting(path)
        first.seek(len(first))
        assert first.save_checkpoints()
        assert len(self._counting(path).checkpoints) > 0
        with open(sidecar_path(path), encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["sidecar_version"] = 2
        with open(sidecar_path(path), "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert len(self._counting(path).checkpoints) == 0

    def test_stack_mismatch_rebuilds(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(FAC), path)
        first = ReplaySession(
            path, _stack(), checkpoint_interval=3, use_sidecar=True
        )
        first.seek(len(first))
        first.save_checkpoints()
        # A different monitor stack must not adopt the stale checkpoints.
        other = ReplaySession(
            path,
            [ProfilerMonitor()],
            checkpoint_interval=3,
            use_sidecar=True,
        )
        stale = other.checkpoints.nearest(len(other))
        assert stale is None or stale.position == 0


class TestTimeTravelDebugger:
    def _session(self, tmp_path, source=FAC, interval=3, capacity=64):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(source), path)
        return ReplaySession(
            path,
            default_stack(capacity=capacity),
            checkpoint_interval=interval,
        )

    def _run(self, session, script, **kwargs):
        debugger = ReplayDebugger(session, script=script, **kwargs)
        return debugger, debugger.run()

    def test_back_returns_to_previous_activation(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(
            session, ["step", "step", "back", "print x", "quit"]
        )
        assert "back at fac (event 2 of 12)" in transcript
        assert "x = 4" in transcript

    def test_goto_and_rewind(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(
            session, ["goto 8", "rewind", "quit"]
        )
        assert "at event 8:" in transcript
        assert "rewound to the start of the trace" in transcript

    def test_when_was_finds_the_event(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(session, ["when-was fac = 6", "quit"])
        assert "when-was: fac = 6 at event" in transcript

    def test_value_at_numbers_activations(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(session, ["value-at fac 1", "quit"])
        assert "value-at: fac activation 1 = 1" in transcript

    def test_omniscient_overflow_carries_rep401(self, tmp_path):
        session = self._session(tmp_path, capacity=2)
        debugger, transcript = self._run(
            session, ["when-was fac = 6", "quit"]
        )
        assert "warning[REP401]" in transcript
        assert any(d.code == "REP401" for d in debugger.diagnostics)
        assert all(d.severity == "warning" for d in debugger.diagnostics)

    def test_ample_capacity_has_no_diagnostic(self, tmp_path):
        session = self._session(tmp_path, capacity=64)
        debugger, _ = self._run(session, ["when-was fac = 6", "quit"])
        assert debugger.diagnostics == []

    def test_shared_grammar_rejects_nothing_live_accepts(self, tmp_path):
        # The live debugger's command set is a subset of the replay
        # set: every live command parses and does something post-hoc.
        session = self._session(tmp_path)
        live_commands = [
            "step",
            "print x",
            "vars",
            "where",
            "breakpoints",
            "help",
            "continue",
            "quit",
        ]
        _, transcript = self._run(session, live_commands)
        assert "unknown command" not in transcript


class TestReplayCli:
    def _trace(self, tmp_path, capsys):
        path = str(tmp_path / "fac.jsonl")
        assert main(["record", "-e", FAC, "-o", path]) == 0
        capsys.readouterr()
        return path

    def test_scripted_session_golden(self, tmp_path, capsys, golden):
        path = self._trace(tmp_path, capsys)
        assert (
            main(
                [
                    "replay",
                    path,
                    "--checkpoint-interval",
                    "3",
                    "--command", "step",
                    "--command", "print x",
                    "--command", "where",
                    "--command", "goto 8",
                    "--command", "back",
                    "--command", "events 4",
                    "--command", "when-was fac = 2",
                    "--command", "value-at fac 2",
                    "--command", "rewind",
                    "--command", "continue",
                    "--command", "quit",
                ]
            )
            == 0
        )
        golden("replay_session.txt", capsys.readouterr().out)

    def test_breakpoints_and_finish(self, tmp_path, capsys):
        path = self._trace(tmp_path, capsys)
        assert (
            main(
                [
                    "replay",
                    path,
                    "--break", "fac",
                    "--command", "finish",
                    "--command", "quit",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stopped at fac (event 1 of 12)" in out
        assert "fac returned 120" in out

    def test_sidecar_flag_persists_checkpoints(self, tmp_path, capsys):
        path = self._trace(tmp_path, capsys)
        args = [
            "replay",
            path,
            "--sidecar",
            "--checkpoint-interval",
            "3",
            "--command", "continue",
            "--command", "continue",
            "--command", "continue",
            "--command", "continue",
            "--command", "continue",
            "--command", "quit",
        ]
        assert main(args) == 0
        assert os.path.exists(sidecar_path(path))
        capsys.readouterr()
        assert main(args) == 0  # second run loads the sidecar

    def test_run_flags_are_shared_with_debug(self):
        # cmd_debug/cmd_replay share the debugger flags and the run flags
        # both read; each takes only the run flags it reads.
        parser = __import__("repro.cli", fromlist=["build_parser"]).build_parser()
        for subcommand, extra, own in (
            ("debug", ["-e", FAC], ["--max-steps", "100"]),
            ("replay", ["t.jsonl"], ["--checkpoint-interval", "7"]),
        ):
            args = parser.parse_args(
                [
                    subcommand,
                    *extra,
                    "--break", "fac",
                    "--command", "quit",
                    "--fault-policy", "log",
                    *own,
                ]
            )
            assert args.fault_policy == "log"
            assert args.breakpoints == ["fac"]
        for subcommand, extra, other in (
            ("debug", ["-e", FAC], ["--checkpoint-interval", "7"]),
            ("replay", ["t.jsonl"], ["--max-steps", "100"]),
        ):
            with pytest.raises(SystemExit):
                parser.parse_args([subcommand, *extra, *other])


class TestRecordedDebugSessions:
    """v2 ``input`` records: a live session becomes a replayable trace."""

    def test_commands_become_input_records(self, tmp_path):
        script = ["step", "print x", "continue", "quit"]
        result = debug(
            parse(FAC),
            script=script,
            source=lambda: None,
            output=lambda line: None,
            config=RunConfig(mode="record", record_dir=str(tmp_path)),
        )
        assert result.trace is not None
        trace = read_trace(result.trace)
        consumed = trace.commands()
        assert consumed[: len(script)] == script[: len(consumed)]
        assert consumed  # at least one command was consumed and recorded
        # input positions are within the event stream
        assert all(0 <= i.pos <= len(trace.events) for i in trace.inputs)

    def test_recorded_session_replays(self, tmp_path):
        result = debug(
            parse(FAC),
            script=["continue", "quit"],
            source=lambda: None,
            output=lambda line: None,
            config=RunConfig(mode="record", record_dir=str(tmp_path)),
        )
        session = ReplaySession(
            result.trace, default_stack(), checkpoint_interval=3
        )
        assert session.analysis().answer == 120

    def test_debug_without_record_dir_is_an_error(self):
        from repro.tracing.schema import TraceError

        with pytest.raises(TraceError):
            debug(
                parse(FAC),
                script=["quit"],
                source=lambda: None,
                output=lambda line: None,
                config=RunConfig(mode="record"),
            )


class TestDeadlineRecords:
    """v2 ``deadline`` records: a timed-out run is complete, not broken."""

    def _timed_out_trace(self, tmp_path):
        path = str(tmp_path / "loop.jsonl")
        with pytest.raises(EvaluationTimeout):
            record(
                strict,
                parse(LOOP),
                path,
                config=RunConfig(timeout=0.05),
            )
        return path

    def test_deadline_marks_complete_not_truncated(self, tmp_path):
        path = self._timed_out_trace(tmp_path)
        trace = read_trace(path)  # no allow_truncated needed
        assert trace.timed_out
        assert not trace.truncated
        assert trace.deadline["events"] == len(trace.events)

    def test_timed_out_trace_replays_to_its_deadline(self, tmp_path):
        path = self._timed_out_trace(tmp_path)
        session = ReplaySession(path, _stack(), checkpoint_interval=16)
        session.seek(len(session))
        assert session.position == len(session.trace.events)
        debugger = ReplayDebugger(session, script=["continue", "quit"])
        transcript = debugger.run()
        assert "run timed out after" in transcript


class TestDebugResultWire:
    def _result(self):
        return debug(
            parse(FAC),
            script=["step", "print x", "continue", "quit"],
            source=lambda: None,
            output=lambda line: None,
        )

    def test_roundtrip(self):
        result = self._result()
        wire = result.to_dict()
        back = DebugResult.from_dict(wire)
        assert back.ok == result.ok
        # ``to_dict`` renders the answer for the wire, like RunResult.
        assert back.answer in (120, "120")
        assert back.transcript == result.transcript
        assert back.stops == result.stops
        assert back.duration == result.duration
        assert back.monitored is None

    def test_wire_is_json_and_run_result_shaped(self):
        wire = self._result().to_dict()
        json.dumps(wire)  # serializable end to end
        # The RunResult conventions: ok/answer/reports/duration present.
        assert set(("ok", "answer", "reports", "duration")) <= set(wire)
        assert wire["reports"]["debug"] == self._result().transcript

    def test_report_spelling_still_works(self):
        result = self._result()
        assert result.report() == result.transcript
        assert result.healthy()


def _quiet_debug(**options):
    return debug(
        parse(FAC),
        script=["quit"],
        source=lambda: None,
        output=lambda line: None,
        **options,
    )


#: Each public entry point, called with one loose run-option keyword:
#: ``config=RunConfig(...)`` is the only spelling they accept.
LOOSE_KEYWORD_CALLS = {
    "run_monitored": lambda: run_monitored(
        strict, parse(FAC), [ProfilerMonitor()], engine="codegen"
    ),
    "evaluate": lambda: evaluate("profile", FAC, engine="codegen"),
    "Session.evaluate": lambda: Session().evaluate("1 + 1", engine="codegen"),
    "debug": lambda: _quiet_debug(max_steps=100_000),
    "record": lambda: record(strict, parse(FAC), "unused.jsonl", sample_rate=0.5),
    "strict.evaluate": lambda: strict.evaluate(parse(FAC), engine="codegen"),
    "RunRequest": lambda: RunRequest(program=FAC, timeout=1.0),
}


@pytest.mark.parametrize("entry", sorted(LOOSE_KEYWORD_CALLS))
def test_loose_option_keyword_is_a_type_error(entry):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        LOOSE_KEYWORD_CALLS[entry]()


class TestCheckpointIntervalConfig:
    def test_default_and_override(self):
        assert RunConfig().checkpoint_interval == 512
        assert RunConfig(checkpoint_interval=8).checkpoint_interval == 8

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "16"])
    def test_invalid_interval_rejected(self, bad):
        with pytest.raises(Exception):
            RunConfig(checkpoint_interval=bad).validate()
