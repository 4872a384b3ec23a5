"""Tests for the command-line interface."""

import pytest

from repro.cli import main

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 4"
PLAIN_FAC = "letrec fac = lambda x. if x = 0 then 1 else x * fac (x - 1) in fac 4"


@pytest.fixture
def fac_file(tmp_path):
    path = tmp_path / "fac.lam"
    path.write_text(PLAIN_FAC)
    return str(path)


class TestRun:
    def test_inline_expression(self, capsys):
        assert main(["run", "-e", "6 * 7"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_program_file(self, capsys, fac_file):
        assert main(["run", fac_file]) == 0
        assert capsys.readouterr().out.strip() == "24"

    def test_with_tools(self, capsys):
        assert main(["run", "-e", FAC, "--tools", "profile"]) == 0
        out = capsys.readouterr().out
        assert "24" in out
        assert "'fac': 5" in out

    def test_lazy_language(self, capsys):
        assert main(["run", "-e", "let d = hd [] in 1", "--language", "lazy"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_exceptions_language(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-e",
                    "try raise 41 catch e. e + 1",
                    "--language",
                    "exceptions",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "42"

    def test_lazy_data_language(self, capsys):
        source = (
            "letrec nats = lambda n. n :: nats (n + 1) in hd (tl (nats 5))"
        )
        assert main(["run", "-e", source, "--language", "lazy-data"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_imperative_language(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-e",
                    "x := 2; emit x * 3",
                    "--language",
                    "imperative",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "x = 2" in out
        assert "output: 6" in out

    def test_missing_program(self, capsys):
        assert main(["run"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.lam"]) == 1

    def test_eval_error_reported(self, capsys):
        assert main(["run", "-e", "hd []"]) == 1
        assert "error" in capsys.readouterr().err

    def test_max_steps(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-e",
                    "letrec loop = lambda x. loop x in loop 1",
                    "--max-steps",
                    "1000",
                ]
            )
            == 1
        )


class TestTraceAndProfile:
    def test_profile_auto_annotates(self, capsys, fac_file):
        assert main(["profile", fac_file]) == 0
        out = capsys.readouterr().out
        assert "'fac': 5" in out

    def test_trace_auto_annotates(self, capsys, fac_file):
        assert main(["trace", fac_file]) == 0
        out = capsys.readouterr().out
        assert "[FAC receives (4)]" in out

    def test_functions_filter(self, capsys):
        source = (
            "letrec f = lambda x. x and g = lambda y. f y in g 1"
        )
        assert main(["profile", "-e", source, "--functions", "f"]) == 0
        out = capsys.readouterr().out
        assert "'f': 1" in out
        assert "'g'" not in out


class TestSpecialize:
    def test_residual_printed(self, capsys):
        source = (
            "letrec pow = lambda n. lambda x. "
            "if n = 0 then 1 else x * (pow (n - 1) x) in pow 3 x"
        )
        assert main(["specialize", "-e", source]) == 0
        assert capsys.readouterr().out.strip() == "x * (x * (x * 1))"

    def test_static_binding(self, capsys):
        assert main(["specialize", "-e", "x + y", "--static", "x=40"]) == 0
        assert capsys.readouterr().out.strip() == "40 + y"

    def test_bad_static(self, capsys):
        assert main(["specialize", "-e", "x", "--static", "oops"]) == 1

    def test_stats_flag(self, capsys):
        assert main(["specialize", "-e", "1 + 2", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "3"
        assert "folded" in captured.err


class TestSession:
    def test_load_and_evaluate(self, capsys, tmp_path):
        from repro.toolbox.session import Session

        session = Session()
        session.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
        path = tmp_path / "s.repro"
        session.save(path)

        assert main(["session", str(path), "--eval", "fac 5"]) == 0
        assert capsys.readouterr().out.strip() == "120"

    def test_session_with_tools(self, capsys, tmp_path):
        from repro.toolbox.session import Session

        session = Session()
        session.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
        path = tmp_path / "s.repro"
        session.save(path)

        assert main(["session", str(path), "--eval", "fac 3", "--tools", "profile"]) == 0
        out = capsys.readouterr().out
        assert "'fac': 4" in out

    def test_bad_session_file(self, capsys, tmp_path):
        path = tmp_path / "bad.repro"
        path.write_text("garbage")
        assert main(["session", str(path), "--eval", "1"]) == 1

    def test_comma_separated_tools(self, capsys, tmp_path):
        # Regression: every other subcommand splits --tools on commas, but
        # Session.evaluate used to split only on '&', so
        # ``--tools profile,trace`` died with an unknown-tool error.
        from repro.toolbox.session import Session

        session = Session()
        session.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
        path = tmp_path / "s.repro"
        session.save(path)

        assert (
            main(
                ["session", str(path), "--eval", "fac 4", "--tools", "profile,trace"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "24" in out
        assert "'fac': 5" in out          # profiler fired
        assert "[FAC receives (4)]" in out  # tracer fired too

    def test_ampersand_tools_still_work(self, capsys, tmp_path):
        from repro.toolbox.session import Session

        session = Session()
        session.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
        path = tmp_path / "s.repro"
        session.save(path)

        assert (
            main(
                ["session", str(path), "--eval", "fac 3", "--tools", "profile & trace"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "'fac': 4" in out


class TestFaultPolicy:
    @pytest.fixture
    def flaky_tool(self, monkeypatch):
        # Register a deliberately faulty toolbox monitor so the CLI's
        # fault path can be driven end-to-end.
        from repro.monitoring.faults import FlakyMonitor
        from repro.monitors import ProfilerMonitor
        from repro.toolbox import registry

        monkeypatch.setitem(
            registry.TOOLBOX,
            "flaky",
            lambda namespace=None: FlakyMonitor(
                ProfilerMonitor(namespace=namespace), fail_on=2
            ),
        )

    def test_quarantine_keeps_answer_and_reports_fault(self, capsys, flaky_tool):
        assert (
            main(
                [
                    "run",
                    "-e",
                    FAC,
                    "--tools",
                    "flaky",
                    "--fault-policy",
                    "quarantine",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "24" in out  # the standard answer survived the fault
        assert "--- faults ---" in out
        assert "profile.pre raised InjectedFault" in out
        assert "'fac': 1" in out  # calls counted before the fault

    def test_propagate_still_aborts(self, flaky_tool):
        from repro.monitoring.faults import InjectedFault

        with pytest.raises(InjectedFault):
            main(["run", "-e", FAC, "--tools", "flaky"])

    def test_healthy_run_unchanged_under_quarantine(self, capsys):
        assert (
            main(
                ["run", "-e", FAC, "--tools", "profile", "--fault-policy", "quarantine"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "'fac': 5" in out
        assert "faults" not in out

    def test_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "-e", "1", "--fault-policy", "retry"])


class TestTelemetryFlags:
    def test_run_metrics_summary(self, capsys):
        assert main(["run", "-e", FAC, "--tools", "profile", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "--- metrics ---" in out
        assert "steps:" in out
        assert "activations:       profile=5" in out

    def test_run_metrics_without_tools(self, capsys):
        assert main(["run", "-e", "6 * 7", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "42"
        assert "activations:       none" in out

    def test_run_metrics_codegen_engine(self, capsys):
        assert (
            main(["run", "-e", FAC, "--tools", "profile", "--metrics",
                  "--engine", "codegen"])
            == 0
        )
        assert "activations:       profile=5" in capsys.readouterr().out

    def test_trace_out_writes_jsonl(self, capsys, tmp_path):
        import json

        requests = tmp_path / "req.jsonl"
        requests.write_text(
            json.dumps({"program": FAC, "tools": "profile", "engine": "codegen"})
            + "\n"
        )
        path = tmp_path / "events.jsonl"
        assert main(["batch", str(requests), "--trace-out", str(path)]) == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["type"] for e in events] == [
            "batch-start", "cache-miss", "batch-request", "batch-end"
        ]

    def test_batch_trace_out_seq_is_line_order(self, capsys, tmp_path):
        """Cache and batch events share one numbering: the sink's."""
        import json

        requests = tmp_path / "req.jsonl"
        requests.write_text(
            "".join(
                json.dumps({"program": f"{n} * {n}", "engine": "codegen"}) + "\n"
                for n in (1, 2, 1, 3)
            )
        )
        path = tmp_path / "events.jsonl"
        assert main(["batch", str(requests), "--trace-out", str(path)]) == 0
        seqs = [json.loads(line)["seq"] for line in path.read_text().splitlines()]
        assert len(seqs) > 4
        assert seqs == list(range(1, len(seqs) + 1))

    def test_trace_out_is_batch_only(self, capsys, tmp_path):
        trace = str(tmp_path / "t.trace")
        for argv in (["run"], ["trace"], ["profile"], ["debug"], ["record", "-o", trace]):
            with pytest.raises(SystemExit):
                main(argv + ["-e", "1", "--trace-out", str(tmp_path / "x")])
            assert "unrecognized arguments: --trace-out" in capsys.readouterr().err

    def test_profile_subcommand_metrics(self, capsys):
        assert main(["profile", "-e", PLAIN_FAC, "--metrics"]) == 0
        assert "pre calls:         profile=5" in capsys.readouterr().out

    def test_trace_subcommand_metrics(self, capsys):
        assert main(["trace", "-e", PLAIN_FAC, "--metrics"]) == 0
        assert "--- metrics ---" in capsys.readouterr().out

    def test_session_metrics(self, capsys, tmp_path):
        from repro.toolbox.session import Session

        session = Session()
        session.define("fac", "lambda x. if x = 0 then 1 else x * fac (x - 1)")
        path = tmp_path / "s.repro"
        session.save(path)
        assert (
            main(["session", str(path), "--eval", "fac 5", "--tools",
                  "profile", "--metrics"])
            == 0
        )
        out = capsys.readouterr().out
        assert "120" in out and "--- metrics ---" in out

    def test_debug_metrics(self, capsys):
        assert (
            main(["debug", "-e", FAC, "--command", "continue", "--metrics"])
            == 0
        )
        out = capsys.readouterr().out
        assert "=> 24" in out
        assert "activations:       debug=5" in out


class TestDebugFaultPolicy:
    """Regression: ``debug`` lacked ``--fault-policy`` entirely, so a
    buggy debugger monitor always aborted the program being debugged."""

    @pytest.fixture
    def flaky_debugger(self, monkeypatch):
        from repro.monitoring.faults import FlakyMonitor
        from repro.monitors import interactive
        from repro.monitors.debugger import DebuggerMonitor

        def make(*args, **kwargs):
            return FlakyMonitor(DebuggerMonitor(*args, **kwargs), fail_on=1)

        monkeypatch.setattr(interactive, "DebuggerMonitor", make)

    def test_quarantine_keeps_answer_and_reports_fault(
        self, capsys, flaky_debugger
    ):
        assert (
            main(["debug", "-e", FAC, "--command", "continue",
                  "--fault-policy", "quarantine"])
            == 0
        )
        captured = capsys.readouterr()
        assert "=> 24" in captured.out
        assert "monitor fault: debug.pre raised InjectedFault" in captured.err

    def test_propagate_still_aborts(self, flaky_debugger):
        from repro.monitoring.faults import InjectedFault

        with pytest.raises(InjectedFault):
            main(["debug", "-e", FAC, "--command", "continue"])

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["debug", "-e", "1", "--command", "quit",
                  "--fault-policy", "retry"])


class TestDebug:
    def test_max_steps_enforced(self, capsys):
        # Regression: cmd_debug used to drop --max-steps on the floor, so
        # a divergent program under the debugger span forever.
        assert (
            main(
                [
                    "debug",
                    "-e",
                    "letrec loop = lambda x. loop x in loop 1",
                    "--max-steps",
                    "500",
                    "--command",
                    "quit",
                ]
            )
            == 1
        )
        assert "step limit of 500" in capsys.readouterr().err

    def test_scripted_session(self, capsys):
        assert (
            main(
                [
                    "debug",
                    "-e",
                    FAC,
                    "--break",
                    "fac",
                    "--command",
                    "print x",
                    "--command",
                    "quit",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stopped at fac" in out
        assert "x = 4" in out
        assert "=> 24" in out


class TestCheckLexicalErrors:
    def test_superscript_digit_is_a_located_diagnostic(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "-e", "x²"],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"),
        )
        assert proc.returncode == 1
        assert "REP002] 1:2: unexpected character '²'" in proc.stdout
        assert "Traceback" not in proc.stderr + proc.stdout

    def test_batch_record_reports_a_lex_error(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"program": "x\\u00b2"}\n', encoding="utf-8")
        assert main(["batch", str(requests)]) == 1  # a failed record
        record = json.loads(capsys.readouterr().out)
        assert record["error_type"] == "LexError"
        assert record["error"] == "lexical error at 1:2: unexpected character '²'"


class TestCheckpointIntervalValidation:
    """--checkpoint-interval is rejected at flag level, not as a traceback,
    and only ``replay``, the one subcommand that reads it, takes it."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_run_rejects_non_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "-e", "1 + 1", "--checkpoint-interval", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --checkpoint-interval" in err

    def test_replay_rejects_non_positive(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("", encoding="utf-8")
        assert (
            main(["replay", str(trace), "--checkpoint-interval", "0"]) == 1
        )
        err = capsys.readouterr().err
        assert "--checkpoint-interval must be a positive integer" in err

    def test_valid_interval_still_accepted(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["record", "-e", FAC, "-o", str(trace)]) == 0
        capsys.readouterr()
        assert (
            main(["replay", str(trace), "--checkpoint-interval", "7",
                  "--command", "quit"])
            == 0
        )
        assert "stopped at fac" in capsys.readouterr().out


class TestOptimizeFlag:
    def test_flow_run_matches_plain(self, capsys):
        assert main(["run", "-e", FAC, "--tools", "count", "--engine", "codegen"]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    "run",
                    "-e",
                    FAC,
                    "--tools",
                    "count",
                    "--engine",
                    "codegen",
                    "--optimize",
                    "flow",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == plain

    def test_lint_warn_includes_flow_pass(self, capsys):
        assert (
            main(
                [
                    "run",
                    "-e",
                    "if false then {p}: 1 else 2",
                    "--tools",
                    "count",
                    "--optimize",
                    "flow",
                    "--lint",
                    "warn",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "REP501" in captured.err


class TestServeFlags:
    """repro serve builds its run config from the shared run flags."""

    @pytest.fixture
    def served_config(self, monkeypatch):
        from repro.errors import ReproError
        from repro.runtime import serve

        captured = {}

        class CapturingServer:
            def __init__(self, *, config, **options):
                captured["config"] = config
                raise ReproError("server not started")

        monkeypatch.setattr(serve, "Server", CapturingServer)

        def run(*flags):
            assert main(["serve", "--socket", "unused.sock", *flags]) == 1
            return captured["config"]

        return run

    def test_run_flags_reach_the_server(self, served_config):
        config = served_config("--optimize", "flow", "--engine", "codegen")
        assert config.optimize == "flow"
        assert config.engine == "codegen"

    def test_record_dir_names_where_record_requests_write(self, served_config):
        config = served_config("--record-dir", "traces")
        assert config.record_dir == "traces"
        assert config.mode == "inline"
