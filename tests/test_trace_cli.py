"""``repro record`` / ``repro analyze``: the post-hoc monitoring CLI.

Beyond the happy path, the analyzer is the part of the toolchain that
meets files from outside the process — every malformed input it can see
must come back as a located ``error:`` diagnostic and exit code 1,
never a traceback.
"""

import json
import os

import pytest

from repro.cli import main

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 5"


@pytest.fixture
def trace_file(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    assert main(["record", "-e", FAC, "-o", path]) == 0
    capsys.readouterr()  # drain the record run's own output
    return path


class TestRecord:
    def test_prints_answer_and_trace_summary(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert main(["record", "-e", FAC, "-o", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "120"
        assert f"trace: {path}" in captured.err
        assert "events" in captured.err

    def test_sampling_flags(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert (
            main(
                [
                    "record", "-e", FAC, "-o", path,
                    "--sample", "0.5", "--seed", "7",
                ]
            )
            == 0
        )
        assert "sampled out" in capsys.readouterr().err

    def test_bad_sample_rate_is_an_error(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        code = main(["record", "-e", FAC, "-o", path, "--sample", "2.0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_site_filter(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert (
            main(
                [
                    "record", "-e", "({p0}: 1) + ({p1}: 2)",
                    "-o", path, "--sites", "p1",
                ]
            )
            == 0
        )
        assert "1/2 sites" in capsys.readouterr().err


class TestAnalyze:
    def test_fold_single_stack(self, capsys, trace_file):
        assert main(["analyze", trace_file, "--monitors", "count"]) == 0
        out = capsys.readouterr().out
        assert "120" in out
        assert "'fac': 6" in out

    def test_fold_many_stacks(self, capsys, trace_file):
        assert (
            main(
                [
                    "analyze", trace_file,
                    "--monitors", "count",
                    "--monitors", "trace",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "=== stack: count ===" in out
        assert "=== stack: trace ===" in out

    def test_workers_flag_is_gone(self, trace_file):
        # Stacks fold one after another over the once-read trace.
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", trace_file, "--monitors", "count", "--workers", "2"])
        assert exit_info.value.code == 2

    def test_list_sites(self, capsys, trace_file):
        assert main(["analyze", trace_file, "--list-sites"]) == 0
        assert "0: {fac}" in capsys.readouterr().out

    def test_metrics_flag(self, capsys, trace_file):
        assert (
            main(["analyze", trace_file, "--monitors", "count", "--metrics"])
            == 0
        )
        assert "steps" in capsys.readouterr().out

    def test_no_monitors_is_an_error(self, capsys, trace_file):
        assert main(["analyze", trace_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--monitors" in err


class TestAnalyzeDiagnostics:
    """Malformed traces: located errors, exit 1, no traceback."""

    def assert_located_error(self, capsys, code, path):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert path in err
        assert "Traceback" not in err
        return err

    def test_empty_trace(self, capsys, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        code = main(["analyze", path, "--monitors", "count"])
        err = self.assert_located_error(capsys, code, path)
        assert "empty" in err

    def test_missing_trace_file(self, capsys, tmp_path):
        code = main(["analyze", str(tmp_path / "nope.jsonl"), "--monitors", "count"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_truncated_final_line(self, capsys, tmp_path, trace_file):
        with open(trace_file, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.write(text[:-20])
        code = main(["analyze", trace_file, "--monitors", "count"])
        err = self.assert_located_error(capsys, code, trace_file)
        assert "--allow-truncated" in err

    def test_allow_truncated_recovers(self, capsys, tmp_path, trace_file):
        with open(trace_file, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])  # drop the end record entirely
        assert (
            main(
                [
                    "analyze", trace_file,
                    "--monitors", "count",
                    "--allow-truncated",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "<truncated trace: no recorded answer>" in out
        assert "'fac': 6" in out

    def test_unknown_event_type(self, capsys, tmp_path, trace_file):
        with open(trace_file, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(1, '{"t":"zap"}\n')
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        code = main(["analyze", trace_file, "--monitors", "count"])
        err = self.assert_located_error(capsys, code, trace_file)
        assert ":2:" in err
        assert "unknown event type" in err

    def test_garbage_mid_file(self, capsys, tmp_path, trace_file):
        with open(trace_file, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(2, "{not json\n")
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        code = main(["analyze", trace_file, "--monitors", "count"])
        err = self.assert_located_error(capsys, code, trace_file)
        assert ":3:" in err

    def test_version_bump(self, capsys, tmp_path, trace_file):
        with open(trace_file, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        header = json.loads(lines[0])
        header["trace_version"] = 99
        lines[0] = json.dumps(header) + "\n"
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        code = main(["analyze", trace_file, "--monitors", "count"])
        err = self.assert_located_error(capsys, code, trace_file)
        assert "re-record" in err


class TestRecordModeRunAndBatch:
    def test_batch_record_mode_emits_trace_path(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps(
                {
                    "program": FAC,
                    "tools": "count",
                    "mode": "record",
                    "record_dir": str(tmp_path / "traces"),
                }
            )
            + "\n"
        )
        out_path = tmp_path / "results.jsonl"
        assert (
            main(["batch", str(requests), "--output", str(out_path)]) == 0
        )
        [result] = [
            json.loads(line) for line in out_path.read_text().splitlines()
        ]
        assert result["ok"] is True
        assert result["trace"].endswith(".jsonl")
        assert main(["analyze", result["trace"], "--monitors", "count"]) == 0
        assert "'fac': 6" in capsys.readouterr().out


class TestRecordDirFlag:
    """``--record-dir`` names a directory; only record mode writes to it."""

    def _batch(self, tmp_path, *flags):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"program": "1 + 2"}) + "\n")
        out_path = tmp_path / "results.jsonl"
        record_dir = tmp_path / "rd"
        argv = ["batch", str(requests), "--output", str(out_path)]
        assert main(argv + ["--record-dir", str(record_dir), *flags]) == 0
        [result] = [json.loads(line) for line in out_path.read_text().splitlines()]
        traces = os.listdir(record_dir) if record_dir.exists() else []
        return result, traces

    def test_batch_record_dir_alone_records_nothing(self, tmp_path):
        result, traces = self._batch(tmp_path)
        assert result["ok"] is True
        assert result.get("trace") is None
        assert traces == []

    def test_batch_mode_record_with_record_dir_records(self, tmp_path):
        result, traces = self._batch(tmp_path, "--mode", "record")
        assert result["trace"].endswith(".jsonl")
        assert [os.path.basename(result["trace"])] == traces

    def test_debug_record_dir_records_the_session(self, capsys, tmp_path):
        record_dir = tmp_path / "sessions"
        argv = ["debug", "-e", FAC, "--command", "continue"]
        assert main(argv + ["--record-dir", str(record_dir)]) == 0
        assert "session recorded to" in capsys.readouterr().out
        assert len(os.listdir(record_dir)) == 1
