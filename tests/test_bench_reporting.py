"""The bench scripts' shared harness, with no real timing.

``benchmarks/reporting.py`` holds the one timing loop every bench script
uses, the noise check every timing gate demotes itself with, and the
section merge every script writes ``BENCH_report.json`` through.
"""

import json

from benchmarks import reporting
from benchmarks.reporting import (
    NOISE_SPREAD_THRESHOLD,
    SCHEMA,
    interleaved,
    merge_section,
    noise_reasons,
    sample_spread,
)


class TestInterleaved:
    def test_calls_the_thunks_round_robin(self):
        calls = []
        thunks = [lambda name=name: calls.append(name) for name in "abc"]
        interleaved(thunks, 3)
        assert calls == list("abc" * 3)

    def test_returns_one_sample_list_per_thunk(self):
        samples = interleaved([lambda: None] * 3, 4)
        assert [len(times) for times in samples] == [4, 4, 4]
        assert all(t >= 0 for times in samples for t in times)

    def test_one_shot_timing(self):
        [[elapsed]] = interleaved([lambda: None], 1)
        assert elapsed >= 0


class TestNoiseReasons:
    def test_quiet_multicore_box_keeps_the_gate(self, monkeypatch):
        monkeypatch.setattr(reporting.os, "cpu_count", lambda: 4)
        assert noise_reasons([("a", 0.1), ("b", NOISE_SPREAD_THRESHOLD)]) == []

    def test_single_core_box_demotes(self, monkeypatch):
        monkeypatch.setattr(reporting.os, "cpu_count", lambda: 1)
        assert noise_reasons([("a", 0.0)]) == [
            "single-core machine (os.cpu_count() == 1)"
        ]

    def test_spread_above_the_threshold_demotes(self, monkeypatch):
        monkeypatch.setattr(reporting.os, "cpu_count", lambda: 4)
        spread = sample_spread([1.0, 2.0, 3.0])
        assert spread > NOISE_SPREAD_THRESHOLD
        [reason] = noise_reasons([("quiet", 0.0), ("loud", spread)])
        assert reason.startswith("loud timing spread")


class TestMergeSection:
    def test_keeps_the_other_sections(self, tmp_path):
        path = str(tmp_path / "report.json")
        merge_section(path, "engines", {"rows": 1})
        merge_section(path, "batch", {"speedup": 2})
        merge_section(path, "engines", {"rows": 2})
        with open(path) as handle:
            assert json.load(handle) == {
                "schema": SCHEMA,
                "engines": {"rows": 2},
                "batch": {"speedup": 2},
            }

    def test_restarts_a_v1_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"speedup": 3.0, "workloads": []}))
        merged = merge_section(str(path), "batch", {"speedup": 2})
        assert merged == {"schema": SCHEMA, "batch": {"speedup": 2}}
        assert json.loads(path.read_text()) == merged
