"""The trace backend's moving parts: codec, writer, sampling, wiring.

The differential suite (``test_trace_equivalence``) proves fold ≡
inline; this file pins down everything else the backend promises — a
versioned, deterministic, self-describing file format, seeded sampling
that is reproducible across runs *and* executors, per-site filtering,
and the ``mode="record"`` wiring through ``run_monitored``, the batch
runner and the process pool.
"""

import json
import os

import pytest

from repro.languages.imperative import imperative
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor, ProfilerMonitor, TracerMonitor
from repro.observability.metrics import RunMetrics
from repro.runtime import ProcessPoolRunner, RunConfig, RunRequest, run_batch
from repro.syntax.parser import parse
from repro.tracing import (
    OpaqueValue,
    TraceError,
    TraceFormatError,
    TraceVersionError,
    analyze_trace,
    read_trace,
    record,
)
from repro.tracing.schema import (
    TRACE_VERSION,
    build_site_table,
    canonical_json,
    decode_value,
    encode_value,
    sample_includes,
)

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 6"
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def record_fac(path, **kwargs):
    return record(strict, parse(FAC), str(path), **kwargs)


# -- the value codec -------------------------------------------------------------


class TestValueCodec:
    @pytest.mark.parametrize(
        "value", [0, -3, 17, True, False, "hello", None, 2.5]
    )
    def test_scalars_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_object_language_lists_round_trip(self):
        nested = [1, [2, 3], "x"]
        encoded = encode_value(nested)
        assert decode_value(encoded) == nested

    def test_store_round_trips_as_bindings(self):
        from repro.languages.imperative import Store

        store = Store({"a": 1, "b": 2})
        encoded = encode_value(store)
        assert encoded["%"] == "store"
        assert decode_value(encoded).as_dict() == {"a": 1, "b": 2}

    def test_functions_become_display_opaques(self):
        answer = strict.evaluate(parse("lambda x. x + 1"))
        from repro.semantics.values import is_function, value_to_string

        decoded = decode_value(encode_value(answer))
        assert isinstance(decoded, OpaqueValue)
        assert value_to_string(decoded) == value_to_string(answer)
        assert is_function(decoded)

    def test_unknown_tag_is_a_trace_error(self):
        with pytest.raises(TraceError):
            decode_value({"%": "warp-core", "x": 1})

    def test_canonical_json_is_key_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'


# -- sampling --------------------------------------------------------------------


class TestSampling:
    def test_rate_bounds(self):
        assert sample_includes(0, 1, 5, 1.0) is True
        assert sample_includes(0, 1, 5, 0.0) is False

    def test_decision_is_a_pure_function_of_seed_site_occurrence(self):
        picks = [sample_includes(7, 3, occ, 0.5) for occ in range(64)]
        again = [sample_includes(7, 3, occ, 0.5) for occ in range(64)]
        assert picks == again
        assert any(picks) and not all(picks)

    def test_same_seed_means_byte_identical_traces(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (first, second):
            record_fac(path, config=RunConfig(sample_rate=0.5, trace_seed=7))
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_sample_differently(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        record_fac(first, config=RunConfig(sample_rate=0.5, trace_seed=7))
        record_fac(second, config=RunConfig(sample_rate=0.5, trace_seed=8))
        assert first.read_bytes() != second.read_bytes()

    def test_rate_zero_keeps_header_and_answer_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = record_fac(path, config=RunConfig(sample_rate=0.0))
        assert result.events == 0
        assert result.sampled_out > 0
        trace = read_trace(str(path))
        assert list(trace.events) == []
        assert trace.answer() == 720

    def test_bad_rate_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sample_rate"):
            record_fac(tmp_path / "t.jsonl", config=RunConfig(sample_rate=1.5))

    def test_sampled_fold_counts_only_recorded_activations(self, tmp_path):
        path = tmp_path / "t.jsonl"
        full = tmp_path / "full.jsonl"
        record_fac(path, config=RunConfig(sample_rate=0.5, trace_seed=7))
        record_fac(full)
        sampled = analyze_trace(str(path), [LabelCounterMonitor()])
        everything = analyze_trace(str(full), [LabelCounterMonitor()])
        assert 0 < sampled.report("count")["fac"] < everything.report("count")["fac"]

    def test_executor_choice_does_not_change_trace_bytes(self, tmp_path):
        """In-process and process-pool record runs write identical traces."""
        contents = {}
        for executor in ("in_process", "process"):
            record_dir = tmp_path / executor
            config = RunConfig(
                mode="record",
                record_dir=str(record_dir),
                sample_rate=0.5,
                trace_seed=3,
            )
            requests = [{"program": FAC, "tools": "count"}]
            if executor == "in_process":
                [result] = run_batch(requests, config=config)
            else:
                with ProcessPoolRunner(workers=1, config=config) as pool:
                    [result] = pool.run(requests)
            assert result.ok, result.error
            assert result.trace and os.path.exists(result.trace)
            with open(result.trace, "rb") as handle:
                contents[executor] = handle.read()
        assert contents["in_process"] == contents["process"]


# -- the file format -------------------------------------------------------------


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        result = record_fac(path, config=RunConfig(metrics=RunMetrics()))
        assert result.answer == 720
        trace = read_trace(str(path))
        assert trace.version == TRACE_VERSION
        assert trace.language == "strict"
        assert trace.site_count == 1
        assert trace.answer() == 720
        assert len(trace.events) == result.events
        phases = {event.phase for event in trace.events}
        assert phases == {"pre", "post"}

    def test_header_embeds_reusable_source(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_fac(path)
        trace = read_trace(str(path))
        reparsed = parse(trace.program_source)
        assert len(build_site_table(reparsed)) == 1

    def test_site_filter_by_selector(self, tmp_path):
        source = "({p0}: 1) + ({p1}: 2)"
        path = tmp_path / "t.jsonl"
        result = record(strict, parse(source), str(path), sites=["p1"])
        assert result.sites == 2
        assert result.enabled_sites == 1
        trace = read_trace(str(path))
        assert {event.site for event in trace.events} == {1}

    def test_site_filter_by_monitor_claims(self, tmp_path):
        # A bare label counter claims bare labels but not another
        # namespace's tagged sites: the recorder skips what no monitor
        # in the intended stack would look at.
        source = "({trace: t}: 1) + ({p0}: 2)"
        path = tmp_path / "t.jsonl"
        result = record(
            strict, parse(source), str(path), monitors=[LabelCounterMonitor()]
        )
        assert result.sites == 2
        assert result.enabled_sites == 1

    def test_wrong_program_rejected_at_analyze(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_fac(path)
        with pytest.raises(TraceFormatError, match="not the program"):
            analyze_trace(
                str(path), [LabelCounterMonitor()], program="({p0}: 1) + ({p1}: 2)"
            )

    def test_version_bump_is_a_clean_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_fac(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["trace_version"] = TRACE_VERSION + 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceVersionError, match="re-record"):
            read_trace(str(path))

    def test_empty_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            read_trace(str(path))

    def test_truncated_tail_is_diagnosed_and_recoverable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_fac(path)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # cut into the end record
        with pytest.raises(TraceFormatError, match="allow-truncated"):
            read_trace(str(path))
        trace = read_trace(str(path), allow_truncated=True)
        assert trace.truncated
        result = analyze_trace(
            trace, [LabelCounterMonitor()], allow_truncated=True
        )
        assert result.truncated
        assert result.report("count")["fac"] > 0

    def test_crashed_run_leaves_truncated_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        from repro.errors import EvalError

        with pytest.raises(EvalError):
            record(strict, parse("{p0}: (1 + 1 / 0)"), str(path))
        trace = read_trace(str(path), allow_truncated=True)
        assert trace.truncated
        result = analyze_trace(
            trace, [LabelCounterMonitor()], allow_truncated=True
        )
        assert result.answer is None
        assert result.report("count")["p0"] == 1

    def test_unknown_event_type_is_located(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_fac(path)
        lines = path.read_text().splitlines()
        lines.insert(1, '{"t":"zap"}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=r":2: unknown event type"):
            read_trace(str(path))


# -- golden traces ---------------------------------------------------------------


class TestGoldenTraces:
    """Pinned trace files: the on-disk format is a compatibility surface.

    If an intentional format change breaks these, bump ``TRACE_VERSION``
    and regenerate (``python -m tests.test_tracing``) — readers must
    never silently misread an old file.
    """

    def test_golden_fac_trace_bytes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_fac(path, config=RunConfig(metrics=RunMetrics()))
        golden = os.path.join(GOLDEN_DIR, "trace_fac.jsonl")
        assert path.read_text() == open(golden).read()

    def test_golden_sampled_trace_bytes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_fac(path, config=RunConfig(sample_rate=0.5, trace_seed=7))
        golden = os.path.join(GOLDEN_DIR, "trace_fac_sampled.jsonl")
        assert path.read_text() == open(golden).read()

    def test_golden_trace_still_analyzes(self):
        golden = os.path.join(GOLDEN_DIR, "trace_fac.jsonl")
        trace = read_trace(golden)
        assert trace.version == TRACE_VERSION
        result = analyze_trace(golden, [LabelCounterMonitor()], metrics=True)
        assert result.answer == 720
        assert result.report("count")["fac"] == 7
        assert result.metrics.steps > 0


# -- mode="record" wiring --------------------------------------------------------


class TestRecordModeWiring:
    def test_run_monitored_record_mode(self, tmp_path):
        config = RunConfig(mode="record", record_dir=str(tmp_path))
        result = run_monitored(
            strict, parse(FAC), [LabelCounterMonitor()], config=config
        )
        assert result.answer == 720
        assert result.trace and os.path.exists(result.trace)
        fold = analyze_trace(result.trace, [LabelCounterMonitor()])
        assert fold.report("count")["fac"] == 7

    def test_record_mode_requires_record_dir(self):
        config = RunConfig(mode="record")
        with pytest.raises(TraceError, match="record_dir"):
            run_monitored(strict, parse(FAC), [LabelCounterMonitor()], config=config)

    def test_evaluate_reports_trace_path(self, tmp_path):
        from repro.toolbox.registry import evaluate

        config = RunConfig(mode="record", record_dir=str(tmp_path))
        result = evaluate("count", FAC, config=config)
        assert result.answer == 720
        assert result.trace and os.path.exists(result.trace)

    def test_batch_request_record_mode(self, tmp_path):
        results = run_batch(
            [
                {
                    "program": FAC,
                    "tools": "count",
                    "mode": "record",
                    "record_dir": str(tmp_path),
                },
                {"program": "6 * 7"},
            ]
        )
        assert [r.ok for r in results] == [True, True]
        assert results[0].trace and os.path.exists(results[0].trace)
        assert results[1].trace is None
        wire = results[0].to_dict()
        assert wire["trace"] == results[0].trace
        from repro.runtime.batch import RunResult

        assert RunResult.from_dict(wire).trace == results[0].trace

    def test_imp_record_round_trip(self, tmp_path):
        from repro.languages.imp_syntax import parse_imp

        source = "x := 0; while x < 4 do begin {loop}: x := x + 1 end; emit x"
        path = tmp_path / "t.jsonl"
        record(imperative, parse_imp(source), str(path))
        fold = analyze_trace(str(path), [LabelCounterMonitor()])
        assert fold.report("count")["loop"] == 4

    def test_invalid_mode_rejected(self):
        with pytest.raises(Exception):
            RunConfig(mode="postal").validate()


def regenerate_goldens() -> None:
    record(
        strict,
        parse(FAC),
        os.path.join(GOLDEN_DIR, "trace_fac.jsonl"),
        config=RunConfig(metrics=RunMetrics()),
    )
    record(
        strict,
        parse(FAC),
        os.path.join(GOLDEN_DIR, "trace_fac_sampled.jsonl"),
        config=RunConfig(sample_rate=0.5, trace_seed=7),
    )


if __name__ == "__main__":
    regenerate_goldens()
