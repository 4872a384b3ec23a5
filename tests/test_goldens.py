"""Golden-file regression suite for user-facing report output.

The tracer, profiler and collecting monitors, the quarantined-fault
report, and the CLI's ``--metrics`` summary are the runtime's visible
surface — the exact strings users (and the paper's Section 8 examples)
see.  These tests pin that surface to files under ``tests/goldens/``:
any formatting drift fails with a diff, and intentional changes are
refreshed with ``pytest --update-goldens``.

Where the output must be engine-independent (every deterministic report
is), the same golden file is asserted against both engines — so the
suite doubles as an output-parity check.
"""

import re

import pytest

from repro.cli import main

ENGINES = ["reference", "codegen"]

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 4"
PLAIN_FAC = "letrec fac = lambda x. if x = 0 then 1 else x * fac (x - 1) in fac 4"
COLLECT_FAC = (
    "letrec fac = lambda n. if {test}:(n = 0) then 1 else {n}: n * (fac (n - 1)) "
    "in fac 3"
)

_TIME_LINE = re.compile(r"wall time: .*")


def _normalize_times(text: str) -> str:
    """Replace the wall-clock line — the only nondeterministic output."""
    return _TIME_LINE.sub("wall time: <normalized>", text)


@pytest.mark.parametrize("engine", ENGINES)
def test_tracer_report_golden(golden, capsys, engine):
    assert main(["trace", "-e", PLAIN_FAC, "--engine", engine]) == 0
    golden("cli_trace.txt", capsys.readouterr().out)


@pytest.mark.parametrize("engine", ENGINES)
def test_profiler_report_golden(golden, capsys, engine):
    assert main(["profile", "-e", PLAIN_FAC, "--engine", engine]) == 0
    golden("cli_profile.txt", capsys.readouterr().out)


@pytest.mark.parametrize("engine", ENGINES)
def test_collecting_report_golden(golden, capsys, engine):
    assert main(["run", "-e", COLLECT_FAC, "--tools", "collect", "--engine", engine]) == 0
    golden("cli_collect.txt", capsys.readouterr().out)


@pytest.fixture
def flaky_tool(monkeypatch):
    # Same pattern as TestFaultPolicy in test_cli.py: a deliberately
    # faulty toolbox monitor, deterministic across engines.
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


@pytest.mark.parametrize("engine", ENGINES)
def test_quarantined_fault_report_golden(golden, capsys, flaky_tool, engine):
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
                "--engine",
                engine,
            ]
        )
        == 0
    )
    golden("cli_quarantine.txt", capsys.readouterr().out)


@pytest.mark.parametrize("engine", ENGINES)
def test_metrics_output_golden(golden, capsys, engine):
    """The ``--metrics`` summary, time line normalized.

    One golden for both engines — the counters are engine-independent by
    construction, so this is the metrics-parity property pinned to the
    exact rendered text.
    """
    assert (
        main(["run", "-e", FAC, "--tools", "count", "--metrics", "--engine", engine])
        == 0
    )
    golden("cli_metrics.txt", _normalize_times(capsys.readouterr().out))


def test_metrics_output_unmonitored_golden(golden, capsys):
    assert main(["run", "-e", PLAIN_FAC, "--metrics"]) == 0
    golden("cli_metrics_unmonitored.txt", _normalize_times(capsys.readouterr().out))


CHECK_PROGRAM = (
    "let x = {p}: 1 in\n"
    "let y = {unknown: q}: 2 in\n"
    "x + y + froz"
)


def test_check_text_golden(golden, capsys):
    """The ``repro check`` caret-diagnostic surface, pinned exactly."""
    assert main(["check", "-e", CHECK_PROGRAM, "--monitors", "profile,count"]) == 1
    golden("cli_check.txt", capsys.readouterr().out)


def test_check_json_golden(golden, capsys):
    assert (
        main(
            [
                "check",
                "-e",
                CHECK_PROGRAM,
                "--monitors",
                "profile,count",
                "--format",
                "json",
            ]
        )
        == 1
    )
    golden("cli_check.json", capsys.readouterr().out)


def test_check_clean_golden(golden, capsys):
    assert main(["check", "-e", PLAIN_FAC, "--monitors", "profile"]) == 0
    golden("cli_check_clean.txt", capsys.readouterr().out)


BATCH_REQUESTS = [
    '{"program": "let f = lambda x. x + 1 in f 41", "engine": "codegen", "tag": "plain"}',
    '{"program": "%s", "tools": "profile", "engine": "codegen", "tag": "profiled"}' % FAC,
    '{"program": "let f = lambda x. x + 1 in f 41", "engine": "codegen", "tag": "repeat"}',
    '{"program": "1 +", "tag": "broken"}',
]


_DURATION_FIELD = re.compile(r'"duration": [0-9eE+.-]+')


def _normalize_durations(text: str) -> str:
    """Pin the per-request latency field — wall clock is nondeterministic."""
    return _DURATION_FIELD.sub('"duration": 0.0', text)


def test_batch_output_golden(golden, capsys, tmp_path):
    """The ``repro batch`` JSONL surface: results on stdout, stats on stderr.

    Answers, reports, error records and the cache counters are all
    deterministic; the measured ``duration`` field is normalized to 0.0
    (its *presence* is part of the pinned surface — serving clients read
    latency from it); the one failing request also pins the non-zero exit
    code.
    """
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join(BATCH_REQUESTS) + "\n", encoding="utf-8")
    assert main(["batch", str(requests), "--stats"]) == 1
    captured = capsys.readouterr()
    golden("cli_batch.jsonl", _normalize_durations(captured.out))
    golden("cli_batch_stats.txt", captured.err)


FLOW_PROGRAM = (
    "let x = if false then {p}: 1 else 2 in\n"
    "{q}: (x + 3)"
)


def test_check_flow_json_golden(golden, capsys):
    """The ``repro check --flow`` JSON surface: REP501 + REP502, pinned."""
    assert (
        main(
            [
                "check",
                "-e",
                FLOW_PROGRAM,
                "--monitors",
                "profile,trace",
                "--flow",
                "--format",
                "json",
            ]
        )
        == 0
    )
    golden("cli_check_flow.json", capsys.readouterr().out)
