"""Golden of every run option's surface: ``--help`` and error messages.

Each subcommand's ``repro <cmd> --help``, every ``RunConfig.validate``
rejection and every CLI option error is pinned to a file under
``tests/goldens/options/``.  Help text is compared with its whitespace
collapsed and re-wrapped, so the terminal width and argparse's wrapping
across Python versions do not matter; argparse's own rejections (exit
code 2) are pinned to the argument they name.  Refresh with
``pytest --update-goldens`` when a change is intentional.
"""

import textwrap

import pytest

from repro.cli import build_parser, main
from repro.runtime import RunConfig

SUBCOMMANDS = sorted(build_parser()._subparsers._group_actions[0].choices)


def _normalized(text: str) -> str:
    return textwrap.fill(
        " ".join(text.split()),
        width=79,
        break_long_words=False,
        break_on_hyphens=False,
    )


def _cli_outcome(capsys, argv) -> str:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    if code == 2:
        # argparse's own rejection: name the argument, not its wording.
        line = err.strip().splitlines()[-1]
        return f"exit 2: {line.split(': ')[2] if line.count(': ') >= 2 else line}"
    return f"exit {code}: {err.strip()}"


@pytest.mark.parametrize("command", [None] + SUBCOMMANDS)
def test_help_golden(golden, capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "100")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    name = command or "repro"
    golden(f"options/help_{name}.txt", _normalized(capsys.readouterr().out))


#: ``RunConfig`` keyword sets ``validate`` rejects (or, where noted by the
#: golden, accepts).
VALIDATE_CASES = [
    {"engine": "compiled"},
    {"engine": 5},
    {"fault_policy": "bogus"},
    {"lint": "strict"},
    {"max_steps": "abc"},
    {"max_steps": True},
    {"max_steps": 2.5},
    {"max_steps": 0},
    {"max_steps": -3},
    {"timeout": "soon"},
    {"timeout": True},
    {"timeout": 0},
    {"timeout": -1.5},
    {"mode": "replay"},
    {"mode": None},
    {"record_dir": 5},
    {"sample_rate": "half"},
    {"sample_rate": True},
    {"sample_rate": 1.5},
    {"sample_rate": -0.1},
    {"trace_seed": 1.5},
    {"trace_seed": "7"},
    {"trace_seed": True},
    {"checkpoint_interval": 0},
    {"checkpoint_interval": -1},
    {"checkpoint_interval": 2.5},
    {"checkpoint_interval": True},
    {"optimize": "fast"},
    {"optimize": None},
]


def test_validate_messages_golden(golden):
    lines = []
    for kwargs in VALIDATE_CASES:
        try:
            RunConfig(**kwargs).validate()
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        else:
            outcome = "accepted"
        lines.append(f"{kwargs!r} -> {outcome}")
    golden("options/validate.txt", "\n".join(lines))


#: Command lines whose run options are rejected before anything runs.
CLI_CASES = [
    ["run", "-e", "1", "--max-steps", "0"],
    ["run", "-e", "1", "--max-steps", "abc"],
    ["run", "-e", "1", "--timeout", "0"],
    ["run", "-e", "1", "--timeout", "-1"],
    ["run", "-e", "1", "--timeout", "soon"],
    ["run", "-e", "1", "--checkpoint-interval", "0"],
    ["run", "-e", "1", "--checkpoint-interval", "-3"],
    ["run", "-e", "1", "--engine", "compiled"],
    ["run", "-e", "1", "--fault-policy", "bogus"],
    ["run", "-e", "1", "--lint", "strict"],
    ["run", "-e", "1", "--optimize", "fast"],
    ["run", "-e", "1", "--record-dir", "traces"],
    ["run", "-e", "1", "--mode", "record"],
    ["run", "-e", "1", "--sample", "0.5"],
    ["trace", "-e", "1", "--max-steps", "-1"],
    ["batch", "-", "--mode", "replay"],
    ["batch", "-", "--timeout", "0"],
    ["record", "-e", "1", "-o", "unused.jsonl", "--sample", "2"],
    ["record", "-e", "1", "-o", "unused.jsonl", "--sample", "-0.5"],
    ["record", "-e", "1", "-o", "unused.jsonl", "--sample", "half"],
    ["record", "-e", "1", "-o", "unused.jsonl", "--seed", "1.5"],
    ["debug", "-e", "1", "--command", "quit", "--max-steps", "0"],
    ["replay", "missing.jsonl", "--checkpoint-interval", "0"],
    ["replay", "missing.jsonl", "--engine", "codegen"],
    ["replay", "missing.jsonl", "--max-steps", "5"],
    ["debug", "-e", "1", "--command", "quit", "--checkpoint-interval", "7"],
    ["serve", "--socket", "unused.sock", "--metrics"],
    ["serve", "--socket", "unused.sock", "--timeout", "0"],
    ["compile", "-e", "1", "--optimize", "fast"],
    ["analyze", "missing.jsonl", "--fault-policy", "bogus"],
]


def test_cli_option_errors_golden(golden, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # nothing the cases write lands in the tree
    lines = [f"{' '.join(argv)} -> {_cli_outcome(capsys, argv)}" for argv in CLI_CASES]
    golden("options/cli_errors.txt", "\n".join(lines))
