"""Public test helpers for monitor and language authors.

Downstream users writing their own monitor specifications (or language
modules) need the same assertions this repository's suite uses: that the
monitor is sound, that it validates, and that every engine — the
reference interpreter and the residual Python program of the codegen
tier — agrees on answers *and* monitor reports.  This module packages
those checks behind a small API so a user's test can be one line:

    from repro.testing import assert_monitor_well_behaved
    assert_monitor_well_behaved(MyMonitor(), my_annotated_program)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.languages.base import ENGINES, engine_supports
from repro.languages.strict import strict
from repro.monitoring.compose import MonitorLike, flatten_monitors
from repro.monitoring.derive import run_monitored
from repro.monitoring.soundness import assert_sound
from repro.monitoring.validate import assert_valid_monitor
from repro.runtime.config import RunConfig
from repro.syntax.ast import Expr
from repro.syntax.parser import parse


class ParityError(ReproError):
    """Two execution paths disagreed on an answer or a monitor state."""


def _as_program(program) -> Expr:
    return parse(program) if isinstance(program, str) else program


def assert_implementation_parity(
    program,
    monitors: MonitorLike = (),
    *,
    language=strict,
    config: Optional[RunConfig] = None,
) -> None:
    """Check that every engine agrees with the reference on ``program``.

    The reference engine is the oracle.  Every other engine that runs
    ``language`` (per :data:`repro.languages.base.ENGINE_LANGUAGES`) must
    give the same answer and the same final report for every monitor;
    for a language only the reference runs, this is a monitored-run
    smoke check.  Every run takes its options from ``config`` but for
    its ``engine``.
    """
    program = _as_program(program)
    monitor_list = flatten_monitors(monitors)
    base = RunConfig.checked(config)
    expected = run_monitored(
        language, program, monitor_list, config=replace(base, engine="reference")
    )
    for engine in ENGINES:
        if engine == "reference" or not engine_supports(engine, language.name):
            continue
        actual = run_monitored(
            language, program, monitor_list, config=replace(base, engine=engine)
        )
        if actual.answer != expected.answer:
            raise ParityError(
                f"{engine} engine answered {actual.answer!r}, "
                f"reference {expected.answer!r}"
            )
        for monitor in monitor_list:
            # Compare through the monitor's own report — the canonical,
            # comparable rendering of its state (raw states may hold
            # identity-compared structures such as output streams).
            want = expected.report(monitor)
            got = actual.report(monitor)
            if got != want:
                raise ParityError(
                    f"{engine} engine's final report for monitor "
                    f"{monitor.key!r} is {got!r}; reference produced {want!r}"
                )


def assert_monitor_well_behaved(
    monitor,
    program,
    *,
    language=strict,
    config: Optional[RunConfig] = None,
) -> None:
    """The full battery for one monitor over one annotated program:

    1. the specification lints clean (:mod:`repro.monitoring.validate`);
    2. monitoring does not change the program's answer (Theorem 7.7);
    3. every execution path agrees on the final monitor state.

    ``config`` carries the run options (``None`` means the defaults).
    """
    program = _as_program(program)
    assert_valid_monitor(monitor)
    assert_sound(language, program, monitor, config=config)
    assert_implementation_parity(program, monitor, language=language, config=config)


def run_and_report(program, tools: Sequence, *, language=strict):
    """Shorthand used in docs: run, return ``(answer, {key: report})``."""
    program = _as_program(program)
    result = run_monitored(language, program, list(tools))
    return result.answer, result.reports()
