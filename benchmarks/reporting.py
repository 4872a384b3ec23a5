"""The one timing harness for ``benchmarks/``: the interleaved timing
loop, the noise check every timing gate demotes itself with, the
``--quick``/``--output`` arguments and section-merging for
``BENCH_report.json``.

:func:`interleaved` is the only timing loop in the bench scripts; each
caller picks its statistic (``min`` or ``median``) explicitly.

Every bench script contributes its own top-level section (``engines``,
``codegen``, ``batch``, …) to one report file at the repository root.
Writing the whole file from any single script would clobber the others'
sections — the historical bug this module fixes — so all writers go
through :func:`merge_section`: load whatever is there, replace only your
section, write back.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from statistics import median
from typing import Callable, Iterable, List, Sequence, Tuple

#: The merged report every script writes into unless ``--output`` says
#: otherwise: ``BENCH_report.json`` at the repository root.
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_report.json",
)

#: The absolute slack a ratio gate allows for timer granularity (seconds).
TIMER_EPSILON = 1e-3


def interleaved(
    thunks: Sequence[Callable[[], object]], repeats: int
) -> List[List[float]]:
    """Time each thunk ``repeats`` times, round-robin; seconds per call.

    One round calls every thunk once, in order, and the next round starts
    only when it ends, so machine-load drift lands on every side alike.
    Returns one sample list per thunk, in the order given.  A one-shot
    cold timing is ``repeats=1``.
    """
    samples: List[List[float]] = [[] for _ in thunks]
    for _ in range(repeats):
        for thunk, times in zip(thunks, samples):
            start = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - start)
    return samples


def bench_arguments(description: str) -> argparse.ArgumentParser:
    """The arguments every bench script takes: ``--quick`` and ``--output``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="report file to merge this script's sections into "
        "(default: BENCH_report.json at the repository root)",
    )
    return parser


#: Above this relative spread — (median - min) / min over a gate's
#: samples — the box is too loaded for a hard ratio gate: a deterministic
#: workload's samples only scatter that far when something else is
#: stealing the core.
NOISE_SPREAD_THRESHOLD = 0.5


def sample_spread(samples: Sequence[float]) -> float:
    """Relative scatter of a timing sample set: (median - min) / min."""
    lo = min(samples)
    return (median(samples) - lo) / lo if lo > 0 else float("inf")


def noise_reasons(spreads: Iterable[Tuple[str, float]]) -> List[str]:
    """Why this environment can't support a hard perf gate ([] = it can).

    ``spreads`` pairs a label with its sample set's :func:`sample_spread`.
    Two demotion triggers: a single-core box (the benchmark shares its
    only core with the OS and the test runner, so ratios are load, not
    engineering) and excessive sample spread (a minimum disagreeing with
    its own median by more than ``NOISE_SPREAD_THRESHOLD`` is suspect).
    """
    reasons = []
    cpus = os.cpu_count() or 1
    if cpus < 2:
        reasons.append(f"single-core machine (os.cpu_count() == {cpus})")
    for label, spread in spreads:
        if spread > NOISE_SPREAD_THRESHOLD:
            reasons.append(
                f"{label} timing spread {spread:.0%} over its min "
                f"(threshold {NOISE_SPREAD_THRESHOLD:.0%})"
            )
    return reasons


#: The merged report's format marker (v1 was the single-suite file that
#: each script overwrote wholesale).
SCHEMA = "repro-bench/v2"


def load_report(path: str) -> dict:
    """The current report contents, or ``{}`` if absent/unreadable."""
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                return loaded
        except (OSError, ValueError):
            pass
    return {}


def merge_section(path: str, section: str, payload: dict) -> dict:
    """Add/replace one top-level ``section`` of the report at ``path``.

    Other sections are preserved; legacy single-suite keys (from the v1
    whole-file format) are dropped once any writer migrates the file to
    the sectioned layout.  Returns the merged report.
    """
    report = load_report(path)
    if report.get("schema") != SCHEMA:
        # A v1 file is one suite's payload splattered at top level with
        # no section boundaries to preserve — start sectioned.
        report = {}
    report["schema"] = SCHEMA
    report[section] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report
