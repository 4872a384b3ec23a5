"""Shared section-merging for ``BENCH_report.json``, and the noise check
every timing gate demotes itself with.

Every bench script contributes its own top-level section (``engines``,
``codegen``, ``batch``, …) to one report file at the repository root.
Writing the whole file from any single script would clobber the others'
sections — the historical bug this module fixes — so all writers go
through :func:`merge_section`: load whatever is there, replace only your
section, write back.
"""

from __future__ import annotations

import json
import os
from statistics import median
from typing import Iterable, List, Sequence, Tuple

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
