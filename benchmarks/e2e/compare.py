"""``python -m benchmarks.e2e compare BEFORE AFTER``: a verdict per metric.

Both files hold result lines written by ``run --out``.  For every
(workload, metric) present in both, the two medians are compared
against the metric's bound in ``BENCHMARK.json``:

* ``worse`` — the after median is worse by more than the bound;
* ``better`` — better by more than the bound;
* ``within`` — the difference stays inside the bound;
* ``unresolved`` — either side's quartile spread (as a share of its
  median) exceeds the bound, so the runs cannot tell, unless every after
  run reads better (``better``) or worse (``worse``) than every before run;
* ``info`` — a per-layer metric, which has no bound.

Two ratios that read 0 on a healthy run are gated by an absolute change
instead (:data:`ABSOLUTE_BOUNDS`): ``fail_ratio``, failed over attempted
requests of every result line, and the serve latency limit's miss ratio.

The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.catalog import Catalogue

Key = Tuple[str, str]

#: Largest allowed absolute worsening of the median, per metric.
ABSOLUTE_BOUNDS = {"fail_ratio": 0.0, "runtime.serve.slo_miss_ratio": 0.01}


def load(path: str) -> Dict[Key, List[float]]:
    values: Dict[Key, List[float]] = defaultdict(list)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            result = entry["result"]
            values[entry["workload"], "fail_ratio"].append(
                result["failed"] / result["attempted"]
            )
            for name, metric in result["metrics"].items():
                values[entry["workload"], name].append(float(metric["value"]))
    return values


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run).

    Quartiles interpolate between the runs (``method="inclusive"``):
    with the default method, three runs would put the quartiles at the
    minimum and maximum.
    """
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(middle)


def verdict(
    before: List[float],
    after: List[float],
    better: str,
    bound: Optional[float],
    absolute: bool = False,
) -> Tuple[str, float]:
    """The verdict and the signed change of the median (positive = worse),
    as a share of the before median or, with ``absolute``, as is."""
    base = statistics.median(before)
    sign = 1.0 if better == "lower" else -1.0
    if absolute:
        change = sign * (statistics.median(after) - base)
    else:
        change = sign * (statistics.median(after) - base) / abs(base) if base else 0.0
    if bound is None:
        return "info", change
    if not absolute and max(spread(before), spread(after)) > bound:
        if all(sign * a < sign * b for a in after for b in before):
            return "better", change
        if all(sign * a > sign * b for a in after for b in before):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


def compare(spec: Catalogue, before_path: str, after_path: str) -> int:
    rules = {m.name: (m.better, m.bound) for m in spec.end_to_end + spec.per_layer}
    rules.update({name: ("lower", bound) for name, bound in ABSOLUTE_BOUNDS.items()})
    before, after = load(before_path), load(after_path)
    worse = 0
    print(
        f"{'workload':<14} {'metric':<40} {'before':>12} {'after':>12} "
        f"{'change':>8} {'bound':>6}  verdict"
    )
    for key in sorted(set(before) & set(after)):
        workload, name = key
        if name not in rules:
            continue
        better, bound = rules[name]
        absolute = name in ABSOLUTE_BOUNDS
        outcome, change = verdict(before[key], after[key], better, bound, absolute)
        worse += outcome == "worse"
        if absolute:
            shown_change, shown_bound = f"{change:+.4f}", f"{bound:.2f}"
        else:
            shown_change = f"{change:+.1%}"
            shown_bound = "" if bound is None else format(bound, ".0%")
        print(
            f"{workload:<14} {name:<40} {statistics.median(before[key]):>12.4f} "
            f"{statistics.median(after[key]):>12.4f} {shown_change:>8} "
            f"{shown_bound:>6}  {outcome}"
        )
    missing = sorted(set(before) ^ set(after))
    if missing:
        print(f"not in both files: {missing}", file=sys.stderr)
    return 1 if worse else 0
