"""What the benchmark measures: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the checkout root is the catalogue; :func:`load`
reads it, and every other module takes workload and metric names, units
and bounds from there.  The serve rate and latency limit are not part of
that file's format, so they are kept here.
"""

from __future__ import annotations

import json
import os
from typing import List, NamedTuple, Optional

#: The checkout root (``benchmarks/e2e/catalog.py`` → three levels up).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Open-loop rate of ``serve_open`` in requests per second.  The daemon
#: saturates near 440 req/s on a 2-core machine and its p90 starts to
#: climb near 200; 160 stays below that knee.
SERVE_RATE = 160.0

#: ``serve_open`` latency limit: a request slower than this, or failed,
#: misses the limit (``runtime.serve.slo_miss_ratio``).
SERVE_SLO_MS = 20.0


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: Optional[float] = None


class Catalogue(NamedTuple):
    run_seconds: int
    workloads: List[str]
    end_to_end: List[Metric]
    per_layer: List[Metric]


def load(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> Catalogue:
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return Catalogue(
        run_seconds=int(spec["run_seconds"]),
        workloads=[w["name"] for w in spec["workloads"]],
        end_to_end=[Metric(**m) for m in spec["end_to_end"]],
        per_layer=[Metric(**m) for m in spec["per_layer"]],
    )
