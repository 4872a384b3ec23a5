"""Benchmark the batched serving runtime: cache + pool vs sequential.

Run:  python benchmarks/bench_batch.py            # full matrix -> stdout
      python benchmarks/bench_batch.py --quick    # CI smoke (smaller workload)

Measures the T-BATCH matrix for EXPERIMENTS.md: throughput (requests per
second) for sequential vs pooled execution, cold vs warm compilation
cache, over a compile-dominated workload — a handful of distinct large
mostly-static programs, each requested many times, the shape the
:class:`repro.runtime.CompilationCache` is built for.

Programs are parsed once up front: the cache keys compiled *programs*,
not source text, and a serving layer would hold parsed ASTs anyway.
Because monitored evaluation is pure Python, the thread pool cannot buy
CPU parallelism (the GIL); the headline win is the warm cache amortizing
compilation, which is why the gated comparison is **pooled warm cache vs
sequential cold compiles** (the ISSUE PR 4 acceptance bar: >= 3x).

The script merges a ``"batch"`` section into ``BENCH_report.json``
(preserving whatever ``report.py --json`` wrote there) and exits
non-zero if the warm-cache speedup falls below the CI gate (2x).
"""

from __future__ import annotations

import os
import sys
from statistics import median

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.languages.strict import strict
from repro.monitoring.derive import check_disjoint, run_monitored
from repro.runtime import CompilationCache, RunConfig, RunRequest, run_batch
from repro.syntax.parser import parse
from repro.toolbox.registry import make_tool

from benchmarks.reporting import bench_arguments, interleaved, merge_section

WORKERS = 4
REPEATS = 3
GATE_SPEEDUP = 2.0   # CI fails below this
TARGET_SPEEDUP = 3.0  # the acceptance bar recorded in the report
#: The cached disjointness admission must never be slower than the
#: legacy per-run annotation walk it replaces (ratio cached/legacy).
DISJOINT_GATE_RATIO = 1.0


def _balanced_sum(lo: int, hi: int, salt: int) -> str:
    """A balanced static arithmetic tree: wide, shallow, compile-heavy."""
    if lo == hi:
        return str((lo * 31 + salt) % 97 + 1)
    mid = (lo + hi) // 2
    return "(%s + %s)" % (_balanced_sum(lo, mid, salt), _balanced_sum(mid + 1, hi, salt))


def make_program(salt: int, leaves: int):
    """One compile-dominated program: a big static base plus a tiny call.

    The static subtree collapses at compile time, so compilation costs
    O(leaves) while the run is nearly free — the serving-cache sweet spot.
    """
    source = (
        "let base = %s in let f = lambda x. x + base in f %d"
        % (_balanced_sum(0, leaves - 1, salt), salt)
    )
    return parse(source)


def build_workload(quick: bool):
    """``total`` requests cycling over a few distinct parsed programs."""
    distinct = 4 if quick else 6
    leaves = 400 if quick else 1200
    total = 32 if quick else 96
    programs = [make_program(salt, leaves) for salt in range(distinct)]
    config = RunConfig(engine="codegen")
    requests = [
        RunRequest(program=programs[n % distinct], config=config)
        for n in range(total)
    ]
    return programs, requests


def sequential_cold(requests) -> None:
    """The baseline: each request compiles its program from scratch."""
    for request in requests:
        run_monitored(strict, request.program, [], config=RunConfig(engine="codegen"))


def _annotated_program(labels: int) -> str:
    """A program whose admission walk has real work: ``labels`` annotations."""
    terms = " + ".join("{p%d}: %d" % (n, n % 7 + 1) for n in range(labels))
    return parse("let f = lambda x. x + (%s) in f 1" % terms)


def bench_disjoint_admission(quick: bool) -> dict:
    """Cached static-disjointness admission vs the legacy per-run walk.

    Both arms admit the same (program, stack) pair ``admissions`` times —
    the warm-batch shape, where every request re-checks a program the
    cache has already judged.  The gate is a *ratio*: the memoized check
    must cost no more than the O(program) walk it subsumes.
    """
    labels = 60 if quick else 200
    admissions = 200 if quick else 1000
    program = _annotated_program(labels)
    monitors = [
        make_tool("profile", namespace="profile"),
        make_tool("count", namespace="count"),
        make_tool("trace", namespace="trace"),
    ]

    def legacy():
        for _ in range(admissions):
            check_disjoint(monitors, program)

    cache = CompilationCache(32)
    cache.check_disjoint(monitors, program)  # warm the verdict

    def cached():
        for _ in range(admissions):
            cache.check_disjoint(monitors, program)

    t_legacy, t_cached = map(median, interleaved([legacy, cached], REPEATS))
    ratio = t_cached / t_legacy
    stats = cache.disjoint_stats()
    return {
        "labels": labels,
        "admissions": admissions,
        "stack": [monitor.key for monitor in monitors],
        "seconds": {"legacy_walk": t_legacy, "cached_verdict": t_cached},
        "ratio": ratio,
        "gate_ratio": DISJOINT_GATE_RATIO,
        "gate_met": ratio <= DISJOINT_GATE_RATIO,
        "memo": {"hits": stats["hits"], "misses": stats["misses"]},
    }


def run_matrix(quick: bool) -> dict:
    programs, requests = build_workload(quick)
    total = len(requests)

    # Warm arms share one pre-warmed cache: steady-state serving traffic.
    warm_cache = CompilationCache(32)
    run_batch(requests, workers=WORKERS, cache=warm_cache)
    t_seq_cold, t_pool_cold, t_seq_warm, t_pool_warm = map(
        median,
        interleaved(
            [
                lambda: sequential_cold(requests),
                # Cold pooled: a fresh cache per timing run — distinct
                # programs still compile exactly once each inside the
                # batch (within-batch sharing).
                lambda: run_batch(
                    requests, workers=WORKERS, cache=CompilationCache(32)
                ),
                lambda: run_batch(requests, workers=1, cache=warm_cache),
                lambda: run_batch(requests, workers=WORKERS, cache=warm_cache),
            ],
            REPEATS,
        ),
    )

    stats = warm_cache.stats()
    speedup = t_seq_cold / t_pool_warm
    return {
        "quick": quick,
        "requests": total,
        "distinct_programs": len(programs),
        "workers": WORKERS,
        "repeats": REPEATS,
        "seconds": {
            "sequential_cold": t_seq_cold,
            "sequential_warm": t_seq_warm,
            "pooled_cold": t_pool_cold,
            "pooled_warm": t_pool_warm,
        },
        "throughput_rps": {
            "sequential_cold": total / t_seq_cold,
            "sequential_warm": total / t_seq_warm,
            "pooled_cold": total / t_pool_cold,
            "pooled_warm": total / t_pool_warm,
        },
        "warm_speedup": speedup,
        "cache": {"hits": stats.hits, "misses": stats.misses},
        "target_speedup": TARGET_SPEEDUP,
        "target_met": speedup >= TARGET_SPEEDUP,
        "gate_speedup": GATE_SPEEDUP,
        "gate_met": speedup >= GATE_SPEEDUP,
        "disjoint_admission": bench_disjoint_admission(quick),
    }


def print_matrix(result: dict) -> None:
    total = result["requests"]
    print("=" * 72)
    print(
        "T-BATCH  (%d requests over %d distinct programs, %d workers)"
        % (total, result["distinct_programs"], result["workers"])
    )
    print("=" * 72)
    rows = [
        ("sequential, cold cache (baseline)", "sequential_cold"),
        ("pooled,     cold cache", "pooled_cold"),
        ("sequential, warm cache", "sequential_warm"),
        ("pooled,     warm cache", "pooled_warm"),
    ]
    for label, key in rows:
        seconds = result["seconds"][key]
        rps = result["throughput_rps"][key]
        print(f"{label:38s} {seconds * 1000:9.1f} ms  {rps:9.1f} req/s")
    print(
        "\nwarm-cache speedup (pooled warm vs sequential cold): "
        f"{result['warm_speedup']:.1f}x  "
        f"(target >= {result['target_speedup']:.0f}x, "
        f"CI gate >= {result['gate_speedup']:.0f}x)"
    )
    cache = result["cache"]
    print(f"warm cache counters: {cache['hits']} hits, {cache['misses']} misses")
    disjoint = result["disjoint_admission"]
    print(
        "\ndisjointness admission (%d annotations, %d admissions): "
        "legacy walk %.1f ms, cached verdict %.1f ms — ratio %.2fx "
        "(gate <= %.1fx)"
        % (
            disjoint["labels"],
            disjoint["admissions"],
            disjoint["seconds"]["legacy_walk"] * 1000,
            disjoint["seconds"]["cached_verdict"] * 1000,
            disjoint["ratio"],
            disjoint["gate_ratio"],
        )
    )


def main(argv=None) -> int:
    args = bench_arguments(__doc__.splitlines()[0]).parse_args(argv)

    result = run_matrix(args.quick)
    print_matrix(result)
    merge_section(args.output, "batch", result)
    print(f"\nmerged 'batch' section into {args.output}")
    if not result["gate_met"]:
        print(
            "FAIL: warm-cache speedup %.2fx below the %.1fx gate"
            % (result["warm_speedup"], GATE_SPEEDUP),
            file=sys.stderr,
        )
        return 1
    disjoint = result["disjoint_admission"]
    if not disjoint["gate_met"]:
        print(
            "FAIL: cached disjointness admission %.2fx slower than the "
            "legacy walk (gate <= %.1fx)"
            % (disjoint["ratio"], disjoint["gate_ratio"]),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
