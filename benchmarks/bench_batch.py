"""Benchmark batched serving: in-process batches vs the process pool.

Run:  python benchmarks/bench_batch.py            # full matrix -> stdout
      python benchmarks/bench_batch.py --quick    # CI smoke (smaller workload)

Measures the T-BATCH matrix for EXPERIMENTS.md: throughput (requests per
second) of sequential in-process runs against the process pool, each
with a cold and a warm compilation cache, over a compile-dominated
workload, the shape the :class:`repro.runtime.CompilationCache` is
built for.  There are 4 distinct programs (6 in the full matrix), each
requested many times.  Each program binds a balanced sum of 400 integer
literals (1,200 in the full matrix) and then makes one call.  The
codegen engine emits one residual statement per ``+``, so compiling a
program costs far more than running it.

Programs are parsed once up front: the cache keys compiled *programs*,
not source text, and a serving layer would hold parsed ASTs anyway.
The in-process arms are the :class:`repro.runtime.BatchRunner`, which
runs requests one after another; the headline win is the warm cache
amortizing compilation, which is why the gated comparison is
**in-process warm cache vs sequential cold compiles**.  The process-pool
arms are informational: each cold timing run gets a freshly started
pool whose worker caches are empty.

The script merges a ``"batch"`` section into ``BENCH_report.json``
(preserving whatever ``report.py --json`` wrote there) and exits
non-zero if the warm-cache speedup falls below its one gate, 2x.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack
from statistics import median

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.languages.strict import strict
from repro.monitoring.derive import check_disjoint, run_monitored
from repro.runtime import (
    CompilationCache,
    ProcessPoolRunner,
    RunConfig,
    RunRequest,
    run_batch,
)
from repro.syntax.parser import parse
from repro.toolbox.registry import make_tool

from benchmarks.reporting import bench_arguments, interleaved, merge_section

WORKERS = 4
REPEATS = 3
GATE_SPEEDUP = 2.0   # CI fails below this
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
    """One compile-dominated program: a big literal sum plus a tiny call.

    The codegen engine emits one residual statement per ``+``, so
    compiling costs far more than running the residual program — the
    serving-cache sweet spot.
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


#: The matrix's arms and their labels, the baseline first.
ARMS = (
    ("sequential_cold", "in process, cold cache (baseline)"),
    ("sequential_warm", "in process, warm cache"),
    ("process_cold", "process pool, cold caches"),
    ("process_warm", "process pool, warm caches"),
)


def time_arms(requests):
    """Median seconds per batch of each arm, in :data:`ARMS` order.

    The warm arms run over caches pre-warmed by an untimed pass; each
    cold process-pool timing run takes the next of ``REPEATS`` pools
    started up front, so forking is not timed and no worker has compiled
    anything yet.
    """
    warm_cache = CompilationCache(32)
    run_batch(requests, cache=warm_cache)
    with ExitStack() as stack:

        def pool():
            return stack.enter_context(
                ProcessPoolRunner(workers=WORKERS, cache_size=32)
            ).start()

        cold_pools = iter([pool() for _ in range(REPEATS)])
        warm_pool = pool()
        warm_pool.run(requests)
        thunks = {
            "sequential_cold": lambda: sequential_cold(requests),
            "sequential_warm": lambda: run_batch(requests, cache=warm_cache),
            "process_cold": lambda: next(cold_pools).run(requests),
            "process_warm": lambda: warm_pool.run(requests),
        }
        samples = interleaved([thunks[arm] for arm, _ in ARMS], REPEATS)
    seconds = {arm: median(times) for (arm, _), times in zip(ARMS, samples)}
    return seconds, warm_cache.stats()


def run_matrix(quick: bool) -> dict:
    programs, requests = build_workload(quick)
    total = len(requests)
    seconds, stats = time_arms(requests)
    speedup = seconds["sequential_cold"] / seconds["sequential_warm"]
    return {
        "quick": quick,
        "requests": total,
        "distinct_programs": len(programs),
        "workers": WORKERS,
        "repeats": REPEATS,
        "seconds": seconds,
        "throughput_rps": {arm: total / value for arm, value in seconds.items()},
        "warm_speedup": speedup,
        "cache": {"hits": stats.hits, "misses": stats.misses},
        "gate_speedup": GATE_SPEEDUP,
        "gate_met": speedup >= GATE_SPEEDUP,
        "disjoint_admission": bench_disjoint_admission(quick),
    }


def print_matrix(result: dict) -> None:
    total = result["requests"]
    print("=" * 72)
    print(
        "T-BATCH  (%d requests over %d distinct programs, pool of %d workers)"
        % (total, result["distinct_programs"], result["workers"])
    )
    print("=" * 72)
    for key, label in ARMS:
        seconds = result["seconds"][key]
        rps = result["throughput_rps"][key]
        print(f"{label:38s} {seconds * 1000:9.1f} ms  {rps:9.1f} req/s")
    print(
        "\nwarm-cache speedup (in-process warm vs sequential cold): "
        f"{result['warm_speedup']:.1f}x  "
        f"(CI gate >= {result['gate_speedup']:.0f}x)"
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
