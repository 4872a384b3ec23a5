"""Benchmark the multi-process serving tier: process pool vs in-process batch.

Run:  python benchmarks/bench_serve.py            # full workload -> stdout
      python benchmarks/bench_serve.py --quick    # CI smoke (smaller workload)

Measures the T-SERVE matrix for EXPERIMENTS.md: throughput (requests per
second) of the :class:`repro.runtime.ProcessPoolRunner` against the
in-process sequential :func:`repro.runtime.run_batch` baseline on a
**CPU-bound mixed workload** — distinct mid-sized programs (so
fingerprint routing spreads them over the workers) with monitor stacks
attached, each request tens of milliseconds of pure-Python evaluation.
One process runs this workload on one core, whatever its thread count
(the GIL); processes can scale it.

Both arms run warm (caches pre-warmed by an untimed pass) so the
comparison isolates *execution* parallelism, not compile amortization —
that is ``bench_batch.py``'s story.  A per-worker scaling table (1, 2, 4
workers) shows where the curve bends.

**The gate is honest about the machine.**  The acceptance bar — process
pool >= 2x the in-process run at 4 workers — presumes >= 4 cores; on a
1-core CI box the speedup is physically capped at 1x and gating on 2x
would only test the container, not the code.  So: with >= 4 cores the
2x gate applies; below that the gate degrades to an overhead bound (the
process pool must stay within 2x of in-process throughput — IPC and
pickling must not eat the tier).  Which gate applied is recorded in the
report (``gate.mode``/``gate.cpu_count``), never silently dropped.

The script merges a ``"serve"`` section into ``BENCH_report.json``
(preserving the other sections) and exits non-zero if the applicable
gate fails.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack
from statistics import median

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.runtime import (
    CompilationCache,
    ProcessPoolRunner,
    RunConfig,
    RunRequest,
    run_batch,
)
from repro.syntax.parser import parse

from benchmarks.reporting import bench_arguments, interleaved, merge_section

WORKERS = 4
SCALING = (1, 2, 4)
REPEATS = 3
#: The multi-core bar: process pool >= 2x the in-process run at 4
#: workers (applies when the machine has >= 4 cores).
GATE_SPEEDUP = 2.0
#: The fallback bound on core-starved machines: the process tier may not
#: be worse than half the in-process throughput (IPC overhead cap).
GATE_OVERHEAD_RATIO = 0.5
#: Cores needed before the full speedup gate is meaningful.
GATE_MIN_CPUS = 4

FIB = "letrec fib = lambda n. if n < 2 then n else fib (n - 1) + fib (n - 2) in fib %d"
FAC_DEEP = (
    "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) "
    "in letrec go = lambda k. if k = 0 then 0 else fac 40 + go (k - 1) in go %d"
)


def build_workload(quick: bool):
    """CPU-bound mixed requests over enough distinct programs to shard.

    Distinct program texts matter: routing is by fingerprint, so one hot
    program would pin every request to a single worker.  Eight distinct
    programs over four workers keeps all shards busy.
    """
    depth = 13 if quick else 16
    total = 24 if quick else 64
    config = RunConfig(engine="codegen")
    programs = [parse(FIB % (depth + n % 3)) for n in range(4)]
    programs += [parse(FAC_DEEP % (20 + 10 * n)) for n in range(4)]
    tools = ["", "profile", "", "count", "", "profile", "", "count"]
    requests = [
        RunRequest(
            program=programs[n % len(programs)],
            tools=tools[n % len(tools)] or (),
            config=config,
        )
        for n in range(total)
    ]
    return programs, requests


def time_tiers(requests):
    """Median seconds per batch: in process, then each process pool.

    Every tier runs warm — the in-process cache and each process pool's
    per-worker caches are pre-warmed by an untimed pass — and the tiers
    take turns, one batch each per round.
    """
    cache = CompilationCache(64)
    run_batch(requests, cache=cache)  # warm, untimed
    tiers = [lambda: run_batch(requests, cache=cache)]
    with ExitStack() as stack:
        for workers in SCALING:
            pool = stack.enter_context(
                ProcessPoolRunner(workers=workers, cache_size=64)
            )
            pool.run(requests)  # warm every shard, untimed
            tiers.append(lambda pool=pool: pool.run(requests))
        return [median(samples) for samples in interleaved(tiers, REPEATS)]


def run_matrix(quick: bool) -> dict:
    cpu_count = os.cpu_count() or 1
    programs, requests = build_workload(quick)
    total = len(requests)

    t_in_process, *t_pools = time_tiers(requests)
    scaling = {
        str(workers): total / seconds for workers, seconds in zip(SCALING, t_pools)
    }
    t_process = total / scaling[str(WORKERS)]

    speedup = t_in_process / t_process
    gate_mode = "speedup" if cpu_count >= GATE_MIN_CPUS else "overhead"
    if gate_mode == "speedup":
        gate_met = speedup >= GATE_SPEEDUP
    else:
        gate_met = speedup >= GATE_OVERHEAD_RATIO
    return {
        "quick": quick,
        "requests": total,
        "distinct_programs": len(programs),
        "workers": WORKERS,
        "repeats": REPEATS,
        "cpu_count": cpu_count,
        "seconds": {"in_process": t_in_process, "process_pool": t_process},
        "throughput_rps": {
            "in_process": total / t_in_process,
            "process_pool": total / t_process,
        },
        "process_scaling_rps": scaling,
        "speedup": speedup,
        "gate": {
            "mode": gate_mode,
            "cpu_count": cpu_count,
            "required_speedup": GATE_SPEEDUP,
            "overhead_ratio": GATE_OVERHEAD_RATIO,
            "min_cpus_for_speedup_gate": GATE_MIN_CPUS,
            "met": gate_met,
        },
    }


def print_matrix(result: dict) -> None:
    total = result["requests"]
    print("=" * 72)
    print(
        "T-SERVE  (%d CPU-bound requests over %d distinct programs, "
        "%d-core machine)"
        % (total, result["distinct_programs"], result["cpu_count"])
    )
    print("=" * 72)
    for label, key in (
        ("in process, sequential (baseline)", "in_process"),
        ("process pool, 4 workers", "process_pool"),
    ):
        seconds = result["seconds"][key]
        rps = result["throughput_rps"][key]
        print(f"{label:38s} {seconds * 1000:9.1f} ms  {rps:9.1f} req/s")
    print("\nprocess-pool scaling:")
    for workers in SCALING:
        rps = result["process_scaling_rps"][str(workers)]
        print(f"  {workers} worker(s) {rps:9.1f} req/s")
    gate = result["gate"]
    if gate["mode"] == "speedup":
        print(
            "\nprocess pool vs in-process speedup: %.2fx  (gate >= %.1fx on this "
            "%d-core machine)"
            % (result["speedup"], gate["required_speedup"], gate["cpu_count"])
        )
    else:
        print(
            "\nprocess pool vs in-process ratio: %.2fx — %d core(s), so the %.1fx "
            "multi-core gate does not apply; gating IPC overhead instead "
            "(ratio >= %.1fx)"
            % (
                result["speedup"],
                gate["cpu_count"],
                gate["required_speedup"],
                gate["overhead_ratio"],
            )
        )


def main(argv=None) -> int:
    args = bench_arguments(__doc__.splitlines()[0]).parse_args(argv)

    result = run_matrix(args.quick)
    print_matrix(result)
    merge_section(args.output, "serve", result)
    print(f"\nmerged 'serve' section into {args.output}")
    if not result["gate"]["met"]:
        gate = result["gate"]
        bar = (
            "%.1fx speedup" % gate["required_speedup"]
            if gate["mode"] == "speedup"
            else "%.1fx overhead ratio" % gate["overhead_ratio"]
        )
        print(
            "FAIL: process/in-process ratio %.2fx below the %s gate"
            % (result["speedup"], bar),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
