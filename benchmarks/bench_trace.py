"""T-TRACE: the record-once / analyze-many trade against inline monitoring.

Run:  python benchmarks/bench_trace.py            # full workload -> stdout
      python benchmarks/bench_trace.py --quick    # CI smoke (smaller workload)

Two numbers tell the story of the trace backend:

* **Record overhead** (gated, ≤ 1.5x): a
  ``mode="record"`` run on the codegen engine against the plain
  unmonitored codegen run, on Figure 11's loop with a sparse traced
  slice — the realistic recording regime (record everything and the
  recorder's cost is the monitor's cost, which ``bench_engines`` already
  measures).  The gate is single-core safe: both arms are one process,
  interleaved min-of-N.

* **Post-hoc amortization** (informational, never gated): folding N
  monitor stacks over one recorded trace against running the program
  inline N times.  The fold never re-executes the program, so the win
  grows with N and with program cost; the measured ratio depends on the
  machine and is reported, not asserted.

The script merges a ``"trace"`` section into ``BENCH_report.json``
(preserving other sections) and exits non-zero if the record-overhead
gate fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import (
    CollectingMonitor,
    LabelCounterMonitor,
    ProfilerMonitor,
    TracerMonitor,
)
from repro.runtime.config import RunConfig
from repro.tracing import analyze_many, record

from benchmarks.workloads import loop_with_trace_hits

#: The gate: recording may cost at most this factor over the plain
#: unmonitored codegen run on the sparse-traced Figure 11 loop.
RECORD_OVERHEAD_BUDGET = 1.5
TIMER_EPSILON = 1e-3  # seconds

#: Figure 11 regime: fixed program work, a thin traced slice.
TOTAL_ITERATIONS = 20_000
TRACED_ITERATIONS = 200


def _paired_min(thunk_a, thunk_b, repeats=9):
    """Interleaved min-of-N timing (see ``bench_engines._paired_min``)."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        thunk_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        thunk_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _null_out():
    """A sink writer: measure recording, not the filesystem."""
    return open(os.devnull, "w")


def measure_record_overhead(total=TOTAL_ITERATIONS, traced=TRACED_ITERATIONS):
    program = loop_with_trace_hits(total, traced)
    config = RunConfig(engine="codegen")

    def plain():
        strict.evaluate(program, engine="codegen")

    def recorded():
        with _null_out() as out:
            record(
                strict,
                program,
                out,
                monitors=[TracerMonitor()],
                config=config,
            )

    t_plain, t_record = _paired_min(plain, recorded)
    return {
        "workload": f"loop({total}, traced={traced})",
        "plain_codegen_ms": t_plain * 1e3,
        "record_codegen_ms": t_record * 1e3,
        "overhead": t_record / t_plain if t_plain else float("inf"),
        "budget": RECORD_OVERHEAD_BUDGET,
    }


def test_record_overhead_within_budget():
    """The tentpole's cost gate: record ≤ 1.5x unmonitored codegen."""
    result = measure_record_overhead()
    assert (
        result["record_codegen_ms"]
        <= result["plain_codegen_ms"] * RECORD_OVERHEAD_BUDGET
        + TIMER_EPSILON * 1e3
    ), (
        f"record mode above {RECORD_OVERHEAD_BUDGET}x over plain codegen: "
        f"plain {result['plain_codegen_ms']:.2f} ms vs "
        f"record {result['record_codegen_ms']:.2f} ms "
        f"({result['overhead']:.2f}x)"
    )


def measure_posthoc_amortization(total=20_000, traced=2_000, repeats=3):
    """Informational: fold N stacks over one trace vs N inline runs.

    The folds run one after another; their win comes from not re-running
    the program.
    """
    import tempfile

    program = loop_with_trace_hits(total, traced)

    def stacks():
        return [
            [TracerMonitor()],
            [ProfilerMonitor()],
            [CollectingMonitor()],
            [LabelCounterMonitor()],
        ]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        start = time.perf_counter()
        record(
            strict,
            program,
            path,
            monitors=[TracerMonitor()],
            config=RunConfig(engine="codegen"),
        )
        t_record = time.perf_counter() - start

        t_inline = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for stack in stacks():
                run_monitored(
                    strict, program, stack, config=RunConfig(engine="codegen")
                )
            t_inline = min(t_inline, time.perf_counter() - start)

        t_fold = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            analyze_many(path, stacks(), check_disjointness=False)
            t_fold = min(t_fold, time.perf_counter() - start)

    return {
        "workload": f"loop({total}, traced={traced})",
        "stacks": 4,
        "record_once_ms": t_record * 1e3,
        "inline_4_stacks_ms": t_inline * 1e3,
        "fold_4_stacks_ms": t_fold * 1e3,
        "fold_speedup_over_inline": t_inline / t_fold if t_fold else 0.0,
    }


def run_matrix(quick: bool) -> dict:
    if quick:
        overhead = measure_record_overhead(total=5_000, traced=50)
        amortization = measure_posthoc_amortization(total=5_000, traced=500)
    else:
        overhead = measure_record_overhead()
        amortization = measure_posthoc_amortization()
    return {
        "record_overhead": overhead,
        "posthoc": amortization,
        "gate": {
            "budget": RECORD_OVERHEAD_BUDGET,
            "met": overhead["overhead"] <= RECORD_OVERHEAD_BUDGET,
        },
    }


def print_matrix(result: dict) -> None:
    overhead = result["record_overhead"]
    posthoc = result["posthoc"]
    print("T-TRACE: record-once / analyze-many")
    print(f"  workload           {overhead['workload']}")
    print(f"  plain codegen      {overhead['plain_codegen_ms']:.2f} ms")
    print(
        f"  record codegen     {overhead['record_codegen_ms']:.2f} ms "
        f"({overhead['overhead']:.2f}x, budget {overhead['budget']:.1f}x)"
    )
    print(
        f"  post-hoc ({posthoc['stacks']} stacks) record {posthoc['record_once_ms']:.1f} ms"
        f" + fold {posthoc['fold_4_stacks_ms']:.1f} ms"
        f" vs inline {posthoc['inline_4_stacks_ms']:.1f} ms"
        f" -> fold alone {posthoc['fold_speedup_over_inline']:.2f}x (informational)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_report.json"),
        help="report file to merge the 'trace' section into",
    )
    args = parser.parse_args(argv)

    result = run_matrix(args.quick)
    print_matrix(result)
    from benchmarks.reporting import merge_section

    merge_section(args.output, "trace", result)
    print(f"\nmerged 'trace' section into {args.output}")
    if not result["gate"]["met"]:
        print(
            "FAIL: record overhead %.2fx above the %.1fx budget"
            % (result["record_overhead"]["overhead"], RECORD_OVERHEAD_BUDGET),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
