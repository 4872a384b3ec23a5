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

import os
import sys
import tempfile

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

from benchmarks.reporting import bench_arguments, interleaved, merge_section
from benchmarks.workloads import loop_with_trace_hits

#: The gate: recording may cost at most this factor over the plain
#: unmonitored codegen run on the sparse-traced Figure 11 loop.
RECORD_OVERHEAD_BUDGET = 1.5

#: Figure 11 regime: fixed program work, a thin traced slice.
TOTAL_ITERATIONS = 20_000
TRACED_ITERATIONS = 200


def _null_out():
    """A sink writer: measure recording, not the filesystem."""
    return open(os.devnull, "w")


def measure_record_overhead(total=TOTAL_ITERATIONS, traced=TRACED_ITERATIONS):
    program = loop_with_trace_hits(total, traced)
    config = RunConfig(engine="codegen")

    def plain():
        strict.evaluate(program, config=config)

    def recorded():
        with _null_out() as out:
            record(
                strict,
                program,
                out,
                monitors=[TracerMonitor()],
                config=config,
            )

    t_plain, t_record = map(min, interleaved([plain, recorded], 9))
    return {
        "workload": f"loop({total}, traced={traced})",
        "plain_codegen_ms": t_plain * 1e3,
        "record_codegen_ms": t_record * 1e3,
        "overhead": t_record / t_plain if t_plain else float("inf"),
        "budget": RECORD_OVERHEAD_BUDGET,
    }


def measure_posthoc_amortization(total=20_000, traced=2_000, repeats=3):
    """Informational: fold N stacks over one trace vs N inline runs.

    The folds run one after another; their win comes from not re-running
    the program.
    """
    program = loop_with_trace_hits(total, traced)
    config = RunConfig(engine="codegen")

    def stacks():
        return [
            [TracerMonitor()],
            [ProfilerMonitor()],
            [CollectingMonitor()],
            [LabelCounterMonitor()],
        ]

    def inline():
        for stack in stacks():
            run_monitored(strict, program, stack, config=config)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        [[t_record]] = interleaved(
            [
                lambda: record(
                    strict, program, path, monitors=[TracerMonitor()], config=config
                )
            ],
            1,
        )
        t_inline, t_fold = map(
            min,
            interleaved(
                [inline, lambda: analyze_many(path, stacks(), check_disjointness=False)],
                repeats,
            ),
        )

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
    args = bench_arguments(__doc__.splitlines()[0]).parse_args(argv)

    result = run_matrix(args.quick)
    print_matrix(result)
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
