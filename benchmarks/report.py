"""Print the paper-style evaluation rows from direct timings.

Run:  python benchmarks/report.py            # full text report
      python benchmarks/report.py --json     # engine comparison -> BENCH_report.json

This regenerates, in one screenful, the numbers the paper reports in
Section 9.1 and Figure 11:

* the tracer's slowdown over the standard interpreter (paper: ~11% —
  measured both at the paper's low-activity operating point and under
  full tracing);
* the instrumented program's speedup over the monitored and standard
  interpreters (paper: ~85% and ~83% faster);
* the Figure 11 series: run time vs. number of requested trace
  printouts, with the linear fit and the convergence-to-baseline check;
* the T-ENG series: both engines — the reference interpreter and
  residual native code (:mod:`repro.partial_eval.codegen`) — on the
  same workloads.

``--json`` runs only the engine comparison and **merges** machine-
readable ``engines`` and ``codegen`` sections into ``BENCH_report.json``
at the repository root (CI's benchmark smoke test), preserving the
``batch`` section written by ``benchmarks/bench_batch.py``.  It exits
non-zero if the codegen engine misses its gates over the reference
interpreter (>= 9x on fib, >= 6x on the traced Figure 11 loop).  The
``codegen`` section also carries the metrics-on price: a warm-cache
codegen run with ``RunConfig(metrics=...)`` over the same run without
(``benchmarks/bench_engines.py`` gates it at <= 4x) and, with no gate,
the hook price: the same warm program under ``profile`` and ``count``
over an empty stack.
``--quick`` shrinks workloads for smoke runs.

Numbers are written to stdout; EXPERIMENTS.md records a reference run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from statistics import median

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor, ProfilerMonitor, TracerMonitor
from repro.observability import RunMetrics
from repro.partial_eval.codegen import generate_program
from repro.runtime import CompilationCache, RunConfig

from benchmarks.reporting import noise_reasons, sample_spread
from benchmarks.workloads import (
    loop_with_trace_hits,
    plain_fib,
    profiled_fib,
    traced_fib,
)

FIB_N = 15
REPEATS = 5


def best_time(thunk, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - start)
    return median(times)


def pct_slower(slow: float, fast: float) -> float:
    return (slow / fast - 1.0) * 100.0


def pct_faster(fast: float, slow: float) -> float:
    return (1.0 - fast / slow) * 100.0


def section_9_1() -> None:
    print("=" * 72)
    print("T-SPEC  (Section 9.1 specialization results)")
    print("=" * 72)

    plain = plain_fib(FIB_N)
    traced = traced_fib(FIB_N)
    tracer = TracerMonitor()

    t_std = best_time(lambda: strict.evaluate(plain))
    t_mon = best_time(lambda: run_monitored(strict, traced, tracer))
    residual = generate_program(traced, tracer)
    t_residual = best_time(lambda: residual.run())
    residual_plain = generate_program(plain)
    t_residual_plain = best_time(lambda: residual_plain.run())

    print(f"standard interpreter                 {t_std * 1000:8.1f} ms")
    print(f"monitored interpreter (full trace)   {t_mon * 1000:8.1f} ms")
    print(f"instrumented program (residual py)   {t_residual * 1000:8.1f} ms")
    print(f"plain program (residual py)          {t_residual_plain * 1000:8.1f} ms")
    print()
    print("paper: tracer ~11% slower than the standard interpreter")
    print(
        f"measured (full tracing, every call):      {pct_slower(t_mon, t_std):6.1f}% slower"
    )

    # The paper's 11% corresponds to modest monitoring activity; measure
    # the overhead at a low-activity operating point too (see F-11).
    sparse = loop_with_trace_hits(2000, 50)
    sparse_plain = loop_with_trace_hits(2000, 0)
    t_sparse_mon = best_time(lambda: run_monitored(strict, sparse, tracer))
    t_sparse_std = best_time(lambda: strict.evaluate(sparse_plain))
    print(
        f"measured (sparse tracing, 2.5% of calls): "
        f"{pct_slower(t_sparse_mon, t_sparse_std):6.1f}% slower"
    )
    print()
    print("paper: instrumented program ~85% faster than monitored interpreter")
    print(f"measured (residual python):               {pct_faster(t_residual, t_mon):6.1f}% faster")
    print("paper: instrumented program ~83% faster than standard interpreter")
    print(f"measured (residual python):               {pct_faster(t_residual, t_std):6.1f}% faster")
    print()


def figure_11() -> None:
    print("=" * 72)
    print("F-11  (Figure 11: run time vs. number of trace printouts)")
    print("=" * 72)

    total = 2000
    hit_counts = [0, 50, 200, 500, 1000, 2000]
    tracer = TracerMonitor()

    baseline_program = loop_with_trace_hits(total, 0)
    t_baseline = best_time(lambda: strict.evaluate(baseline_program))
    print(f"standard interpreter baseline: {t_baseline * 1000:8.1f} ms")
    print()
    print(f"{'trace hits':>10}  {'time (ms)':>10}  {'overhead vs std':>16}")

    points = []
    for hits in hit_counts:
        program = loop_with_trace_hits(total, hits)
        t = best_time(lambda: run_monitored(strict, program, tracer))
        points.append((hits, t))
        print(f"{hits:>10}  {t * 1000:>10.1f}  {pct_slower(t, t_baseline):>15.1f}%")

    # Least-squares slope: cost per trace printout.
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    intercept = mean_y - slope * mean_x
    print()
    print(f"linear fit: {slope * 1e6:.1f} us per trace printout, "
          f"intercept {intercept * 1000:.1f} ms")
    print(
        "paper: performance approaches the standard interpreter as "
        "monitoring activity decreases;"
    )
    print(
        f"measured: zero-activity monitored run is "
        f"{pct_slower(points[0][1], t_baseline):.1f}% over the baseline"
    )
    print()


def measure_engines(quick: bool = False, repeats: int = REPEATS):
    """Time both execution engines end-to-end on the T-ENG workloads.

    Returns a list of row dicts: workload name, per-engine medians (in
    seconds) and the codegen engine's speedup over the reference.
    Timings go through the public API, so the codegen rows include
    compilation.
    """
    # Timings include compilation (public-API, end-to-end), so the gated
    # fib row keeps its full size even under --quick: the codegen tier's
    # fixed compile cost (~0.3 ms of source emission + exec) must stay a
    # small share of the run being measured or the ratio sags toward the
    # gate.  Only the ungated loop row shrinks.
    fib_n = FIB_N
    loop_n = 1000 if quick else 2000
    tracer = TracerMonitor()

    workloads = [
        (
            "fib_unmonitored",
            plain_fib(fib_n),
            lambda p, engine: strict.evaluate(p, engine=engine),
        ),
        (
            "loop_unmonitored",
            loop_with_trace_hits(loop_n, 0),
            lambda p, engine: strict.evaluate(p, engine=engine),
        ),
        (
            "fib_traced_monitored",
            traced_fib(fib_n),
            lambda p, engine: run_monitored(
                strict, p, tracer, config=RunConfig(engine=engine)
            ),
        ),
        # Figure 11's shape: fixed work, a 2% slice of traced iterations.
        # This is the monitored row that gates *engine* overhead — the
        # fully-traced fib row above is dominated by the tracer's own hook
        # cost, which both engines share — so its size is fixed (not
        # shrunk by --quick) to keep the measured ratio stable.
        (
            "loop_traced_monitored",
            loop_with_trace_hits(5000, 100),
            lambda p, engine: run_monitored(
                strict, p, tracer, config=RunConfig(engine=engine)
            ),
        ),
    ]

    rows = []
    for name, program, run in workloads:
        # Interleave the engines round by round so machine-load drift
        # lands on both alike — the gated *ratios* stay stable even when
        # absolute timings wander.
        times = {"reference": [], "codegen": []}
        for _ in range(repeats):
            for engine in times:
                start = time.perf_counter()
                run(program, engine)
                times[engine].append(time.perf_counter() - start)
        t_ref = median(times["reference"])
        t_gen = median(times["codegen"])
        rows.append(
            {
                "workload": name,
                "monitored": name.endswith("monitored")
                and not name.endswith("unmonitored"),
                "reference_s": t_ref,
                "codegen_s": t_gen,
                "codegen_speedup_vs_reference": t_ref / t_gen,
                "reference_spread": sample_spread(times["reference"]),
                "codegen_spread": sample_spread(times["codegen"]),
            }
        )
    return rows


#: The codegen tier's gates over the reference interpreter.  They carry
#: forward the old two-step chain: codegen >= 3x the retired staged
#: closure engine, which was held to >= 3x reference unmonitored and >= 2x
#: monitored (benchmarks/bench_engines.py holds the same bounds).
CODEGEN_TARGETS = {
    "vs_reference_unmonitored": 9.0,
    "vs_reference_monitored": 6.0,
}


#: Metrics-on codegen runs execute the cached collapsed artifact (its
#: tallied variant), so they may cost at most this multiple of a
#: metrics-off run — the price of the telemetry-wrapped hooks plus one
#: tally call per straight-line region.
METRICS_PRICE_BOUND = 4.0


def measure_metrics_price(repeats: int = 9):
    """Warm-cache codegen fib 16 under ``profile``, metrics off vs on.

    Interleaved min-of-``repeats`` in one process: both sides share the
    machine's load, so the ratio holds on a 1-core box.
    """
    program = profiled_fib(16)
    cache = CompilationCache()

    def run(metrics):
        config = RunConfig(engine="codegen", metrics=metrics)
        return run_monitored(
            strict, program, ProfilerMonitor(), config=config, cache=cache
        )

    run(None)
    run(RunMetrics())  # compile, then build the tallied variant
    times = {"off": [], "on": []}
    for _ in range(repeats):
        for side, metrics in (("off", None), ("on", RunMetrics())):
            start = time.perf_counter()
            run(metrics)
            times[side].append(time.perf_counter() - start)
    t_off, t_on = min(times["off"]), min(times["on"])
    return {
        "workload": "fib16_profile_warm_cache",
        "metrics_off_s": t_off,
        "metrics_on_s": t_on,
        "ratio": t_on / t_off,
        "bound": METRICS_PRICE_BOUND,
    }


def measure_hook_price(repeats: int = 9):
    """Warm-cache codegen fib 16 under ``profile`` and ``count`` vs no stack.

    The empty stack runs the same program with its annotation erased, so
    each ratio is the price of the residual hook path on the default
    ``propagate`` policy, metrics off.  Interleaved min-of-``repeats`` in
    one process: the sides share the machine's load, so the ratios hold
    on a 1-core box.  Informational — no gate; ``spread`` is each side's
    (median - min) / min, the noise to read a change in the ratios against.
    """
    program = profiled_fib(16)
    cache = CompilationCache()
    config = RunConfig(engine="codegen")
    stacks = {
        "empty": [],
        "profile": [ProfilerMonitor()],
        "count": [LabelCounterMonitor()],
    }
    for stack in stacks.values():  # compile each artifact once
        run_monitored(strict, program, stack, config=config, cache=cache)
    times = {side: [] for side in stacks}
    for _ in range(repeats):
        for side, stack in stacks.items():
            start = time.perf_counter()
            run_monitored(strict, program, stack, config=config, cache=cache)
            times[side].append(time.perf_counter() - start)
    best = {side: min(samples) for side, samples in times.items()}
    return {
        "workload": "fib16_warm_cache",
        **{f"{side}_s": best[side] for side in stacks},
        "profile_ratio": best["profile"] / best["empty"],
        "count_ratio": best["count"] / best["empty"],
        "spread": {side: sample_spread(samples) for side, samples in times.items()},
    }


def engines_section(quick: bool = False):
    print("=" * 72)
    print("T-ENG  (engine tiers vs. reference interpreter)")
    print("=" * 72)
    rows = measure_engines(quick=quick)
    print(f"{'workload':<22} {'reference':>12} {'codegen':>12} {'ref/gen':>8}")
    for row in rows:
        print(
            f"{row['workload']:<22} {row['reference_s'] * 1000:>9.1f} ms "
            f"{row['codegen_s'] * 1000:>9.1f} ms "
            f"{row['codegen_speedup_vs_reference']:>7.2f}x"
        )
    print()
    print(
        f"codegen targets: >= "
        f"{CODEGEN_TARGETS['vs_reference_unmonitored']:.0f}x over reference on "
        f"fib, >= {CODEGEN_TARGETS['vs_reference_monitored']:.0f}x on the "
        f"traced loop"
    )
    print()
    return rows


def json_report(quick: bool, output: str) -> int:
    """CI's benchmark smoke test: engine rows -> JSON, gated on codegen.

    Merges ``engines`` and ``codegen`` sections into the report file (via
    :mod:`benchmarks.reporting`), preserving sections other scripts wrote.
    """
    from benchmarks.reporting import merge_section

    rows = measure_engines(quick=quick, repeats=3 if quick else REPEATS)
    by_name = {row["workload"]: row for row in rows}
    engines_payload = {
        "quick": quick,
        "repeats": 3 if quick else REPEATS,
        "workloads": rows,
    }
    # Gate rows: fib (the Section 9.1 headline) for unmonitored, the
    # Figure 11 sparse-traced loop for monitored.  The deep-recursion
    # plain loop and the hook-dominated traced fib stay informational —
    # the former measures host-stack cost, the latter shared hook cost.
    speedups = {
        "vs_reference_unmonitored": by_name["fib_unmonitored"][
            "codegen_speedup_vs_reference"
        ],
        "vs_reference_monitored": by_name["loop_traced_monitored"][
            "codegen_speedup_vs_reference"
        ],
    }
    codegen_targets_met = {
        key: speedups[key] >= CODEGEN_TARGETS[key] for key in CODEGEN_TARGETS
    }
    noise = noise_reasons(
        (f"{row['workload']}: {engine}", row[f"{engine}_spread"])
        for row in (by_name["fib_unmonitored"], by_name["loop_traced_monitored"])
        for engine in ("reference", "codegen")
    )
    codegen_payload = {
        "quick": quick,
        "speedups": speedups,
        "vs_reference": {
            row["workload"]: row["codegen_speedup_vs_reference"] for row in rows
        },
        "targets": CODEGEN_TARGETS,
        "targets_met": codegen_targets_met,
        "noise": noise,
        "metrics_on_vs_off": measure_metrics_price(),
        "hook_price": measure_hook_price(),
    }
    merge_section(output, "engines", engines_payload)
    merge_section(output, "codegen", codegen_payload)

    for row in rows:
        print(
            f"{row['workload']:<22} {row['reference_s'] * 1000:>9.1f} ms -> "
            f"{row['codegen_s'] * 1000:>9.1f} ms  "
            f"(codegen {row['codegen_speedup_vs_reference']:.2f}x over reference)"
        )
    price = codegen_payload["metrics_on_vs_off"]
    print(
        f"metrics on vs off (codegen, fib 16, profile, warm cache): "
        f"{price['metrics_off_s'] * 1000:.1f} ms -> "
        f"{price['metrics_on_s'] * 1000:.1f} ms ({price['ratio']:.2f}x, "
        f"gate <= {METRICS_PRICE_BOUND:.0f}x in bench_engines.py)"
    )
    hooks = codegen_payload["hook_price"]
    print(
        f"hook price (codegen, fib 16, warm cache, informational): "
        f"empty {hooks['empty_s'] * 1000:.1f} ms, "
        f"profile {hooks['profile_ratio']:.2f}x, count {hooks['count_ratio']:.2f}x"
    )
    print(f"merged 'engines' and 'codegen' sections into {output}")

    failed = [key for key, met in codegen_targets_met.items() if not met]
    if failed:
        for key in failed:
            print(
                f"FAIL: codegen {speedups[key]:.2f}x over reference "
                f"on {key} (gate >= {CODEGEN_TARGETS[key]:.1f}x)",
                file=sys.stderr,
            )
        if noise:
            # A single-core or heavily-loaded box cannot support a hard
            # ratio gate: demote to informational, loudly, instead of
            # flaking CI on machine load.
            print(
                "PERF GATE DEMOTED TO INFORMATIONAL — environment unfit "
                "for a hard gate: " + "; ".join(noise),
                file=sys.stderr,
            )
            return 0
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="paper-style benchmark report (Section 9.1 / Figure 11 / T-ENG)"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="run only the engine comparison and write BENCH_report.json",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads and fewer repeats (CI smoke test)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_report.json"),
        help="JSON output path (default: BENCH_report.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.json:
        return json_report(quick=args.quick, output=args.output)

    section_9_1()
    figure_11()
    engines_section(quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
