"""Print the paper-style evaluation rows from direct timings.

Run:  python benchmarks/report.py            # full text report
      python benchmarks/report.py --json     # engine comparison -> BENCH_report.json

The text report is the home of EXPERIMENTS.md's T-SPEC and F-11 rows.
It regenerates, in one screenful, the numbers the paper reports in
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

Before timing, every Section 9.1 program must answer fib 15 = 610 and
every Figure 11 run must print exactly as many ``receives`` lines as it
has trace hits.  ``benchmarks/e2e/paper.py`` re-measures the §9.1
ratios and the Figure 11 slope as the end-to-end benchmark's rows.

``--json`` runs only the engine comparison and **merges** machine-
readable ``engines`` and ``codegen`` sections into ``BENCH_report.json``
at the repository root (CI's benchmark smoke test), preserving the
sections the other bench scripts write.  It is the one place the codegen
speedup gate is measured and enforced: interleaved min-of-9 against the
reference interpreter, >= 9x on unmonitored fib 14 and >= 6x on the
traced Figure 11 loop (5000 iterations, 100 traced); on a single-core or
noisy box a miss is demoted to a loud notice.  The ``codegen`` section
also carries the metrics-on price: a warm-cache codegen run with
``RunConfig(metrics=...)`` over the same run without
(``benchmarks/bench_engines.py`` gates it at <= 4x) and, with no gate,
the hook price: the same warm program under ``profile`` and ``count``
over an empty stack.
``--quick`` shrinks the ungated workloads for smoke runs.

Numbers are written to stdout; EXPERIMENTS.md records a reference run.
"""

from __future__ import annotations

import os
import sys
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

from benchmarks.reporting import (
    bench_arguments,
    interleaved,
    merge_section,
    noise_reasons,
    sample_spread,
)
from benchmarks.workloads import (
    loop_with_trace_hits,
    plain_fib,
    profiled_fib,
    traced_fib,
)

#: The Section 9.1 program, fib 15, and its answer.
FIB_N = 15
FIB_ANSWER = 610
#: The text rows' statistic: median of this many interleaved rounds.
REPEATS = 5


def _check(label: str, got, want) -> None:
    """Refuse to time a run that answers wrongly."""
    if got != want:
        raise AssertionError(f"{label}: expected {want!r}, got {got!r}")


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
    residual = generate_program(traced, tracer)
    residual_plain = generate_program(plain)
    runs = {
        "standard interpreter": lambda: strict.evaluate(plain),
        "monitored interpreter": lambda: run_monitored(strict, traced, tracer).answer,
        "instrumented program": lambda: residual.run()[0],
        "plain residual program": residual_plain.evaluate,
    }
    for label, run in runs.items():
        _check(f"T-SPEC {label}", run(), FIB_ANSWER)
    # Obliviousness: the standard semantics runs the annotated program too.
    _check(
        "T-SPEC standard interpreter, annotated program",
        strict.evaluate(traced),
        FIB_ANSWER,
    )
    t_std, t_mon, t_residual, t_residual_plain = map(
        median, interleaved(list(runs.values()), REPEATS)
    )

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
    t_sparse_mon, t_sparse_std = map(
        median,
        interleaved(
            [
                lambda: run_monitored(strict, sparse, tracer),
                lambda: strict.evaluate(sparse_plain),
            ],
            REPEATS,
        ),
    )
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
    _check("F-11 standard interpreter", strict.evaluate(baseline_program), total)
    runs = [lambda: strict.evaluate(baseline_program)]
    for hits in hit_counts:
        program = loop_with_trace_hits(total, hits)
        result = run_monitored(strict, program, tracer)
        _check(f"F-11 answer at {hits} hits", result.answer, total)
        _check(
            f"F-11 receives lines at {hits} hits",
            result.report("trace").count("receives"),
            hits,
        )
        runs.append(lambda program=program: run_monitored(strict, program, tracer))
    t_baseline, *times = map(median, interleaved(runs, REPEATS))
    print(f"standard interpreter baseline: {t_baseline * 1000:8.1f} ms")
    print()
    print(f"{'trace hits':>10}  {'time (ms)':>10}  {'overhead vs std':>16}")

    points = list(zip(hit_counts, times))
    for hits, t in points:
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


#: The codegen tier's gates over the reference interpreter.  They carry
#: forward the old two-step chain: codegen >= 3x the retired staged
#: closure engine, which was held to >= 3x reference unmonitored and >= 2x
#: monitored.  Measured headroom is far larger (21-41x on fib 14, 20-32x
#: on the traced loop).
CODEGEN_TARGETS = {
    "vs_reference_unmonitored": 9.0,
    "vs_reference_monitored": 6.0,
}

#: The gate's statistic: min of this many interleaved rounds per engine.
ENGINE_REPEATS = 9
#: The gated fib row: small enough that codegen's fixed compile cost is a
#: real share of the run, which makes the ratio the stricter one.
ENGINE_FIB_N = 14


def measure_engines(quick: bool = False):
    """Time both execution engines end-to-end on the T-ENG workloads.

    Returns a list of row dicts: workload name, per-engine minima (in
    seconds), each side's spread and the codegen engine's speedup over
    the reference.  Timings go through the public API, so the codegen
    rows include compilation.
    """
    # The gated rows (fib, the traced loop) keep their size under --quick;
    # only the ungated plain loop shrinks.
    loop_n = 1000 if quick else 2000
    tracer = TracerMonitor()

    def evaluate(program, engine):
        return strict.evaluate(program, config=RunConfig(engine=engine))

    def monitored(program, engine):
        return run_monitored(strict, program, tracer, config=RunConfig(engine=engine))

    workloads = [
        ("fib_unmonitored", plain_fib(ENGINE_FIB_N), evaluate),
        ("loop_unmonitored", loop_with_trace_hits(loop_n, 0), evaluate),
        ("fib_traced_monitored", traced_fib(ENGINE_FIB_N), monitored),
        # Figure 11's shape: fixed work, a 2% slice of traced iterations.
        # This is the monitored row that gates *engine* overhead — the
        # fully-traced fib row above is dominated by the tracer's own hook
        # cost, which both engines share and which bounds any ratio near 1x.
        ("loop_traced_monitored", loop_with_trace_hits(5000, 100), monitored),
    ]

    rows = []
    for name, program, run in workloads:
        reference, codegen = interleaved(
            [lambda: run(program, "reference"), lambda: run(program, "codegen")],
            ENGINE_REPEATS,
        )
        t_ref, t_gen = min(reference), min(codegen)
        rows.append(
            {
                "workload": name,
                "monitored": run is monitored,
                "reference_s": t_ref,
                "codegen_s": t_gen,
                "codegen_speedup_vs_reference": t_ref / t_gen,
                "reference_spread": sample_spread(reference),
                "codegen_spread": sample_spread(codegen),
            }
        )
    return rows


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
    off, on = interleaved([lambda: run(None), lambda: run(RunMetrics())], repeats)
    t_off, t_on = min(off), min(on)
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
    runs = [
        lambda stack=stack: run_monitored(
            strict, program, stack, config=config, cache=cache
        )
        for stack in stacks.values()
    ]
    for run in runs:  # compile each artifact once
        run()
    times = dict(zip(stacks, interleaved(runs, repeats)))
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
    rows = measure_engines(quick=quick)
    by_name = {row["workload"]: row for row in rows}
    engines_payload = {
        "quick": quick,
        "repeats": ENGINE_REPEATS,
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
    parser = bench_arguments(
        "paper-style benchmark report (Section 9.1 / Figure 11 / T-ENG)"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="run only the engine comparison and write BENCH_report.json",
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
