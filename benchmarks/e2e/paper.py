"""The paper's Section 9.1 numbers, re-measured as per-layer rows.

* ``paper.tracer_overhead_ratio.reference`` — fib under the tracer on
  the reference interpreter over plain fib on the standard interpreter
  (the paper reports the tracer ~11% slower, a ratio of ~1.11);
* ``paper.instrumented_speedup.codegen`` — the monitored reference
  interpreter over the instrumented program codegen emits for the same
  (program, tracer) pair (the paper: ~85% faster, a ratio of ~6.7);
* ``paper.fig11_slope_us_per_hit.{reference,codegen}`` with
  ``paper.fig11_r2.*`` — Figure 11: a loop of fixed work with 0, 25, 50,
  75 and 100% of its iterations through a traced helper; the
  least-squares cost per traced hit and how linear it is.

Each time is the fastest of several interleaved repeats.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from benchmarks.e2e.corpus import FIB_HEADER, FIG11_LOOP

PLAIN_FIB = "letrec fib = lambda n. if n < 2 then n else fib (n - 1) + fib (n - 2) in fib %d"

FIB_N = 13
LOOP_TOTAL = 1000
HIT_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _fastest(thunks: Sequence[Callable[[], object]], repeats: int) -> List[float]:
    """The fastest time of each thunk over ``repeats`` interleaved rounds."""
    best = [float("inf")] * len(thunks)
    for _ in range(repeats):
        for i, thunk in enumerate(thunks):
            start = perf_counter()
            thunk()
            best[i] = min(best[i], perf_counter() - start)
    return best


def _fit(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope and coefficient of determination."""
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    total = sum((y - mean_y) ** 2 for _, y in points)
    residual = sum((y - intercept - slope * x) ** 2 for x, y in points)
    return slope, (1.0 - residual / total) if total else 1.0


def measure(repeats: int) -> Dict[str, float]:
    from repro import RunConfig, generate_program, parse, run_monitored, strict
    from repro.monitors import TracerMonitor

    tracer = TracerMonitor()
    reference = RunConfig(engine="reference")
    plain = parse(PLAIN_FIB % FIB_N)
    traced = parse(FIB_HEADER % FIB_N)
    instrumented = generate_program(traced, [tracer])
    t_standard, t_monitored, t_instrumented = _fastest(
        [
            lambda: strict.evaluate(plain),
            lambda: run_monitored(strict, traced, tracer, config=reference),
            lambda: instrumented.run(),
        ],
        repeats,
    )
    rows = {
        "paper.tracer_overhead_ratio.reference": t_monitored / t_standard,
        "paper.instrumented_speedup.codegen": t_monitored / t_instrumented,
    }

    hits = [int(share * LOOP_TOTAL) for share in HIT_SHARES]
    loops = [parse(FIG11_LOOP % (h, LOOP_TOTAL)) for h in hits]
    compiled = [generate_program(loop, [tracer]) for loop in loops]
    times = _fastest(
        [
            (lambda loop=loop: run_monitored(strict, loop, tracer, config=reference))
            for loop in loops
        ]
        + [program.run for program in compiled],
        repeats,
    )
    for engine, engine_times in (
        ("reference", times[: len(loops)]),
        ("codegen", times[len(loops) :]),
    ):
        slope, r2 = _fit([(h, t) for h, t in zip(hits, engine_times)])
        rows[f"paper.fig11_slope_us_per_hit.{engine}"] = slope * 1e6
        rows[f"paper.fig11_r2.{engine}"] = r2
    return rows
