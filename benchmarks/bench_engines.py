"""T-ENG: the codegen engine against the reference interpreter.

The codegen engine (:mod:`repro.partial_eval.codegen`) specializes the
standard (and derived monitoring) semantics with respect to the program
and emits the monitored program as native Python source.  These rows
measure both engines end-to-end through the public API — compilation
cost included — on the Section 9.1 workloads.  The codegen speedup gate
over the reference (>= 9x on fib, >= 6x on the traced Figure 11 loop)
is measured and enforced once, by ``benchmarks/report.py --json``.

Two runtime overhead gates live here: ``fault_policy="quarantine"``
within 5% of ``propagate`` on both engines' fast paths, and a
metrics-on codegen run within 4x of a metrics-off one (measured by
``benchmarks/report.py:measure_metrics_price``).
"""

import pytest

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import TracerMonitor
from repro.runtime import RunConfig

from benchmarks.reporting import TIMER_EPSILON, interleaved
from benchmarks.workloads import loop_with_trace_hits, plain_fib, traced_fib

ENGINES = ["reference", "codegen"]

FIB = plain_fib(13)
LOOP = loop_with_trace_hits(1000, 0)
TRACED = traced_fib(12)


@pytest.mark.parametrize("engine", ENGINES)
def test_fib_unmonitored(benchmark, engine):
    config = RunConfig(engine=engine)
    result = benchmark(lambda: strict.evaluate(FIB, config=config))
    assert result == 233


@pytest.mark.parametrize("engine", ENGINES)
def test_loop_unmonitored(benchmark, engine):
    config = RunConfig(engine=engine)
    result = benchmark(lambda: strict.evaluate(LOOP, config=config))
    assert result == 1000


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_fib_monitored(benchmark, engine):
    tracer = TracerMonitor()
    run = benchmark(
        lambda: run_monitored(strict, TRACED, tracer, config=RunConfig(engine=engine))
    )
    assert run.answer == 144


# -- fault-isolation overhead gate (T-FAULT) -------------------------------------

#: The smoke-gate budget: quarantine may add at most 5% over propagate on
#: the fast paths, plus ``TIMER_EPSILON`` for timer granularity.
QUARANTINE_BUDGET = 1.05


def _assert_within_budget(label, propagate, quarantine):
    """Gate the interleaved min-of-9 of ``quarantine`` against ``propagate``."""
    t_propagate, t_quarantine = map(min, interleaved([propagate, quarantine], 9))
    assert t_quarantine <= t_propagate * QUARANTINE_BUDGET + TIMER_EPSILON, (
        f"quarantine overhead above 5% on {label}: "
        f"propagate {t_propagate * 1e3:.2f} ms vs "
        f"quarantine {t_quarantine * 1e3:.2f} ms "
        f"({(t_quarantine / t_propagate - 1) * 100:.1f}%)"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_quarantine_overhead_unmonitored_fast_path(engine):
    """fault_policy='quarantine' with an empty monitor stack is free.

    No monitors means no hook to isolate and nothing to disable — the
    policy must not tax the plain evaluation fast path.
    """
    program = loop_with_trace_hits(1000, 0)
    _assert_within_budget(
        f"unmonitored fast path ({engine})",
        lambda: run_monitored(strict, program, [], config=RunConfig(engine=engine)),
        lambda: run_monitored(
            strict,
            program,
            [],
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        ),
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_quarantine_overhead_single_monitor_fast_path(engine):
    """A healthy single monitor pays <5% for running isolated.

    This is the single-slot state-vector fast path.  Every policy runs
    the same hook path on both engines, so a healthy run under
    quarantine does no work per activation that propagate skips.
    """
    _assert_within_budget(
        f"single-monitor fast path ({engine})",
        lambda: run_monitored(
            strict, TRACED, TracerMonitor(), config=RunConfig(engine=engine)
        ),
        lambda: run_monitored(
            strict,
            TRACED,
            TracerMonitor(),
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        ),
    )


# -- metrics-on price gate (T-OBS) -----------------------------------------------


def test_metrics_on_codegen_within_4x_of_metrics_off():
    """A metrics-on codegen run executes the cached collapsed artifact.

    Only its tallied variant differs: one tally call per straight-line
    region, plus the telemetry-wrapped hooks.  The measurement is a ratio
    of interleaved minima in one process, so it holds on a 1-core box.
    """
    from benchmarks.report import METRICS_PRICE_BOUND, measure_metrics_price

    row = measure_metrics_price()
    assert row["ratio"] <= METRICS_PRICE_BOUND, (
        f"metrics-on codegen costs {row['ratio']:.2f}x metrics-off "
        f"(gate <= {METRICS_PRICE_BOUND:.0f}x): "
        f"{row['metrics_off_s'] * 1e3:.2f} ms off vs "
        f"{row['metrics_on_s'] * 1e3:.2f} ms on"
    )
