"""T-ENG: the codegen engine against the reference interpreter.

The codegen engine (:mod:`repro.partial_eval.codegen`) specializes the
standard (and derived monitoring) semantics with respect to the program
and emits the monitored program as native Python source.  These rows
measure both engines end-to-end through the public API — compilation
cost included — on the Section 9.1 workloads, plus non-fixture guards
that codegen really is faster than the oracle (the same checks CI runs
via ``benchmarks/report.py --json``): ≥9x on unmonitored fib and ≥6x on
the traced Figure 11 loop.
"""

import time

import pytest

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import TracerMonitor
from repro.runtime import RunConfig

from benchmarks.reporting import noise_reasons, sample_spread
from benchmarks.workloads import loop_with_trace_hits, plain_fib, traced_fib

ENGINES = ["reference", "codegen"]

FIB = plain_fib(13)
LOOP = loop_with_trace_hits(1000, 0)
TRACED = traced_fib(12)


@pytest.mark.parametrize("engine", ENGINES)
def test_fib_unmonitored(benchmark, engine):
    result = benchmark(lambda: strict.evaluate(FIB, engine=engine))
    assert result == 233


@pytest.mark.parametrize("engine", ENGINES)
def test_loop_unmonitored(benchmark, engine):
    result = benchmark(lambda: strict.evaluate(LOOP, engine=engine))
    assert result == 1000


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_fib_monitored(benchmark, engine):
    tracer = TracerMonitor()
    run = benchmark(
        lambda: run_monitored(strict, TRACED, tracer, config=RunConfig(engine=engine))
    )
    assert run.answer == 144


#: The codegen tier's headline gates over the reference interpreter.  They
#: carry forward the old two-step chain: codegen >= 3x the retired staged
#: closure engine, which was held to >= 3x reference unmonitored and >= 2x
#: monitored.  Measured headroom is far larger (21-41x on fib 14, 20-32x on
#: the traced loop).
CODEGEN_SPEEDUP_TARGETS = {"unmonitored": 9.0, "monitored": 6.0}


def _fail_or_demote(message, labeled_samples):
    """Fail a missed timing gate — or demote it to a loud skip on a noisy box.

    ``labeled_samples`` pairs each side's label with its timing samples;
    see :func:`benchmarks.reporting.noise_reasons` for the triggers.
    """
    reasons = noise_reasons(
        [(label, sample_spread(samples)) for label, samples in labeled_samples]
    )
    if reasons:
        notice = (
            f"PERF GATE DEMOTED TO INFORMATIONAL: {message} "
            f"[environment unfit for a hard gate: {'; '.join(reasons)}]"
        )
        print(notice)
        pytest.skip(notice)
    pytest.fail(message)


def _gate_codegen_speedup(label, target, reference_samples, codegen_samples):
    """Enforce a speedup gate (demoted on a noisy box)."""
    t_ref, t_gen = min(reference_samples), min(codegen_samples)
    if t_gen * target <= t_ref:
        return
    _fail_or_demote(
        f"codegen below {target:g}x over reference on {label}: "
        f"reference {t_ref * 1e3:.2f} ms vs codegen {t_gen * 1e3:.2f} ms "
        f"({t_ref / t_gen:.2f}x)",
        [("reference", reference_samples), ("codegen", codegen_samples)],
    )


def test_codegen_is_9x_faster_than_reference_unmonitored():
    """The codegen tier's gate on a plain (unmonitored) workload.

    Informational (loud skip) on a single-core or heavily-loaded box —
    see :func:`benchmarks.reporting.noise_reasons`.
    """
    program = plain_fib(14)
    reference_samples, codegen_samples = _paired_samples(
        lambda: strict.evaluate(program, engine="reference"),
        lambda: strict.evaluate(program, engine="codegen"),
    )
    _gate_codegen_speedup(
        "fib",
        CODEGEN_SPEEDUP_TARGETS["unmonitored"],
        reference_samples,
        codegen_samples,
    )


def test_codegen_is_6x_faster_than_reference_monitored():
    """The same gate with a live monitor stack attached.

    The workload is Figure 11's loop — fixed program work with a slice of
    traced iterations — so the measurement reflects *engine* overhead on
    a monitored run.  A workload dominated by hook activations (like the
    fully-traced fib rows above) measures the monitor's own cost, which
    is shared by both engines and bounds any ratio near 1x.
    """
    program = loop_with_trace_hits(5000, 100)
    reference_samples, codegen_samples = _paired_samples(
        lambda: run_monitored(
            strict, program, TracerMonitor(), config=RunConfig(engine="reference")
        ),
        lambda: run_monitored(
            strict, program, TracerMonitor(), config=RunConfig(engine="codegen")
        ),
    )
    _gate_codegen_speedup(
        "the traced loop",
        CODEGEN_SPEEDUP_TARGETS["monitored"],
        reference_samples,
        codegen_samples,
    )


# -- fault-isolation overhead gate (T-FAULT) -------------------------------------

#: The smoke-gate budget: quarantine may add at most 5% over propagate on
#: the fast paths, plus a small absolute epsilon for timer granularity.
QUARANTINE_BUDGET = 1.05
TIMER_EPSILON = 1e-3  # seconds


def _paired_samples(thunk_a, thunk_b, repeats=9):
    """Interleaved timing samples for a fair A/B comparison.

    Alternating the two thunks on every round exposes both to the same
    machine-load drift.  Returns the full sample lists so callers can
    take the minimum (the least noisy point estimate of a deterministic
    workload's cost) *and* judge the spread.
    """
    times_a, times_b = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        thunk_a()
        times_a.append(time.perf_counter() - start)
        start = time.perf_counter()
        thunk_b()
        times_b.append(time.perf_counter() - start)
    return times_a, times_b


def _paired_min(thunk_a, thunk_b, repeats=9):
    """Interleaved min-of-N timing (see :func:`_paired_samples`)."""
    times_a, times_b = _paired_samples(thunk_a, thunk_b, repeats)
    return min(times_a), min(times_b)


def _assert_within_budget(label, t_propagate, t_quarantine):
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
    t_p, t_q = _paired_min(
        lambda: run_monitored(strict, program, [], config=RunConfig(engine=engine)),
        lambda: run_monitored(
            strict,
            program,
            [],
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        ),
    )
    _assert_within_budget(f"unmonitored fast path ({engine})", t_p, t_q)


@pytest.mark.parametrize("engine", ENGINES)
def test_quarantine_overhead_single_monitor_fast_path(engine):
    """A healthy single monitor pays <5% for running isolated.

    This is the single-slot state-vector fast path.  Every policy runs
    the same hook path on both engines, so a healthy run under
    quarantine does no work per activation that propagate skips.
    """
    tracer_runs = {
        "propagate": lambda: run_monitored(
            strict, TRACED, TracerMonitor(), config=RunConfig(engine=engine)
        ),
        "quarantine": lambda: run_monitored(
            strict,
            TRACED,
            TracerMonitor(),
            config=RunConfig(engine=engine, fault_policy="quarantine"),
        ),
    }
    t_p, t_q = _paired_min(tracer_runs["propagate"], tracer_runs["quarantine"])
    _assert_within_budget(f"single-monitor fast path ({engine})", t_p, t_q)


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
