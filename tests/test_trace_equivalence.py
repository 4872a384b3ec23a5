"""Differential equivalence: post-hoc trace folding vs inline monitoring.

Section 7's soundness theorem says monitors cannot change program
behavior; its operational corollary (the premise of the trace backend)
is that a monitor's meaning is a *fold over the execution trace*.  These
property tests check the corollary end to end: record a generated
program once, fold monitor stacks over the trace, and demand the same
reports, metrics counters and fault records as running the same stack
inline — on every engine and under every fault policy.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings

from repro.languages.imperative import imperative
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.faults import FlakyMonitor, InjectedFault
from repro.monitors import (
    CollectingMonitor,
    LabelCounterMonitor,
    ProfilerMonitor,
    TracerMonitor,
)
from repro.observability.metrics import RunMetrics
from repro.runtime.config import RunConfig
from repro.tracing import analyze_many, analyze_trace, record
from repro.tracing.schema import canonical_json, encode_value

from tests.generators import closed_program, recursive_program
from tests.test_imp_properties import closed_imp_program

ENGINES = ("reference", "codegen")


def answers_agree(inline_answer, fold_answer) -> bool:
    """Observational equality through the trace value codec.

    The fold's answer round-trips through the trace encoding (functions
    come back as display-equal opaques, stores as plain bindings), so
    comparing both sides' *encodings* is exactly the equality the codec
    can promise.
    """
    return canonical_json(encode_value(inline_answer)) == canonical_json(
        encode_value(fold_answer)
    )


def record_to(tmpdir, language, program, **kwargs):
    path = os.path.join(tmpdir, "trace.jsonl")
    record(language, program, path, **kwargs)
    return path


def assert_fold_matches(inline, fold):
    assert answers_agree(inline.answer, fold.answer)
    assert fold.reports() == inline.reports()
    assert fold.faults == inline.faults
    if inline.metrics is not None:
        assert fold.metrics == inline.metrics


# -- L_lambda, every engine ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(closed_program())
def test_fold_matches_inline_on_every_engine(program):
    """counter & tracer: fold ≡ inline for reference and codegen."""
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ENGINES:
            counter, tracer = LabelCounterMonitor(), TracerMonitor()
            inline = run_monitored(
                strict, program, [counter, tracer], config=RunConfig(engine=engine)
            )
            path = record_to(
                tmp,
                strict,
                program,
                monitors=[counter, tracer],
                config=RunConfig(engine=engine),
            )
            fold = analyze_trace(path, [counter, tracer])
            assert_fold_matches(inline, fold)


@settings(max_examples=30, deadline=None)
@given(recursive_program())
def test_fold_metrics_match_inline(program):
    """Full RunMetrics equality (counters; wall times excluded by design)."""
    with tempfile.TemporaryDirectory() as tmp:
        profiler = ProfilerMonitor()
        inline = run_monitored(
            strict, program, [profiler], config=RunConfig(metrics=RunMetrics())
        )
        path = record_to(
            tmp,
            strict,
            program,
            monitors=[profiler],
            config=RunConfig(metrics=RunMetrics()),
        )
        fold = analyze_trace(path, [profiler], metrics=True)
        assert_fold_matches(inline, fold)
        assert fold.metrics.steps == inline.metrics.steps
        assert fold.metrics.applications == inline.metrics.applications


# -- L_imp (reference engine; codegen is strict-only) ---------------------------


@settings(max_examples=40, deadline=None)
@given(closed_imp_program())
def test_imp_fold_matches_inline(program):
    with tempfile.TemporaryDirectory() as tmp:
        counter = LabelCounterMonitor()
        inline = run_monitored(
            imperative, program, [counter], config=RunConfig(max_steps=1_000_000)
        )
        path = record_to(
            tmp,
            imperative,
            program,
            monitors=[counter],
            config=RunConfig(max_steps=1_000_000),
        )
        fold = analyze_trace(path, [counter])
        assert_fold_matches(inline, fold)


# -- fault policies --------------------------------------------------------------


@pytest.mark.parametrize("policy", ["quarantine", "log"])
@pytest.mark.parametrize("phase", ["pre", "post", "both"])
@settings(max_examples=25, deadline=None)
@given(recursive_program())
def test_fault_policies_agree(policy, phase, program):
    """A flaky monitor faults identically inline and in the fold."""
    with tempfile.TemporaryDirectory() as tmp:

        def flaky():
            return FlakyMonitor(
                LabelCounterMonitor(), fail_on=2, phase=phase
            )

        inline = run_monitored(
            strict, program, [flaky()], config=RunConfig(fault_policy=policy)
        )
        path = record_to(tmp, strict, program, monitors=[flaky()])
        fold = analyze_trace(path, [flaky()], fault_policy=policy)
        assert_fold_matches(inline, fold)


@settings(max_examples=15, deadline=None)
@given(recursive_program())
def test_propagate_raises_identically(program):
    """Under ``propagate``, fold and inline raise the same fault (or none)."""
    with tempfile.TemporaryDirectory() as tmp:

        def flaky():
            return FlakyMonitor(LabelCounterMonitor(), fail_on=1, phase="pre")

        inline_error = fold_error = None
        try:
            run_monitored(
                strict, program, [flaky()], config=RunConfig(fault_policy="propagate")
            )
        except InjectedFault as exc:
            inline_error = str(exc)
        path = record_to(tmp, strict, program, monitors=[flaky()])
        try:
            analyze_trace(path, [flaky()], fault_policy="propagate")
        except InjectedFault as exc:
            fold_error = str(exc)
        assert inline_error == fold_error


# -- engine-independent traces ---------------------------------------------------


def event_lines(path):
    """The trace's event lines (header carries the engine name; skip it)."""
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle if '"t":"header"' not in line]


@settings(max_examples=25, deadline=None)
@given(closed_program())
def test_trace_is_engine_independent(program):
    """Both engines record byte-identical event streams.

    This is engine parity made concrete: the observable hook sequence —
    not just the final states — is the same across implementations.
    """
    with tempfile.TemporaryDirectory() as tmp:
        monitors = [LabelCounterMonitor(), TracerMonitor()]
        lines = {}
        for engine in ENGINES:
            path = os.path.join(tmp, f"{engine}.jsonl")
            record(
                strict,
                program,
                path,
                monitors=monitors,
                config=RunConfig(engine=engine),
            )
            lines[engine] = event_lines(path)
        assert lines["codegen"] == lines["reference"]


def test_trace_bytes_identical_across_engines(tmp_path):
    program = (
        "letrec fac = lambda x. {fac}: if x = 0 then 1 "
        "else x * fac (x - 1) in fac 6"
    )
    from repro.syntax.parser import parse

    expr = parse(program)
    lines = {}
    for engine in ENGINES:
        path = str(tmp_path / f"{engine}.jsonl")
        record(
            strict,
            expr,
            path,
            monitors=[TracerMonitor(), LabelCounterMonitor()],
            config=RunConfig(engine=engine),
        )
        lines[engine] = event_lines(path)
    assert lines["codegen"] == lines["reference"]


# -- one trace, many stacks ------------------------------------------------------


def test_analyze_many_matches_individual_folds(tmp_path):
    program = (
        "letrec fib = lambda n. {fib}: if n <= 1 then n "
        "else fib (n - 1) + fib (n - 2) in fib 10"
    )
    from repro.syntax.parser import parse

    expr = parse(program)
    stacks = [
        [TracerMonitor()],
        [ProfilerMonitor()],
        [LabelCounterMonitor()],
    ]
    path = str(tmp_path / "trace.jsonl")
    record(
        strict,
        expr,
        path,
        monitors=[spec for stack in stacks for spec in stack],
        config=RunConfig(metrics=RunMetrics()),
    )
    together = analyze_many(path, stacks, metrics=True)
    alone = [analyze_trace(path, stack, metrics=True) for stack in stacks]
    for many, one, stack in zip(together, alone, stacks):
        assert many.reports() == one.reports()
        assert many.metrics == one.metrics
        inline = run_monitored(
            strict, expr, stack, config=RunConfig(metrics=RunMetrics())
        )
        assert_fold_matches(inline, many)
