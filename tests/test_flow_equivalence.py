"""The flow-optimization soundness property, CI-gated.

``RunConfig(optimize="flow")`` lets the codegen engine erase monitoring
hooks at statically-unreachable sites and drop REP502-dead monitors from
the per-site dispatch table.  The license for that is an equivalence
theorem: on every program × monitor stack × fault policy, the optimized
run is observably identical to the unoptimized one — answers, monitor
reports, ``RunMetrics`` counters, and fault records.  This suite states
the theorem over random ``L_lambda`` programs.

It also checks the erasure is *proof-driven*: a monitor is dropped only
when no reachable site can trigger it, witnessed by the unoptimized run
never moving that monitor off its initial state; and on random ``L_imp``
programs, no site the analysis calls erasable is ever activated on a
reference-engine run.
"""

import dataclasses
import itertools
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_flow
from repro.analysis.flow import FlowAnalysis
from repro.languages import imperative, strict
from repro.languages.imp_syntax import parse_imp
from repro.languages.imperative import AnnotatedCmd, Cmd
from repro.monitoring.derive import run_monitored
from repro.monitoring.faults import FlakyMonitor
from repro.monitors import LabelCounterMonitor, ProfilerMonitor, TracerMonitor
from repro.observability import RunMetrics
from repro.runtime import RunConfig
from repro.syntax.annotations import Label

from tests.generators import closed_program
from tests.test_imp_properties import closed_imp_program

#: Monitor-stack builders (fresh instances per run: tracer state is
#: mutable-adjacent and flaky monitors carry call counters).
STACKS = {
    "count": lambda: [LabelCounterMonitor()],
    "trace": lambda: [TracerMonitor()],
    "count+trace": lambda: [LabelCounterMonitor(), TracerMonitor()],
}


def _run(program, make_stack, **config):
    return run_monitored(
        strict, program, make_stack(), config=RunConfig(**config)
    )


@settings(max_examples=60, deadline=None)
@given(closed_program(), st.sampled_from(sorted(STACKS)))
def test_flow_codegen_equals_unoptimized_codegen(program, stack_name):
    make_stack = STACKS[stack_name]
    plain = _run(program, make_stack, engine="codegen")
    flowed = _run(program, make_stack, engine="codegen", optimize="flow")
    assert flowed.answer == plain.answer
    assert flowed.reports() == plain.reports()


@settings(max_examples=40, deadline=None)
@given(closed_program(), st.sampled_from(sorted(STACKS)))
def test_flow_codegen_equals_reference(program, stack_name):
    make_stack = STACKS[stack_name]
    reference = _run(program, make_stack, engine="reference")
    flowed = _run(program, make_stack, engine="codegen", optimize="flow")
    assert flowed.answer == reference.answer
    assert flowed.reports() == reference.reports()


@settings(max_examples=30, deadline=None)
@given(closed_program())
def test_flow_preserves_run_metrics(program):
    counters = {}
    for optimize in ("none", "flow"):
        result = run_monitored(
            strict,
            program,
            [LabelCounterMonitor()],
            config=RunConfig(
                engine="codegen", optimize=optimize, metrics=RunMetrics()
            ),
        )
        counters[optimize] = (
            result.metrics.steps,
            result.metrics.applications,
        )
    assert counters["none"] == counters["flow"]


@settings(max_examples=40, deadline=None)
@given(
    closed_program(),
    st.sampled_from(["quarantine", "log"]),
    st.integers(1, 4),
)
def test_flow_preserves_fault_records(program, policy, fail_on):
    results = {}
    for optimize in ("none", "flow"):
        results[optimize] = run_monitored(
            strict,
            program,
            [FlakyMonitor(LabelCounterMonitor(), fail_on=fail_on)],
            config=RunConfig(
                engine="codegen", optimize=optimize, fault_policy=policy
            ),
        )
    plain, flowed = results["none"], results["flow"]
    assert flowed.answer == plain.answer
    assert flowed.faults == plain.faults
    assert flowed.quarantined_keys() == plain.quarantined_keys()
    assert flowed.reports() == plain.reports()


@settings(max_examples=40, deadline=None)
@given(closed_program())
def test_dead_monitors_erased_only_when_proven(program):
    # Every monitor the analysis calls dead must be observably inert in
    # the *unoptimized* reference run: erasure never guesses.
    stack = [LabelCounterMonitor(), TracerMonitor()]
    flow = analyze_flow(program, stack)
    if not flow.dead_monitors:
        return
    result = run_monitored(strict, program, [LabelCounterMonitor(), TracerMonitor()])
    for monitor in stack:
        if monitor.key in flow.dead_monitors:
            untouched = monitor.report(monitor.initial_state())
            assert result.reports()[monitor.key] == untouched


def _label_sites(command):
    """Relabel every annotated command ``{s<site id>}``, in pre-order.

    Generated programs reuse labels; unique ones let a label count stand
    for one site's activations.
    """
    site_ids = itertools.count()

    def relabel(node):
        if isinstance(node, AnnotatedCmd):
            return AnnotatedCmd(Label(f"s{next(site_ids)}"), relabel(node.body))
        changes = {
            field.name: relabel(getattr(node, field.name))
            for field in dataclasses.fields(node)
            if isinstance(getattr(node, field.name), Cmd)
        }
        return dataclasses.replace(node, **changes)

    return relabel(command)


def _assert_erasable_sites_inert(program):
    program = _label_sites(program)
    flow = analyze_flow(program, [LabelCounterMonitor()])
    assert [site.rendered for site in flow.sites] == [
        f"s{site.site_id}" for site in flow.sites
    ]
    result = run_monitored(
        imperative,
        program,
        LabelCounterMonitor(),
        config=RunConfig(max_steps=1_000_000),
    )
    counts = result.state_of("count")
    for site_id in flow.erasable_sites:
        assert counts.get(f"s{site_id}", 0) == 0, f"erasable site {site_id} ran"


@settings(max_examples=80, deadline=None)
@given(closed_imp_program())
def test_imp_erasable_sites_never_activated(program):
    _assert_erasable_sites_inert(program)


def test_imp_erasable_check_catches_a_reachable_site(monkeypatch):
    # The property's witness: an analysis that calls every site erasable
    # is caught by the reference run's counts.
    program = parse_imp("k := 0; while false do {p}: k := 9; {q}: k := k + 1")
    _assert_erasable_sites_inert(program)
    monkeypatch.setattr(
        FlowAnalysis,
        "erasable_sites",
        property(lambda flow: frozenset(site.site_id for site in flow.sites)),
    )
    with pytest.raises(AssertionError, match="erasable site 1 ran"):
        _assert_erasable_sites_inert(program)


@settings(max_examples=25, deadline=None)
@given(closed_program())
def test_record_static_filter_folds_identically(program):
    from repro.tracing import analyze_trace, record

    folds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for optimize in ("none", "flow"):
            path = os.path.join(tmp, f"trace-{optimize}.jsonl")
            record(
                strict,
                program,
                path,
                monitors=[LabelCounterMonitor()],
                config=RunConfig(optimize=optimize),
            )
            folds[optimize] = analyze_trace(
                path, [LabelCounterMonitor()], program=program
            )
    assert folds["flow"].answer == folds["none"].answer
    assert folds["flow"].reports() == folds["none"].reports()
