"""One site table: codegen, the recorder and the trace fold agree on sites.

Every hook path except the reference derivation indexes one
:class:`~repro.monitoring.sites.SiteTable` per (program, stack), numbered
by the pre-order walk of :func:`~repro.tracing.schema.build_site_table`.
These tests pin the two things that buys:

* claim order — a site two monitors recognize belongs to the outermost,
  as the inline cascade resolves it, so a fold over a recording agrees
  with the inline run even when disjointness is not enforced; when
  quarantine disables the outermost, the site falls through to the next
  claimant while an open activation's ``post`` stays with the claimant
  whose ``pre`` ran, on every path;
* one numbering — a residual program's ``_pre(N)``, a recorded event's
  site ``N`` and the flow verdict's site ``N`` name one annotated node,
  also where two annotated nodes share one body object (the simplifier
  substitutes one ``Const``/``Var`` object at every occurrence).
"""

import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_flow
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.faults import FlakyMonitor
from repro.monitoring.sites import SiteTable
from repro.monitoring.spec import MonitorSpec
from repro.monitors import LabelCounterMonitor
from repro.partial_eval.codegen import generate_program
from repro.partial_eval.postprocess import simplify
from repro.replay import ReplaySession
from repro.runtime import RunConfig
from repro.syntax.annotations import Label, render_annotation
from repro.syntax.parser import parse
from repro.toolbox.registry import make_tool
from repro.tracing import analyze_trace, read_trace, record
from repro.tracing.schema import build_site_table

from tests.generators import closed_program

#: ``{a}`` is claimed twice: by the outer annotation and the inner one,
#: and by both monitors of the stack below.
DOUBLY_CLAIMED = "{a}: (1 + {a}: 2)"


def _inner_outer():
    return [LabelCounterMonitor(key="inner"), LabelCounterMonitor(key="outer")]


#: Five activations of one ``{a}`` site, which both monitors of the
#: stacks below claim; the outer one faults on its second ``pre``.
QUARANTINED_OUTER = "letrec f = lambda n. {a}: if n = 0 then 0 else f (n - 1) in f 4"


class PostCounter(MonitorSpec):
    """Counts ``{a}`` activations in ``post``, where the claimant matters."""

    def __init__(self, key):
        self.key = key

    def recognize(self, annotation):
        return annotation if annotation == Label("a") else None

    def initial_state(self):
        return 0

    def post(self, annotation, term, ctx, result, state):
        return state + 1


def _counting_in_pre():
    return [
        LabelCounterMonitor(key="inner"),
        FlakyMonitor(LabelCounterMonitor(key="outer"), fail_on=2),
    ]


def _counting_in_post():
    return [PostCounter("inner"), FlakyMonitor(PostCounter("outer"), fail_on=2)]


class TestClaimOrder:
    """With disjointness off, the outermost claimant wins on every path."""

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    def test_inline_engines_give_the_site_to_the_outermost(self, engine):
        result = run_monitored(
            strict,
            parse(DOUBLY_CLAIMED),
            _inner_outer(),
            config=RunConfig(engine=engine, check_disjointness=False),
        )
        assert result.reports() == {"inner": {}, "outer": {"a": 2}}

    def test_table_resolves_outermost_first(self):
        table = SiteTable(parse(DOUBLY_CLAIMED), _inner_outer())
        assert [claim.key for claim in table.claims] == ["outer", "outer"]

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    def test_fold_and_replay_match_inline(self, engine, tmp_path):
        program = parse(DOUBLY_CLAIMED)
        inline = run_monitored(
            strict,
            program,
            _inner_outer(),
            config=RunConfig(engine=engine, check_disjointness=False),
        )
        path = str(tmp_path / "t.jsonl")
        record(strict, program, path, config=RunConfig(engine=engine))
        folded = analyze_trace(path, _inner_outer(), check_disjointness=False)
        replayed = ReplaySession(
            path, _inner_outer(), metrics=None, check_disjointness=False
        ).analysis()
        assert folded.reports() == inline.reports()
        assert replayed.reports() == inline.reports()

    @pytest.mark.parametrize(
        "make,expected",
        [
            (_counting_in_pre, {"inner": {"a": 4}, "outer": {"a": 1}}),
            # The first activation's post belongs to the quarantined outer
            # monitor: a post following the site's current claimant would
            # count 5 for inner.
            (_counting_in_post, {"inner": 4, "outer": 0}),
        ],
    )
    def test_quarantine_hands_the_site_to_the_next_claimant(
        self, make, expected, tmp_path
    ):
        program = parse(QUARANTINED_OUTER)

        def inline(engine):
            return run_monitored(
                strict,
                program,
                make(),
                config=RunConfig(
                    engine=engine, fault_policy="quarantine", check_disjointness=False
                ),
            )

        reference = inline("reference")
        reports = reference.reports()
        assert reports.pop("faults") and reports == expected
        assert [(f.monitor_key, f.phase) for f in reference.faults] == [
            ("outer", "pre")
        ]

        path = str(tmp_path / "t.jsonl")
        record(strict, program, path)
        options = dict(fault_policy="quarantine", check_disjointness=False)
        replay = dict(options, checkpoint_interval=1, use_sidecar=True)
        session = ReplaySession(path, make(), **replay)
        pres = sum(event.phase == "pre" for event in session.trace.events)
        session.seek(pres)  # every pre applied: the fault, all posts open
        assert session.disabled == {"outer"}
        session.seek(1)  # back across the fault
        assert session.disabled == frozenset() and not session.faults
        assert session.save_checkpoints()
        reloaded = ReplaySession(path, make(), **replay)
        assert reloaded.checkpoints.positions == tuple(range(1, pres + 1))

        for result in (
            inline("codegen"),
            analyze_trace(path, make(), **options),
            session.analysis(),
            reloaded.analysis(),  # folds on from the reloaded checkpoint
        ):
            assert result.reports() == reference.reports()
            assert result.faults == reference.faults
        assert reloaded.replayed_events == len(reloaded) - pres


#: After simplification ``{a}`` and ``{b}`` annotate one ``Const`` (the
#: first) or one ``Var`` object (the second), with the counts given.
SHARED_BODY = [
    ("let x = 5 in ({a}: x) + ({b}: x)", {"a": 1, "b": 1}),
    (
        "letrec f = lambda y. let x = y in ({a}: x) + ({b}: x) in f 3 + f 4",
        {"a": 2, "b": 2},
    ),
]


@pytest.mark.parametrize("source,counts", SHARED_BODY)
class TestSharedBody:
    """Two annotated nodes over one body object stay two sites."""

    def test_simplifier_shares_the_body(self, source, counts):
        sites = build_site_table(simplify(parse(source)))
        assert len(sites) == 2 and sites[0].body is sites[1].body

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    @pytest.mark.parametrize("optimize", ["none", "flow"])
    def test_engines_and_fold_count_each_site(
        self, source, counts, engine, optimize, tmp_path
    ):
        program = simplify(parse(source))
        config = RunConfig(engine=engine, optimize=optimize)
        inline = run_monitored(strict, program, [LabelCounterMonitor()], config=config)
        assert inline.reports() == {"count": counts}
        path = str(tmp_path / "t.jsonl")
        record(strict, program, path, config=config)
        folded = analyze_trace(path, [LabelCounterMonitor()], program=program)
        assert folded.reports() == inline.reports()

    def test_residual_names_both_sites(self, source, counts):
        generated = generate_program(
            simplify(parse(source)), [LabelCounterMonitor()]
        )
        assert _emitted(generated.source) == {0, 1}


#: Toolbox stacks whose claims are disjoint over the generated programs.
STACKS = [
    ("count",),
    ("trace",),
    ("profile",),
    ("count", "trace"),
    ("coverage",),
]

_PRE = re.compile(r"_pre\((\d+), ")


def _emitted(source: str) -> set:
    return {int(site) for site in _PRE.findall(source)}


@settings(max_examples=60, deadline=None)
@given(closed_program(), st.sampled_from(STACKS), st.booleans())
def test_residual_pre_ids_are_claimed_preorder_sites(program, names, flow):
    monitors = [make_tool(name) for name in names]
    verdict = analyze_flow(program, monitors)
    generated = generate_program(
        program, monitors, flow=verdict if flow else None
    )
    emitted = _emitted(generated.source)
    sites = build_site_table(program)
    for site_id in emitted:
        annotation = sites[site_id].annotation
        assert any(m.recognize(annotation) is not None for m in monitors)
        assert generated.table.claims[site_id] is not None
    assert generated.site_count == len(emitted)
    if flow:
        assert not emitted & verdict.erasable_sites


@settings(max_examples=40, deadline=None)
@given(
    closed_program(),
    st.sampled_from(STACKS),
    st.sampled_from(["reference", "codegen"]),
)
def test_trace_flow_and_residual_share_site_ids(program, names, engine):
    monitors = [make_tool(name) for name in names]
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "t.jsonl")
        record(
            strict, program, path, monitors=monitors,
            config=RunConfig(engine=engine),
        )
        trace = read_trace(path)
    sites = build_site_table(program)
    flow_sites = analyze_flow(program, monitors).sites
    recorded = trace.header["site_annotations"]
    emitted = _emitted(generate_program(program, monitors).source)
    for event in trace.events:
        rendered = render_annotation(sites[event.site].annotation)
        assert recorded[event.site] == rendered
        assert flow_sites[event.site].rendered == rendered
        assert flow_sites[event.site].reachable
        assert event.site in emitted

