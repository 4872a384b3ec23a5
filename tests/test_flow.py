"""Units for the claim-flow & reachability analysis (``REP5xx``).

Covers the abstract interpreter (``repro.analysis.cfg``), the flow facts
(``repro.analysis.flow``), the diagnostics they surface, the codegen and
record-mode consumers, the ``CompilationCache`` memo — plus the L_imp
coverage for the scope/stack analyzers the flow work rides along with.
"""

import pytest

from repro.analysis import analyze, analyze_flow, flow_diagnostics
from repro.analysis.cfg import reachable_nodes
from repro.analysis.scope import analyze_scope
from repro.analysis.stack import analyze_stack
from repro.languages import imperative, strict
from repro.languages.imp_syntax import parse_imp
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor, ProfilerMonitor, TracerMonitor
from repro.partial_eval.codegen import generate_program
from repro.runtime import CompilationCache, RunConfig
from repro.runtime.cache import cache_key
from repro.syntax.parser import parse

ENGINES = ["reference", "codegen"]

#: {p} guarded by a constantly-false branch: statically dead.
DEAD_BRANCH = "let x = if false then {p}: 1 else 2 in {q}: (x + 1)"

#: A letrec *wrapper* annotation (on the binding, not inside the lambda
#: body): no engine ever fires it — extend_recursive strips it.
LETREC_WRAPPER = "letrec f = {w}: lambda x. {p}: x in f 3"


def _site_ids(flow):
    return {s.site_id: s for s in flow.sites}


class TestReachability:
    def test_straight_line_is_fully_reachable(self):
        program = parse("{p}: (1 + 2)")
        flow = analyze_flow(program, [LabelCounterMonitor()])
        assert flow.erasable_sites == frozenset()
        assert set(flow.reachable_sites) == {0}

    def test_constant_false_branch_is_dead(self):
        flow = analyze_flow(parse(DEAD_BRANCH), [LabelCounterMonitor()])
        sites = _site_ids(flow)
        assert not sites[0].reachable  # {p} in the dead branch
        assert sites[1].reachable  # {q}
        assert flow.erasable_sites == frozenset({0})

    def test_unknown_condition_keeps_both_branches(self):
        program = parse(
            "let f = lambda b. if b then {p}: 1 else {q}: 2 in f true"
        )
        flow = analyze_flow(program, [LabelCounterMonitor()])
        assert flow.erasable_sites == frozenset()

    def test_letrec_wrapper_is_dead_but_body_is_live(self):
        flow = analyze_flow(parse(LETREC_WRAPPER), [LabelCounterMonitor()])
        sites = _site_ids(flow)
        wrappers = [s for s in flow.sites if s.letrec_wrapper]
        assert len(wrappers) == 1 and not wrappers[0].reachable
        live = [s for s in sites.values() if not s.letrec_wrapper]
        assert all(s.reachable for s in live)

    def test_imp_constant_false_loop_body_is_dead(self):
        program = parse_imp(
            "k := 0; while false do begin {p}: k := 1 end; emit k"
        )
        flow = analyze_flow(program, [LabelCounterMonitor()])
        assert flow.erasable_sites == frozenset({0})

    def test_imp_counted_loop_body_is_live(self):
        program = parse_imp(
            "k := 0; while k < 3 do begin {p}: k := k + 1 end; emit k"
        )
        flow = analyze_flow(program, [LabelCounterMonitor()])
        assert flow.erasable_sites == frozenset()

    def test_reachable_nodes_accepts_commands(self):
        program = parse_imp("x := 1; if false then y := 2 else y := 3")
        reached = reachable_nodes(program)
        assert reached  # non-trivial: the pass ran rather than bailing


class TestFlowFacts:
    def test_alphabets_and_claim_flow(self):
        program = parse(
            "letrec f = lambda n. {f(n)}: if n < 1 then {p}: 0 "
            "else f (n - 1) in f 2"
        )
        stack = [LabelCounterMonitor(), TracerMonitor()]
        flow = analyze_flow(program, stack)
        alphabets = flow.alphabets()
        assert alphabets["trace"] == ("{f(n)}",)
        assert alphabets["count"] == ("{p}",)
        assert flow.dead_monitors == ()
        claim = flow.claim_flow()
        assert set(claim.values()) == {("trace",), ("count",)}

    def test_dead_monitor_has_empty_alphabet(self):
        # trace only recognizes the fn-header site, which is unreachable.
        program = parse("if false then {f(f)}: 1 else {p}: 2")
        stack = [LabelCounterMonitor(), TracerMonitor()]
        flow = analyze_flow(program, stack)
        assert flow.alphabets()["trace"] == ()
        assert flow.dead_monitors == ("trace",)

    def test_stats_shape(self):
        flow = analyze_flow(parse(DEAD_BRANCH), [LabelCounterMonitor()])
        stats = flow.stats()
        assert stats == {
            "sites": 2,
            "reachable_sites": 1,
            "erased_sites": 1,
            "dead_monitors": 0,
        }


class TestFlowDiagnostics:
    def test_rep501_and_rep502(self):
        program = parse("if false then {f(f)}: 1 else {p}: 2")
        stack = [LabelCounterMonitor(), TracerMonitor()]
        codes = [d.code for d in flow_diagnostics(analyze_flow(program, stack))]
        assert codes == ["REP501", "REP502"]

    def test_letrec_wrapper_gets_the_wrapper_hint(self):
        flow = analyze_flow(parse(LETREC_WRAPPER), [LabelCounterMonitor()])
        rep501 = [
            d for d in flow_diagnostics(flow) if d.code == "REP501"
        ]
        assert len(rep501) == 1
        assert "letrec" in rep501[0].message

    def test_rep503_is_informational(self):
        program = parse("let g = lambda x. x in {p}: ({g(g)}: (g 1))")
        stack = [LabelCounterMonitor(), TracerMonitor()]
        report = analyze(program, stack, flow=True)
        assert report.codes() == ("REP503",)
        assert report.ok()  # info never gates
        assert len(report.infos) == 1 and not report.warnings
        assert "1 info(s)" in report.summary()
        assert report.to_json()["infos"] == 1

    def test_analyze_without_flow_emits_no_rep5xx(self):
        report = analyze(parse(DEAD_BRANCH), [LabelCounterMonitor()])
        assert not any(c.startswith("REP5") for c in report.codes())

    def test_lint_error_not_gated_by_flow_warnings(self):
        # REP501/REP502 are warnings: lint="error" still admits the run.
        result = run_monitored(
            strict,
            parse(DEAD_BRANCH),
            LabelCounterMonitor(),
            config=RunConfig(lint="error", optimize="flow", engine="codegen"),
        )
        assert result.answer == 3


class TestImpScopeAndStack:
    """Satellite coverage: the scope/stack analyzers on L_imp programs."""

    def test_analyze_scope_is_empty_for_commands(self):
        # Scope analysis is an Expr pass; commands get no findings (the
        # imperative store is dynamically scoped), not a crash.
        assert analyze_scope(parse_imp("x := 1; emit x"), frozenset()) == []

    def test_rep204_on_commands(self):
        program = parse_imp("x := 1; {p}: x := 2")
        stack = [ProfilerMonitor(), LabelCounterMonitor()]
        codes = [d.code for d in analyze_stack(program, stack)]
        assert codes == ["REP204"]

    def test_rep202_and_rep203_on_commands(self):
        program = parse_imp("{unknown: q}: skip; {f(f)}: skip")
        stack = [LabelCounterMonitor()]
        codes = sorted(d.code for d in analyze_stack(program, stack))
        assert codes == ["REP202", "REP203"]

    def test_rep205_duplicate_keys_on_commands(self):
        program = parse_imp("{p}: skip")
        stack = [LabelCounterMonitor(), LabelCounterMonitor()]
        codes = [d.code for d in analyze_stack(program, stack)]
        # duplicate keys, and {p} claimed by both copies
        assert codes == ["REP205", "REP204"]

    def test_full_analyze_on_commands_with_flow(self):
        program = parse_imp(
            "x := 0; if false then begin {p}: x := 1 end "
            "else begin skip end; emit x"
        )
        report = analyze(
            program, [ProfilerMonitor()], language=imperative, flow=True
        )
        assert report.codes() == ("REP501", "REP502")


class TestCodegenErasure:
    def test_erased_site_leaves_dispatch_table(self):
        program = parse(DEAD_BRANCH)
        stack = [LabelCounterMonitor()]
        plain = generate_program(program, stack, check_disjointness=False)
        flow = analyze_flow(program, stack)
        erased = generate_program(
            program, stack, check_disjointness=False, flow=flow
        )
        assert erased.site_count == plain.site_count - 1
        assert {erased.table.claims[i].view.render() for i in erased.sites} == {"q"}

    def test_erasure_preserves_answer_and_states(self):
        program = parse(DEAD_BRANCH)
        stack = [LabelCounterMonitor()]
        flow = analyze_flow(program, stack)
        erased = generate_program(
            program, stack, check_disjointness=False, flow=flow
        )
        result = run_monitored(strict, program, [LabelCounterMonitor()])
        answer, states = erased.run()
        assert answer == result.answer
        assert states.get("count") == result.state_of("count")

    def test_dead_monitor_dropped_but_still_reported(self):
        program = parse("if false then {f(f)}: 1 else {p}: 2")
        stack = [LabelCounterMonitor(), TracerMonitor()]
        flow = analyze_flow(program, stack)
        erased = generate_program(
            program, stack, check_disjointness=False, flow=flow
        )
        assert all(erased.table.claims[i].key != "trace" for i in erased.sites)
        # The state vector keeps the full stack: reports stay complete.
        _, states = erased.run()
        assert states.get("trace") is not None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_letrec_wrapper_never_fires_in_any_engine(self, engine):
        # The static claim REP501 makes about wrapper annotations,
        # checked dynamically: no engine ever counts {w}.
        result = run_monitored(
            strict,
            parse(LETREC_WRAPPER),
            LabelCounterMonitor(),
            config=RunConfig(engine=engine),
        )
        counts = result.state_of("count")
        assert counts.get("w", 0) == 0
        assert counts.get("p") == 1


class TestRunConfigAndCache:
    def test_optimize_validated(self):
        with pytest.raises(ValueError, match="optimize"):
            RunConfig(optimize="aggressive").validate()
        assert RunConfig(optimize="flow").validate().optimize == "flow"

    def test_optimize_crosses_the_scalar_wire(self):
        cfg = RunConfig(optimize="flow")
        assert RunConfig.from_scalars(cfg.scalars()).optimize == "flow"

    def test_cache_key_distinguishes_optimize(self):
        program = parse("{p}: 1")
        stack = [LabelCounterMonitor()]
        base = cache_key("strict", program, stack)
        flow = cache_key("strict", program, stack, optimize="flow")
        assert base != flow

    def test_flow_verdict_memoized(self):
        cache = CompilationCache(8)
        program = parse(DEAD_BRANCH)
        stack = [LabelCounterMonitor()]
        first = cache.flow_verdict(stack, program)
        # A structurally equal re-parse hits the fingerprint-keyed memo.
        second = cache.flow_verdict(stack, parse(DEAD_BRANCH))
        assert first is second
        stats = cache.flow_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.clear()
        assert cache.flow_stats()["size"] == 0

    def test_get_or_compile_with_flow_erases(self):
        cache = CompilationCache(8)
        program = parse(DEAD_BRANCH)
        stack = [LabelCounterMonitor()]
        plain = cache.get_or_compile(strict, program, stack, engine="codegen")
        erased = cache.get_or_compile(
            strict, program, stack, engine="codegen", optimize="flow"
        )
        assert erased.site_count == plain.site_count - 1
        # Distinct cache entries: asking again returns each unchanged.
        assert (
            cache.get_or_compile(strict, program, stack, engine="codegen")
            is plain
        )

    def test_run_monitored_flow_matches_none(self):
        program = parse(DEAD_BRANCH)
        results = {}
        for optimize in ("none", "flow"):
            results[optimize] = run_monitored(
                strict,
                program,
                LabelCounterMonitor(),
                config=RunConfig(engine="codegen", optimize=optimize),
            )
        assert results["none"].answer == results["flow"].answer
        assert results["none"].reports() == results["flow"].reports()


class TestRecordFlowFilter:
    def test_static_site_filter_folds_identically(self, tmp_path):
        from repro.tracing import analyze_trace, record

        program = parse(DEAD_BRANCH)
        paths = {}
        for optimize in ("none", "flow"):
            path = tmp_path / f"trace-{optimize}.jsonl"
            outcome = record(
                program=program,
                language=strict,
                out=str(path),
                monitors=[LabelCounterMonitor()],
                config=RunConfig(optimize=optimize),
            )
            paths[optimize] = (path, outcome)
        _, unfiltered = paths["none"]
        _, filtered = paths["flow"]
        assert filtered.enabled_sites == unfiltered.enabled_sites - 1
        assert filtered.answer == unfiltered.answer
        folds = {
            key: analyze_trace(str(path), [LabelCounterMonitor()])
            for key, (path, _) in paths.items()
        }
        assert folds["none"].reports() == folds["flow"].reports()
