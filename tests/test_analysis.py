"""Unit tests for the static analyzer (:mod:`repro.analysis`).

Covers the diagnostic model and its renderers, the scope/binding pass,
the annotation/stack pass, the monitor-spec pass (arity and purity), and
the ``analyze`` entry point on the acceptance-criteria program.  The
hook functions used by the purity tests live at module level: the scan
reads their source with ``inspect.getsource``, which cannot see inside
test-local closures defined interactively.
"""

import json

import pytest

from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    StaticAnalysisError,
    analyze,
    analyze_scope,
    analyze_spec,
    analyze_stack,
    check_lint_level,
    claim_sets,
    free_vars,
    probe_monitor,
    render_json,
    render_text,
)
from repro.errors import MonitorError
from repro.monitoring.spec import FunctionSpec, MonitorSpec
from repro.monitors import LabelCounterMonitor, ProfilerMonitor, TracerMonitor
from repro.syntax.annotations import Label
from repro.syntax.parser import parse
from repro.toolbox.registry import TOOLBOX, make_tool


def _scope(source, language=None):
    from repro.analysis import _global_names

    return analyze_scope(parse(source), _global_names(language))


def _codes(diagnostics):
    return [d.code for d in diagnostics]


# -- the diagnostic model -----------------------------------------------------


class TestDiagnosticModel:
    def test_lint_levels(self):
        for level in ("off", "warn", "error"):
            check_lint_level(level)
        with pytest.raises(Exception):
            check_lint_level("loud")

    def test_to_dict_from_dict_roundtrip(self):
        report = analyze("let x = 1 in x + y", [ProfilerMonitor()])
        assert not report.ok()
        for diagnostic in report.diagnostics:
            clone = Diagnostic.from_dict(diagnostic.to_dict())
            assert clone.code == diagnostic.code
            assert clone.severity == diagnostic.severity
            assert clone.message == diagnostic.message
            assert clone.location.line == diagnostic.location.line
            assert clone.location.column == diagnostic.location.column
            assert clone.span == diagnostic.span

    def test_sort_key_orders_located_first(self):
        located = Diagnostic(
            code="REP101",
            severity="error",
            message="x",
            location=parse("f").location,
        )
        unlocated = Diagnostic(code="REP205", severity="error", message="y", subject="k")
        assert sorted([unlocated, located], key=Diagnostic.sort_key)[0] is located

    def test_render_includes_caret_and_hint(self):
        source = "1 + nope"
        report = analyze(source)
        rendered = report.render()
        assert "error[REP101]" in rendered
        assert "1:5" in rendered
        assert "^^^^" in rendered  # span covers the identifier
        assert "help:" in rendered

    def test_render_text_clean(self):
        report = analyze("1 + 2")
        assert report.ok()
        assert "no issues found" in render_text(report)

    def test_render_json_roundtrips(self):
        report = analyze("1 + nope", [ProfilerMonitor()])
        data = json.loads(render_json(report))
        assert data["ok"] is False
        assert data["errors"] == 1
        assert [d["code"] for d in data["diagnostics"]] == ["REP101"]
        assert data["diagnostics"][0]["line"] == 1
        assert data["diagnostics"][0]["column"] == 5

    def test_summary_counts(self):
        report = analyze(
            "letrec unused = lambda x. x in 1 + nope", [ProfilerMonitor()]
        )
        assert report.summary() == "1 error(s), 1 warning(s)"

    def test_static_analysis_error_carries_report(self):
        report = analyze("1 + nope")
        exc = StaticAnalysisError(report)
        assert exc.report is report
        assert _codes(exc.diagnostics) == ["REP101"]
        assert "REP101" in str(exc)


# -- the scope/binding pass ---------------------------------------------------


class TestScopePass:
    def test_free_vars(self):
        assert free_vars(parse("lambda x. x + y")) == frozenset({"+", "y"})
        assert free_vars(parse("letrec f = lambda n. f n in f 1")) == frozenset()

    def test_unbound_identifier(self):
        (finding,) = _scope("let x = 1 in x + missing")
        assert finding.code == "REP101"
        assert finding.location.line == 1
        assert finding.location.column == 18
        assert finding.span == len("missing")

    def test_primitives_are_bound(self):
        assert _scope("max 1 (min 2 (length (cons 1 nil)))") == []

    def test_lambda_let_letrec_bind(self):
        assert _scope("lambda x. let y = x in letrec f = lambda n. f (y n) in f x") == []

    def test_duplicate_letrec_binding(self):
        findings = _scope("letrec f = lambda x. x and f = lambda y. y in f 1")
        assert "REP104" in _codes(findings)

    def test_letrec_shadowing_warns(self):
        findings = _scope("let f = 1 in letrec f = lambda x. x in f 2")
        assert _codes(findings) == ["REP102"]
        assert findings[0].severity == "warning"

    def test_unused_letrec_binding_warns(self):
        findings = _scope("letrec unused = lambda x. x in 42")
        assert _codes(findings) == ["REP103"]

    def test_mutually_recursive_bindings_are_used(self):
        source = (
            "letrec even = lambda n. if n = 0 then true else odd (n - 1) "
            "and odd = lambda n. if n = 0 then false else even (n - 1) "
            "in even 4"
        )
        assert _scope(source) == []

    def test_fnheader_params_not_in_scope(self):
        findings = _scope("letrec f = lambda x. {f(x, ghost)}: x in f 1")
        assert "REP201" in _codes(findings)

    def test_fnheader_params_in_scope_clean(self):
        assert _scope("letrec f = lambda x. {f(x)}: x in f 1") == []


# -- the annotation/stack pass ------------------------------------------------


class TestStackPass:
    def test_empty_stack_no_findings(self):
        assert analyze_stack(parse("{p}: 1"), []) == []

    def test_dead_annotation(self):
        (finding,) = analyze_stack(parse("{unclaimed_label_xyz}: 1"), [TracerMonitor()])
        assert finding.code == "REP202"
        assert finding.severity == "warning"
        assert finding.location.line == 1

    def test_unknown_tool(self):
        (finding,) = analyze_stack(parse("{mystery: p}: 1"), [ProfilerMonitor()])
        assert finding.code == "REP203"
        assert "mystery" in finding.message

    def test_overlap(self):
        (finding,) = analyze_stack(
            parse("{p}: 1"), [ProfilerMonitor(), LabelCounterMonitor()]
        )
        assert finding.code == "REP204"
        assert finding.severity == "error"
        assert finding.span == len("{p}")

    def test_namespaced_stack_is_disjoint(self):
        monitors = [make_tool("profile", namespace="profile"),
                    make_tool("count", namespace="count")]
        findings = analyze_stack(parse("{profile: p}: 1 + {count: q}: 2"), monitors)
        assert findings == []

    def test_duplicate_monitor_keys(self):
        findings = analyze_stack(parse("1"), [ProfilerMonitor(), ProfilerMonitor()])
        assert _codes(findings) == ["REP205"]
        assert findings[0].subject == ProfilerMonitor().key

    def test_claim_sets(self):
        program = parse("{p}: 1 + {q}: 2")
        claims = claim_sets(program, [ProfilerMonitor()])
        assert set(claims) == {ProfilerMonitor().key}
        assert [ann.name for ann in claims[ProfilerMonitor().key]] == ["p", "q"]


# -- the monitor-spec pass ----------------------------------------------------

# Hooks for the purity scan, at module level so inspect.getsource works.


def _impure_pre(annotation, term, ctx, state):
    state["hits"] = state.get("hits", 0) + 1  # in-place write to the param
    return state


def _global_pre(annotation, term, ctx, state):
    global _LEAKED
    _LEAKED = state
    return state


def _pure_pre(annotation, term, ctx, state):
    out = dict(state)
    out["hits"] = out.get("hits", 0) + 1
    return out


def _label(annotation):
    return annotation if isinstance(annotation, Label) else None


def _spec(pre):
    return FunctionSpec(key="t", recognize=_label, initial=dict, pre=pre)


class TestSpecPass:
    def test_arity_error_pre(self):
        bad = FunctionSpec(
            key="t", recognize=_label, initial=dict, pre=lambda a, b: b
        )
        findings = analyze_spec(bad)
        assert "REP301" in _codes(findings)

    def test_arity_error_recognize(self):
        bad = FunctionSpec(
            key="t", recognize=lambda: None, initial=dict
        )
        findings = analyze_spec(bad)
        assert "REP303" in _codes(findings)

    def test_arity_error_post(self):
        bad = FunctionSpec(
            key="t", recognize=_label, initial=dict, post=lambda a: a
        )
        findings = analyze_spec(bad)
        assert "REP302" in _codes(findings)

    def test_hooks_sharing_code_keep_their_own_arity_verdicts(self):
        """The arity check is memoized per code object, but defaults change
        what a hook accepts: two hooks over one code object with different
        defaults get their own verdicts, in either order."""
        import types

        def pre(annotation, term, ctx, state, extra=None):
            return state

        bare = types.FunctionType(pre.__code__, pre.__globals__, "pre")
        assert bare.__code__ is pre.__code__ and bare.__defaults__ is None
        for hooks in ((pre, bare), (bare, pre)):
            verdicts = ["REP301" in _codes(analyze_spec(_spec(h))) for h in hooks]
            assert verdicts == [hook is bare for hook in hooks]

    def test_impure_param_write_flagged(self):
        findings = analyze_spec(_spec(_impure_pre))
        assert "REP304" in _codes(findings)
        assert all(f.severity == "warning" for f in findings)

    def test_shared_hook_flagged_under_each_monitors_key(self):
        """The hook scan is memoized per code object, but each monitor
        sharing a mutating hook still gets its own REP304."""
        from repro.analysis.specs import _purity_findings

        for key in ("first", "second"):
            spec = FunctionSpec(
                key=key, recognize=_label, initial=dict, pre=_impure_pre
            )
            [finding] = analyze_spec(spec)
            assert finding.code == "REP304"
            assert finding.subject == f"{key}.pre"
            assert repr(key) in finding.message
        code = _impure_pre.__code__
        assert _purity_findings(code) is _purity_findings(code)

    def test_one_class_two_keys_keep_their_own_subjects(self):
        """Two instances of one spec class share the memoized scan of its
        hook methods; each renders the findings under its own key."""
        from repro.analysis.specs import _purity_findings

        class Mutating(MonitorSpec):
            def __init__(self, key):
                self.key = key

            def recognize(self, annotation):
                return annotation

            def initial_state(self):
                return {}

            def pre(self, annotation, term, ctx, state):
                state["hits"] = 1
                return state

        _purity_findings.cache_clear()
        for key in ("left", "right"):
            [finding] = analyze_spec(Mutating(key))
            assert finding.code == "REP304"
            assert finding.subject == f"{key}.pre"
            assert f"pre of monitor {key!r}" in finding.message
        info = _purity_findings.cache_info()
        assert (info.misses, info.hits) == (2, 2)  # pre and post, once each

    def test_hook_scan_reads_the_file_without_inspect_getsource(self, monkeypatch):
        """``inspect.getsource`` calls ``realpath`` on every loaded module,
        a cold-start cost on the first linted request; the scan parses the
        hook's file itself and keeps getsource only as a fallback."""
        import inspect

        from repro.analysis.specs import _purity_findings

        def unavailable(obj):
            raise OSError("inspect.getsource is not used for file-backed hooks")

        monkeypatch.setattr(inspect, "getsource", unavailable)
        _purity_findings.cache_clear()
        findings = analyze_spec(_spec(_impure_pre))
        assert "REP304" in _codes(findings)

    def test_global_write_flagged(self):
        findings = analyze_spec(_spec(_global_pre))
        assert "REP305" in _codes(findings)

    def test_copy_first_idiom_clean(self):
        assert analyze_spec(_spec(_pure_pre)) == []

    @pytest.mark.parametrize("name", sorted(TOOLBOX))
    def test_toolbox_monitors_statically_clean(self, name):
        assert analyze_spec(make_tool(name)) == []

    @pytest.mark.parametrize("name", sorted(TOOLBOX))
    def test_toolbox_monitors_pass_probes(self, name):
        assert probe_monitor(make_tool(name)) == []

    def test_probe_findings_become_diagnostics(self):
        shared = {}
        broken = FunctionSpec(
            key="broken",
            recognize=_label,
            initial=lambda: shared,  # shared mutable state: probe finding
            pre=lambda annotation, term, ctx, state: state,
        )
        findings = probe_monitor(broken)
        assert "REP312" in _codes(findings)
        assert all(f.code.startswith("REP31") for f in findings)
        assert all(f.subject.startswith("broken.") for f in findings)


# -- the analyze entry point --------------------------------------------------


class TestAnalyze:
    SOURCE = (
        "let x = {p}: 1 in\n"
        "let y = {unknown: q}: 2 in\n"
        "x + y + froz"
    )

    def test_acceptance_program_reports_three_codes(self):
        report = analyze(
            self.SOURCE, [make_tool("profile"), make_tool("count")]
        )
        assert report.codes() == ("REP204", "REP203", "REP101")
        by_code = {d.code: d for d in report.diagnostics}
        assert (by_code["REP204"].location.line, by_code["REP204"].location.column) == (1, 9)
        assert (by_code["REP203"].location.line, by_code["REP203"].location.column) == (2, 9)
        assert (by_code["REP101"].location.line, by_code["REP101"].location.column) == (3, 9)
        assert len(report.errors) == 2
        assert len(report.warnings) == 1

    def test_str_program_keeps_source_for_rendering(self):
        report = analyze(self.SOURCE, [make_tool("profile"), make_tool("count")])
        rendered = report.render()
        assert "x + y + froz" in rendered  # source excerpt shown
        assert "^^^^" in rendered

    def test_parsed_program_accepted(self):
        report = analyze(parse("1 + 2"), [ProfilerMonitor()])
        assert report.ok()

    def test_monitor_stack_flattened(self):
        from repro.monitoring.compose import compose

        stack = compose(make_tool("profile", namespace="profile"),
                        make_tool("trace", namespace="trace"))
        report = analyze("{profile: p}: 1", stack)
        assert report.ok()

    @pytest.mark.parametrize(
        "stack",
        ["profile", "profile & count", ["profile"], ["profile", "count"]],
        ids=["name", "ampersand", "list", "list-two"],
    )
    def test_toolbox_names_accepted(self, stack):
        # Regression: plain tool names used to recurse forever in
        # flatten_monitors (a str flattens into strs).
        report = analyze("1 + nope", stack)
        assert "REP101" in report.codes()

    def test_disjointness_mirror(self):
        # The analyzer's REP204 fires exactly when check_disjoint rejects.
        from repro.monitoring.derive import check_disjoint

        program = parse("{p}: 1")
        stack = [ProfilerMonitor(), LabelCounterMonitor()]
        with pytest.raises(MonitorError):
            check_disjoint(stack, program)
        assert "REP204" in analyze(program, stack).codes()
