"""Scope and binding analysis over ``L_lambda`` programs (``REP1xx``).

A purely syntactic pass over the annotated abstract syntax (Figure 2)
that finds the errors the engines would otherwise only surface mid-run:

* ``REP101`` *error* — reference to an identifier bound nowhere
  (lexically or in the language's initial environment);
* ``REP102`` *warning* — a ``letrec`` binding shadows an identifier
  already in scope (legal, but a classic source of confusing recursion);
* ``REP103`` *warning* — a ``letrec`` binding that neither the body nor
  any (transitively) used sibling binding ever references;
* ``REP104`` *error* — two ``letrec`` bindings in one group share a name
  (the later silently wins at runtime);
* ``REP201`` *warning* — a ``FnHeader`` annotation whose parameters are
  not all in scope at the annotation site.  Headers belong on function
  *bodies* (Figure 7); misplaced ones make the tracer render ``?`` for
  every unresolvable parameter.  (Emitted here, not in the stack pass,
  because it needs the lexical environment.)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.analysis.diagnostics import Diagnostic
from repro.errors import NO_LOCATION
from repro.syntax.annotations import FnHeader, Tagged
from repro.syntax.ast import (
    Annotated,
    App,
    Const,
    Expr,
    If,
    Lam,
    Let,
    Letrec,
    Var,
)


def free_vars(expr: Expr) -> FrozenSet[str]:
    """The free identifiers of ``expr`` (annotations are transparent)."""
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Lam):
        return free_vars(expr.body) - {expr.param}
    if isinstance(expr, If):
        return (
            free_vars(expr.cond)
            | free_vars(expr.then_branch)
            | free_vars(expr.else_branch)
        )
    if isinstance(expr, App):
        return free_vars(expr.fn) | free_vars(expr.arg)
    if isinstance(expr, Let):
        return free_vars(expr.bound) | (free_vars(expr.body) - {expr.name})
    if isinstance(expr, Letrec):
        names = {name for name, _ in expr.bindings}
        free: Set[str] = set(free_vars(expr.body))
        for _, bound in expr.bindings:
            free |= free_vars(bound)
        return frozenset(free - names)
    if isinstance(expr, Annotated):
        return free_vars(expr.body)
    return frozenset()  # unknown node (e.g. an L_imp fragment): be silent


def _reachable_letrec_names(node: Letrec) -> Set[str]:
    """Binding names reachable from the body, transitively through siblings."""
    names = {name for name, _ in node.bindings}
    uses: Dict[str, Set[str]] = {
        name: set(free_vars(bound)) & names for name, bound in node.bindings
    }
    reachable = set(free_vars(node.body)) & names
    frontier = list(reachable)
    while frontier:
        current = frontier.pop()
        for used in uses.get(current, ()):
            if used not in reachable:
                reachable.add(used)
                frontier.append(used)
    return reachable


def _best_location(expr: Expr):
    """The closest real location at or under ``expr`` (pre-order)."""
    for node in expr.walk():
        if node.location is not NO_LOCATION:
            return node.location
    return NO_LOCATION


def analyze_scope(program: Expr, global_names: FrozenSet[str]) -> List[Diagnostic]:
    """Run the scope/binding pass; ``global_names`` is the initial env."""
    diagnostics: List[Diagnostic] = []
    if not isinstance(program, Expr):
        return diagnostics

    def visit(expr: Expr, bound: FrozenSet[str]) -> None:
        if isinstance(expr, (Const,)):
            return
        if isinstance(expr, Var):
            if expr.name not in bound and expr.name not in global_names:
                diagnostics.append(
                    Diagnostic(
                        code="REP101",
                        severity="error",
                        message=f"unbound identifier {expr.name!r}",
                        location=expr.location,
                        span=len(expr.name),
                        hint="bind it with lambda, let, or letrec, or use a "
                        "primitive from the initial environment",
                    )
                )
            return
        if isinstance(expr, Lam):
            visit(expr.body, bound | {expr.param})
            return
        if isinstance(expr, If):
            visit(expr.cond, bound)
            visit(expr.then_branch, bound)
            visit(expr.else_branch, bound)
            return
        if isinstance(expr, App):
            visit(expr.fn, bound)
            visit(expr.arg, bound)
            return
        if isinstance(expr, Let):
            visit(expr.bound, bound)
            visit(expr.body, bound | {expr.name})
            return
        if isinstance(expr, Letrec):
            seen: Set[str] = set()
            for name, bound_expr in expr.bindings:
                where = _best_location(bound_expr)
                if name in seen:
                    diagnostics.append(
                        Diagnostic(
                            code="REP104",
                            severity="error",
                            message=f"duplicate letrec binding {name!r} "
                            "in the same group",
                            location=where,
                            span=len(name),
                            hint="rename one of the bindings; the later one "
                            "silently shadows the earlier at runtime",
                        )
                    )
                seen.add(name)
                if name in bound or name in global_names:
                    diagnostics.append(
                        Diagnostic(
                            code="REP102",
                            severity="warning",
                            message=f"letrec binding {name!r} shadows an "
                            "identifier already in scope",
                            location=where,
                            span=len(name),
                        )
                    )
            reachable = _reachable_letrec_names(expr)
            for name, bound_expr in expr.bindings:
                if name not in reachable:
                    diagnostics.append(
                        Diagnostic(
                            code="REP103",
                            severity="warning",
                            message=f"letrec binding {name!r} is never used",
                            location=_best_location(bound_expr),
                            span=len(name),
                            hint="remove the binding or reference it from "
                            "the letrec body",
                        )
                    )
            names = frozenset(name for name, _ in expr.bindings)
            inner = bound | names
            for _, bound_expr in expr.bindings:
                visit(bound_expr, inner)
            visit(expr.body, inner)
            return
        if isinstance(expr, Annotated):
            header = expr.annotation
            if isinstance(header, Tagged):
                header = header.payload
            if isinstance(header, FnHeader):
                missing = [
                    p
                    for p in header.params
                    if p not in bound and p not in global_names
                ]
                if missing:
                    shown = ", ".join(repr(p) for p in missing)
                    diagnostics.append(
                        Diagnostic(
                            code="REP201",
                            severity="warning",
                            message=f"function-header annotation "
                            f"{{{header.render()}}} names parameter(s) "
                            f"{shown} not in scope here",
                            location=expr.location,
                            hint="place the header on the function body so "
                            "its parameters resolve; the tracer renders "
                            "'?' for unresolvable parameters",
                        )
                    )
            visit(expr.body, bound)
            return
        # Unknown node kind (extension language): recurse structurally but
        # make no binding claims.
        for child in expr.children():
            visit(child, bound)

    visit(program, frozenset())
    return diagnostics


__all__ = ["analyze_scope", "free_vars"]
