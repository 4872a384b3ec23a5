"""Pretty printer for ``L_lambda`` expressions.

``pretty`` produces surface text the parser accepts again (round-tripping
is property-tested), re-sugaring curried primitive applications back into
infix operators and ``cons`` chains back into ``::`` / list literals.

The printer is precedence-driven: each production prints at a precedence
level and parenthesizes children whose own level is looser.
"""

from __future__ import annotations

from typing import List

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
from repro.syntax.parser import BINARY_OPERATORS

# Precedence levels: the parser's BINARY_OPERATORS levels, with every
# special form looser and application and atoms tighter.
_PREC_EXPR = 0  # lambda / if / let / letrec / annotation
_PREC_APP = max(level for level, _, _ in BINARY_OPERATORS.values()) + 1
_PREC_ATOM = _PREC_APP + 1

#: Primitive -> infix spelling, where the two differ (``cons`` -> ``::``).
_SPELLINGS = {
    primitive: op
    for op, (_, _, primitive) in BINARY_OPERATORS.items()
    if primitive != op
}


def _binary_parts(expr: Expr):
    """Match ``App(App(Var(op), left), right)`` for a known infix ``op``.

    The parser desugars ``a :: b`` to ``cons a b``, so ``cons`` is
    translated back to its infix spelling here.
    """
    if (
        isinstance(expr, App)
        and isinstance(expr.fn, App)
        and isinstance(expr.fn.fn, Var)
    ):
        name = expr.fn.fn.name
        name = _SPELLINGS.get(name, name)
        if name in BINARY_OPERATORS:
            return name, expr.fn.arg, expr.arg
    return None


def _list_elements(expr: Expr):
    """Match a literal ``cons``/``nil`` chain, returning its elements."""
    elements: List[Expr] = []
    while True:
        if isinstance(expr, Var) and expr.name == "nil":
            return elements
        parts = _binary_parts(expr)
        if parts is not None and parts[0] == "::":
            elements.append(parts[1])
            expr = parts[2]
            continue
        return None


def pretty(expr: Expr, width_hint: int = 72) -> str:
    """Render ``expr`` as parseable surface syntax."""
    del width_hint  # layout is currently single-strategy; hint kept for API
    return _render(expr, _PREC_EXPR)


def _parenthesize(text: str, level: int, required: int) -> str:
    return f"({text})" if level < required else text


def _render(expr: Expr, required: int) -> str:
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            escaped = (
                expr.value.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
                .replace("\t", "\\t")
            )
            return f'"{escaped}"'
        if isinstance(expr.value, (int, float)) and expr.value < 0:
            return _parenthesize(str(expr.value), _PREC_EXPR, required)
        return str(expr.value)

    if isinstance(expr, Var):
        if expr.name == "nil":
            return "[]"
        if expr.name in BINARY_OPERATORS:
            return f"({expr.name})"  # operator section, e.g. (+)
        return expr.name

    if isinstance(expr, Lam):
        params = [expr.param]
        body = expr.body
        while isinstance(body, Lam):
            params.append(body.param)
            body = body.body
        text = f"lambda {' '.join(params)}. {_render(body, _PREC_EXPR)}"
        return _parenthesize(text, _PREC_EXPR, required)

    if isinstance(expr, If):
        text = (
            f"if {_render(expr.cond, _PREC_EXPR)} "
            f"then {_render(expr.then_branch, _PREC_EXPR)} "
            f"else {_render(expr.else_branch, _PREC_EXPR)}"
        )
        return _parenthesize(text, _PREC_EXPR, required)

    if isinstance(expr, Let):
        text = (
            f"let {expr.name} = {_render(expr.bound, _PREC_EXPR)} "
            f"in {_render(expr.body, _PREC_EXPR)}"
        )
        return _parenthesize(text, _PREC_EXPR, required)

    if isinstance(expr, Letrec):
        bindings = " and ".join(
            f"{name} = {_render(bound, _PREC_EXPR)}" for name, bound in expr.bindings
        )
        text = f"letrec {bindings} in {_render(expr.body, _PREC_EXPR)}"
        return _parenthesize(text, _PREC_EXPR, required)

    if isinstance(expr, Annotated):
        # Mirror the parser: the annotation binds to the next atom, except
        # that a special form after the colon is swallowed whole.
        if isinstance(expr.body, (Lam, If, Let, Letrec, Annotated)):
            text = f"{{{expr.annotation.render()}}}: {_render(expr.body, _PREC_EXPR)}"
            return _parenthesize(text, _PREC_EXPR, required)
        text = f"{{{expr.annotation.render()}}}: {_render(expr.body, _PREC_ATOM)}"
        return text

    if isinstance(expr, App):
        elements = _list_elements(expr)
        if elements is not None:
            inner = ", ".join(_render(el, _PREC_EXPR) for el in elements)
            return f"[{inner}]"
        parts = _binary_parts(expr)
        if parts is not None:
            op, left, right = parts
            level, associativity, _ = BINARY_OPERATORS[op]
            if associativity == "right":
                text = f"{_render(left, level + 1)} {op} {_render(right, level)}"
            elif associativity is None:
                text = f"{_render(left, level + 1)} {op} {_render(right, level + 1)}"
            else:
                text = f"{_render(left, level)} {op} {_render(right, level + 1)}"
            return _parenthesize(text, level, required)
        text = f"{_render(expr.fn, _PREC_APP)} {_render(expr.arg, _PREC_ATOM)}"
        return _parenthesize(text, _PREC_APP, required)

    raise TypeError(f"unknown expression node: {type(expr).__name__}")
