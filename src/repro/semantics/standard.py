"""Standard continuation semantics for ``L_lambda`` (Figure 2).

The semantics is packaged as a *functional* :func:`standard_functional`:
given ``recur`` (the valuation function being defined, i.e. the knot of the
fixpoint) it returns the one-step valuation.  The equations transliterate
Figure 2 case by case; the only additions are:

* ``Let`` — sugar, evaluated like ``(lambda x. body) bound`` but without
  constructing the intermediate closure;
* ``Annotated`` — the standard semantics is *oblivious* (Definition 7.1):
  it evaluates the body, disregarding the annotation;
* the monitor state ``ms`` — threaded untouched, which is how the standard
  semantics stays parameterized over the answer domain (Section 3.1).

Evaluation order matches Figure 2 exactly: application evaluates the
argument ``e2`` before the operator ``e1``.
"""

from __future__ import annotations

from repro.errors import EvalError, NotAFunctionError
from repro.semantics.env import Environment
from repro.semantics.machine import Valuation
from repro.semantics.trampoline import Bounce, Step
from repro.semantics.values import Closure, PrimFun, value_to_string
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


def apply_value(fn_value, arg_value, kont, ms, recur) -> Step:
    """Apply ``(v1 | Fun) v2 kappa`` — shared by every strict semantics.

    Closures re-enter the *current* valuation function ``recur``, so a
    derived monitoring semantics monitors inside every function body.
    """
    if isinstance(fn_value, Closure):
        env = fn_value.env.extend(fn_value.param, arg_value)
        return Bounce(recur, (fn_value.body, env, kont, ms))
    if isinstance(fn_value, PrimFun):
        result = fn_value.apply(arg_value)
        return Bounce(kont, (result, ms))
    raise NotAFunctionError(
        f"attempt to apply non-function value {value_to_string(fn_value)!r}"
    )


def standard_functional(recur: Valuation) -> Valuation:
    """The valuation functional ``G_lambda`` of Figure 2."""

    def eval_expr(expr: Expr, env: Environment, kont, ms) -> Step:
        node_type = type(expr)

        if node_type is Const:
            return Bounce(kont, (expr.value, ms))

        if node_type is Var:
            return Bounce(kont, (env.lookup(expr.name), ms))

        if node_type is Lam:
            return Bounce(kont, (Closure(expr.param, expr.body, env), ms))

        if node_type is If:

            def branch_kont(value, ms_inner) -> Step:
                if value is True:
                    return Bounce(recur, (expr.then_branch, env, kont, ms_inner))
                if value is False:
                    return Bounce(recur, (expr.else_branch, env, kont, ms_inner))
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}",
                    expr.location,
                )

            return Bounce(recur, (expr.cond, env, branch_kont, ms))

        if node_type is App:
            # Figure 2: E[e2] rho { \v2. E[e1] rho { \v1. (v1|Fun) v2 kappa } }
            def arg_kont(arg_value, ms_arg) -> Step:
                def fn_kont(fn_value, ms_fn) -> Step:
                    return apply_value(fn_value, arg_value, kont, ms_fn, recur)

                return Bounce(recur, (expr.fn, env, fn_kont, ms_arg))

            return Bounce(recur, (expr.arg, env, arg_kont, ms))

        if node_type is Let:

            def bound_kont(value, ms_inner) -> Step:
                extended = env.extend(expr.name, value)
                return Bounce(recur, (expr.body, extended, kont, ms_inner))

            return Bounce(recur, (expr.bound, env, bound_kont, ms))

        if node_type is Letrec:
            recursive_env = env.extend_recursive(expr.bindings)
            return Bounce(recur, (expr.body, recursive_env, kont, ms))

        if node_type is Annotated:
            # Obliviousness (Definition 7.1): disregard the annotation.
            return Bounce(recur, (expr.body, env, kont, ms))

        raise TypeError(f"unknown expression node: {node_type.__name__}")

    return eval_expr

