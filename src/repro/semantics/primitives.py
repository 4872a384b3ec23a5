"""Primitive operations and the initial environment.

The paper treats ``-``, ``*``, ``=``, ``hd``, ``tl`` and friends as
primitives bound in the initial environment.  Primitives are *trivial*
functions in Reynolds' sense — they compute a value from values without
touching continuations — so they are ordinary Python functions wrapped in
:class:`~repro.semantics.values.PrimFun` and shared by every language
module and every monitoring semantics.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from repro.errors import PrimitiveError
from repro.semantics.env import Environment, empty_environment
from repro.semantics.values import (
    NIL,
    Cons,
    PrimFun,
    Value,
    is_function,
    value_to_string,
    values_equal,
)


def _require_number(value: Value, op: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PrimitiveError(f"{op}: expected a number, got {value_to_string_safe(value)}")
    return value


def _require_int(value: Value, op: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PrimitiveError(f"{op}: expected an integer, got {value_to_string_safe(value)}")
    return value


def _require_bool(value: Value, op: str) -> bool:
    if not isinstance(value, bool):
        raise PrimitiveError(f"{op}: expected a boolean, got {value_to_string_safe(value)}")
    return value


def _require_string(value: Value, op: str) -> str:
    if not isinstance(value, str):
        raise PrimitiveError(f"{op}: expected a string, got {value_to_string_safe(value)}")
    return value


def _require_cons(value: Value, op: str) -> Cons:
    if not isinstance(value, Cons):
        raise PrimitiveError(f"{op}: expected a non-empty list, got {value_to_string_safe(value)}")
    return value


def value_to_string_safe(value: Value) -> str:
    try:
        return value_to_string(value)
    except Exception:  # pragma: no cover - defensive
        return repr(value)


# Arithmetic ----------------------------------------------------------------


def _add(a: Value, b: Value) -> Value:
    return _require_number(a, "+") + _require_number(b, "+")


def _sub(a: Value, b: Value) -> Value:
    return _require_number(a, "-") - _require_number(b, "-")


def _mul(a: Value, b: Value) -> Value:
    return _require_number(a, "*") * _require_number(b, "*")


def _div(a: Value, b: Value) -> Value:
    an, bn = _require_number(a, "/"), _require_number(b, "/")
    if bn == 0:
        raise PrimitiveError("/: division by zero")
    if isinstance(an, int) and isinstance(bn, int):
        # Truncated integer division, rounding toward zero (like C / Scheme
        # `quotient`), so that e.g. (-7)/2 = -3.
        quotient = abs(an) // abs(bn)
        return quotient if (an >= 0) == (bn >= 0) else -quotient
    return an / bn


def _mod(a: Value, b: Value) -> Value:
    an, bn = _require_int(a, "%"), _require_int(b, "%")
    if bn == 0:
        raise PrimitiveError("%: modulo by zero")
    return an - bn * (abs(an) // abs(bn) if (an >= 0) == (bn >= 0) else -(abs(an) // abs(bn)))


def _neg(a: Value) -> Value:
    return -_require_number(a, "neg")


def _abs(a: Value) -> Value:
    return abs(_require_number(a, "abs"))


def _min(a: Value, b: Value) -> Value:
    return min(_require_number(a, "min"), _require_number(b, "min"))


def _max(a: Value, b: Value) -> Value:
    return max(_require_number(a, "max"), _require_number(b, "max"))


def _sqrt(a: Value) -> Value:
    n = _require_number(a, "sqrt")
    if n < 0:
        raise PrimitiveError("sqrt: negative argument")
    return math.sqrt(n)


# Comparison and logic -------------------------------------------------------


def _eq(a: Value, b: Value) -> bool:
    return values_equal(a, b)


def _neq(a: Value, b: Value) -> bool:
    return not values_equal(a, b)


def _lt(a: Value, b: Value) -> bool:
    return _compare(a, b, "<") < 0


def _le(a: Value, b: Value) -> bool:
    return _compare(a, b, "<=") <= 0


def _gt(a: Value, b: Value) -> bool:
    return _compare(a, b, ">") > 0


def _ge(a: Value, b: Value) -> bool:
    return _compare(a, b, ">=") >= 0


def _compare(a: Value, b: Value, op: str) -> int:
    if isinstance(a, str) and isinstance(b, str):
        return (a > b) - (a < b)
    an, bn = _require_number(a, op), _require_number(b, op)
    return (an > bn) - (an < bn)


def _not(a: Value) -> bool:
    return not _require_bool(a, "not")


def _and(a: Value, b: Value) -> bool:
    return _require_bool(a, "and") and _require_bool(b, "and")


def _or(a: Value, b: Value) -> bool:
    return _require_bool(a, "or") or _require_bool(b, "or")


# Lists -----------------------------------------------------------------------


def _cons(head: Value, tail: Value) -> Cons:
    return Cons(head, tail)


def _hd(lst: Value) -> Value:
    return _require_cons(lst, "hd").head


def _tl(lst: Value) -> Value:
    return _require_cons(lst, "tl").tail


def _null(lst: Value) -> bool:
    return lst is NIL


def _length(lst: Value) -> int:
    count = 0
    while isinstance(lst, Cons):
        count += 1
        lst = lst.tail
    if lst is not NIL:
        raise PrimitiveError("length: improper list")
    return count


# Strings ---------------------------------------------------------------------


def _append_str(a: Value, b: Value) -> str:
    return _require_string(a, "++") + _require_string(b, "++")


def _to_str(a: Value) -> str:
    return value_to_string(a)


def _str_len(a: Value) -> int:
    return len(_require_string(a, "strlen"))


# Type predicates --------------------------------------------------------------


def _is_int(a: Value) -> bool:
    return isinstance(a, int) and not isinstance(a, bool)


def _is_bool(a: Value) -> bool:
    return isinstance(a, bool)


def _is_string(a: Value) -> bool:
    return isinstance(a, str)


def _is_list(a: Value) -> bool:
    return a is NIL or isinstance(a, Cons)


def _is_function_value(a: Value) -> bool:
    return is_function(a)


#: name -> (arity, implementation).  This single table feeds the initial
#: environment, the partial evaluator's constant folder and the compiler.
PRIMITIVE_TABLE: Dict[str, tuple[int, Callable[..., Value]]] = {
    "+": (2, _add),
    "-": (2, _sub),
    "*": (2, _mul),
    "/": (2, _div),
    "%": (2, _mod),
    "neg": (1, _neg),
    "abs": (1, _abs),
    "min": (2, _min),
    "max": (2, _max),
    "sqrt": (1, _sqrt),
    "=": (2, _eq),
    "/=": (2, _neq),
    "<": (2, _lt),
    "<=": (2, _le),
    ">": (2, _gt),
    ">=": (2, _ge),
    "not": (1, _not),
    "and": (2, _and),
    "or": (2, _or),
    "cons": (2, _cons),
    "hd": (1, _hd),
    "tl": (1, _tl),
    "null?": (1, _null),
    "length": (1, _length),
    "++": (2, _append_str),
    "toStr": (1, _to_str),
    "strlen": (1, _str_len),
    "int?": (1, _is_int),
    "bool?": (1, _is_bool),
    "string?": (1, _is_string),
    "list?": (1, _is_list),
    "function?": (1, _is_function_value),
}

#: Primitives that are pure functions of their arguments and total on the
#: values the partial evaluator will fold — everything except those that can
#: raise on statically-known-good input is still foldable because the folder
#: catches PrimitiveError and residualizes instead.
FOLDABLE_PRIMITIVES = frozenset(PRIMITIVE_TABLE)


def make_primitive(name: str) -> PrimFun:
    arity, fn = PRIMITIVE_TABLE[name]
    return PrimFun(name, arity, fn)


_INITIAL_ENVIRONMENT = Environment(
    {**{name: make_primitive(name) for name in PRIMITIVE_TABLE}, "nil": NIL},
    empty_environment(),
)


def initial_environment() -> Environment:
    """The initial environment binding every primitive plus ``nil``, built
    once: ``PrimFun`` values are immutable and environments grow by new frames."""
    return _INITIAL_ENVIRONMENT
