"""The denotable-value domain ``V = Bas + Fun`` (Figure 2).

Basic values (``Bas``) are represented directly by Python's ``int``,
``bool``, ``float`` and ``str``; lists are proper cons cells
(:class:`Cons` / :data:`NIL`) so that the object language has real
structured data independent of the host.  Function values (``Fun``) are
:class:`Closure` for object-language lambdas and :class:`PrimFun` for
built-in operations.

A :class:`Closure` intentionally stores only ``(param, body, env)``.  The
valuation function applying it is whichever semantics is currently running
— standard or monitored — which is exactly the paper's construction: ``Fun``
values are built from the *fixpoint* of the active valuation functional, so
a derived monitoring semantics exhibits its behavior inside every function
body, at all levels of recursion.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import EvalError, PrimitiveError
from repro.syntax.ast import Expr

BasicValue = Union[int, bool, float, str]


class ConsCell:
    """Base for object-language list values."""

    __slots__ = ()


class _Nil(ConsCell):
    """The empty list.  A singleton: compare with ``is NIL``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NIL"

    def __bool__(self) -> bool:
        return False


NIL = _Nil()


class Cons(ConsCell):
    """A cons cell ``head :: tail``."""

    __slots__ = ("head", "tail")

    def __init__(self, head: "Value", tail: "Value") -> None:
        self.head = head
        self.tail = tail

    def __repr__(self) -> str:
        return f"Cons({self.head!r}, {self.tail!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cons)
            and values_equal(self.head, other.head)
            and values_equal(self.tail, other.tail)
        )

    def __hash__(self) -> int:
        return hash(("cons", _hashable(self.head), _hashable(self.tail)))


class Closure:
    """An object-language function value ``lambda param. body`` over ``env``."""

    __slots__ = ("param", "body", "env", "name")

    def __init__(self, param: str, body: Expr, env, name: Optional[str] = None) -> None:
        self.param = param
        self.body = body
        self.env = env
        #: Optional name for letrec-bound closures; used only for display.
        self.name = name

    def __repr__(self) -> str:
        label = self.name or "lambda"
        return f"<closure {label}({self.param})>"


class PrimFun:
    """A curried primitive operation.

    ``fn`` receives exactly ``arity`` positional value arguments once the
    application is saturated.  Partial applications share the underlying
    function and accumulate arguments immutably.
    """

    __slots__ = ("name", "arity", "fn", "args")

    def __init__(
        self,
        name: str,
        arity: int,
        fn: Callable[..., "Value"],
        args: Tuple["Value", ...] = (),
    ) -> None:
        if arity < 1:
            raise ValueError("primitive arity must be at least 1")
        self.name = name
        self.arity = arity
        self.fn = fn
        self.args = args

    def apply(self, argument: "Value") -> "Value":
        """Apply to one more argument: either a result or a partial application."""
        args = self.args + (argument,)
        if len(args) == self.arity:
            return self.fn(*args)
        return PrimFun(self.name, self.arity, self.fn, args)

    def __repr__(self) -> str:
        if self.args:
            return f"<primitive {self.name}/{self.arity} [{len(self.args)} applied]>"
        return f"<primitive {self.name}/{self.arity}>"


class Thunk:
    """A delayed computation, used by the lazy (call-by-need) language module.

    A thunk is *not* a denotable value of the strict language; it never
    escapes the lazy machine, which forces thunks before passing values to
    primitives or monitors.
    """

    __slots__ = ("expr", "env", "value", "forced")

    def __init__(self, expr: Expr, env) -> None:
        self.expr = expr
        self.env = env
        self.value: Optional[Value] = None
        self.forced = False

    def memoize(self, value: "Value") -> "Value":
        self.value = value
        self.forced = True
        # Drop references so the GC can reclaim the closure graph.
        self.expr = None  # type: ignore[assignment]
        self.env = None
        return value

    def __repr__(self) -> str:
        return f"<thunk forced={self.forced}>"


Value = Union[BasicValue, ConsCell, Closure, PrimFun]


def is_function(value: "Value") -> bool:
    """True for any applicable value.

    Besides the interpreter's :class:`Closure`/:class:`PrimFun`, the
    residual programs of :mod:`repro.partial_eval.codegen` represent
    functions as plain host functions, and a function read back from a
    trace is an opaque value marked with a ``function_display`` attribute.
    """
    return (
        isinstance(value, (Closure, PrimFun))
        or hasattr(value, "function_display")
        or callable(value)  # residual functions emitted by codegen
    )


def values_equal(left: "Value", right: "Value") -> bool:
    """Object-language equality: structural on basics and lists.

    Distinguishes ``True`` from ``1`` (Python's ``==`` does not), matching a
    typed reading of ``Bas = Int + Bool + ...`` where the summands are
    disjoint.  Comparing function values raises, mirroring the paper's
    semantics where ``=`` is a base-value primitive.
    """
    if isinstance(left, Thunk):
        if not left.forced:
            raise PrimitiveError(
                "cannot compare an unforced lazy value; realize the "
                "structure (e.g. via length) before comparing"
            )
        left = left.value
    if isinstance(right, Thunk):
        if not right.forced:
            raise PrimitiveError(
                "cannot compare an unforced lazy value; realize the "
                "structure (e.g. via length) before comparing"
            )
        right = right.value
    if is_function(left) or is_function(right):
        raise PrimitiveError("cannot compare function values for equality")
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, _Nil) or isinstance(right, _Nil):
        return left is right
    if isinstance(left, Cons) and isinstance(right, Cons):
        return values_equal(left.head, right.head) and values_equal(
            left.tail, right.tail
        )
    if isinstance(left, Cons) or isinstance(right, Cons):
        return False
    return type(left) is type(right) and left == right


def _hashable(value: "Value"):
    if isinstance(value, Cons):
        return ("cons", _hashable(value.head), _hashable(value.tail))
    if isinstance(value, _Nil):
        return ("nil",)
    return (type(value).__name__, value)


def hashable_key(value: "Value"):
    """A hashable stand-in for ``value``; used by set-valued monitor states."""
    if is_function(value):
        return ("fun", id(value))
    return _hashable(value)


def from_python_list(items: Iterable["Value"]) -> ConsCell:
    """Build an object-language list from a Python iterable."""
    result: ConsCell = NIL
    for item in reversed(list(items)):
        result = Cons(item, result)
    return result


def to_python_list(value: "Value") -> List["Value"]:
    """Convert an object-language list to a Python list."""
    items: List[Value] = []
    while isinstance(value, Cons):
        items.append(value.head)
        value = value.tail
    if value is not NIL:
        raise EvalError(f"improper list ending in {value!r}")
    return items


def iter_list(value: "Value") -> Iterator["Value"]:
    while isinstance(value, Cons):
        yield value.head
        value = value.tail
    if value is not NIL:
        raise EvalError(f"improper list ending in {value!r}")


#: Render strings for residual (codegen) closures, keyed by their *code*
#: objects — registered once per generated program, so re-creating a
#: curried inner closure at run time costs no per-instance bookkeeping.
_RESIDUAL_DISPLAYS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def register_code_display(code, display: str) -> None:
    """Associate a residual function's code object with its render string."""
    _RESIDUAL_DISPLAYS[code] = display


def value_to_string(value: "Value") -> str:
    """The paper's ``ToStr : V -> String``, used by tracers and debuggers."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, _Nil):
        return "[]"
    if isinstance(value, Cons):
        return "[" + ", ".join(value_to_string(v) for v in iter_list(value)) + "]"
    if isinstance(value, Closure):
        return f"<fun {value.name or value.param}>"
    if isinstance(value, PrimFun):
        return f"<prim {value.name}>"
    if isinstance(value, Thunk):
        if value.forced:
            return value_to_string(value.value)
        return "<delayed>"
    display = getattr(value, "function_display", None)
    if display is not None:
        return display
    code = getattr(value, "__code__", None)
    if code is not None:
        display = _RESIDUAL_DISPLAYS.get(code)
        if display is not None:
            return display
    if callable(value):  # residual function emitted by codegen
        return f"<fun {getattr(value, '__name__', 'residual')}>"
    raise EvalError(f"cannot render value: {value!r}")
