"""``L_imp``: a small imperative language in continuation style.

The paper's framework claims generality over "any sequential, deterministic
language" expressible in continuation semantics, and its Haskell
environment ships an imperative language module (Section 9.2).  ``L_imp``
exercises that claim with a genuinely different semantic shape:

* two syntactic categories — *commands* and *expressions* — each with its
  own valuation equations (the paper's indexed ``V_i``);
* a store threaded through command continuations: a command's intermediate
  result (``A*'`` in the paper) is the updated store, so the *post*
  monitoring function of a command monitor observes the store after the
  command — exactly what a Magpie-style assignment demon needs (Section 8's
  event-monitoring discussion [DMS84]).

Expressions reuse the functional AST (constants, variables, primitive
applications, conditionals); they are pure, reading the store through
variable lookup.  Commands are assignment, sequencing, conditional, while,
and block-local declarations.

Monitoring works through the same derivation as the functional languages:
annotated commands and annotated expressions both trigger pre/post
functions; the monitor distinguishes them by the term it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.errors import EvalError, UnboundIdentifierError
from repro.languages.base import BaseLanguage
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.machine import Functional, Valuation
from repro.semantics.trampoline import Bounce, Done, Step, trampoline
from repro.semantics.values import PrimFun, Value, value_to_string
from repro.semantics.primitives import make_primitive, PRIMITIVE_TABLE
from repro.syntax.ast import Annotated, App, Const, Expr, If, Var


# Store ----------------------------------------------------------------------


class Store:
    """An immutable variable store: updates return new stores.

    Persistence keeps the semantics honestly functional (monitors may hold
    on to stores they were shown without seeing later mutations).
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Dict[str, Value]] = None) -> None:
        self._bindings = dict(bindings) if bindings else {}

    def lookup(self, name: str) -> Value:
        try:
            return self._bindings[name]
        except KeyError:
            raise UnboundIdentifierError(name) from None

    def update(self, name: str, value: Value) -> "Store":
        bindings = dict(self._bindings)
        bindings[name] = value
        return Store(bindings)

    def drop(self, name: str) -> "Store":
        bindings = dict(self._bindings)
        bindings.pop(name, None)
        return Store(bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def as_dict(self) -> Dict[str, Value]:
        return dict(self._bindings)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Store) and self._bindings == other._bindings

    def __hash__(self) -> int:  # pragma: no cover - stores aren't dict keys
        return hash(tuple(sorted(self._bindings)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={value_to_string(v)}" for k, v in sorted(self._bindings.items()))
        return f"<store {inner}>"


# Command syntax ---------------------------------------------------------------


@dataclass(frozen=True)
class Cmd:
    """Base class of ``L_imp`` commands."""

    def children(self) -> tuple:
        """Immediate sub-terms (commands and expressions), left to right."""
        raise NotImplementedError

    def walk(self):
        """This node and every descendant (commands *and* expressions)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


@dataclass(frozen=True)
class Skip(Cmd):
    def children(self) -> tuple:
        return ()


@dataclass(frozen=True)
class Assign(Cmd):
    name: str
    expr: Expr

    def children(self) -> tuple:
        return (self.expr,)


@dataclass(frozen=True)
class Seq(Cmd):
    first: Cmd
    second: Cmd

    def children(self) -> tuple:
        return (self.first, self.second)


@dataclass(frozen=True)
class IfC(Cmd):
    cond: Expr
    then_branch: Cmd
    else_branch: Cmd

    def children(self) -> tuple:
        return (self.cond, self.then_branch, self.else_branch)


@dataclass(frozen=True)
class While(Cmd):
    cond: Expr
    body: Cmd

    def children(self) -> tuple:
        return (self.cond, self.body)


@dataclass(frozen=True)
class Local(Cmd):
    """``local x = e in c``: a block-scoped variable."""

    name: str
    init: Expr
    body: Cmd

    def children(self) -> tuple:
        return (self.init, self.body)


@dataclass(frozen=True)
class Emit(Cmd):
    """``emit e``: append the value of ``e`` to the program's output list.

    Output is modeled inside the store under the reserved name
    ``__output__`` so the semantics stays pure.
    """

    expr: Expr

    def children(self) -> tuple:
        return (self.expr,)


@dataclass(frozen=True)
class AnnotatedCmd(Cmd):
    """``{mu}: c`` — the annotated command syntax of Section 4.1."""

    annotation: object
    body: Cmd

    def children(self) -> tuple:
        return (self.body,)


OUTPUT_KEY = "__output__"

Term = Union[Cmd, Expr]


def seq(*commands: Cmd) -> Cmd:
    """Right-nested sequencing of any number of commands."""
    if not commands:
        return Skip()
    result = commands[-1]
    for command in reversed(commands[:-1]):
        result = Seq(command, result)
    return result


def normalize_seq(command: Cmd) -> Cmd:
    """Canonical (right-nested, flattened) form of sequencing.

    ``;`` is associative, so ``Seq(Seq(a, b), c)`` and ``Seq(a, Seq(b, c))``
    denote the same computation; pretty-printing flattens sequences, so
    round-trip comparisons go through this normal form.  Sub-commands of
    structured commands are normalized recursively.
    """

    def flatten(node: Cmd, acc: list) -> None:
        if isinstance(node, Seq):
            flatten(node.first, acc)
            flatten(node.second, acc)
        else:
            acc.append(_normalize_children(node))

    parts: list = []
    flatten(command, parts)
    return seq(*parts)


def _normalize_children(command: Cmd) -> Cmd:
    if isinstance(command, IfC):
        return IfC(
            command.cond,
            normalize_seq(command.then_branch),
            normalize_seq(command.else_branch),
        )
    if isinstance(command, While):
        return While(command.cond, normalize_seq(command.body))
    if isinstance(command, Local):
        return Local(command.name, command.init, normalize_seq(command.body))
    if isinstance(command, AnnotatedCmd):
        return AnnotatedCmd(command.annotation, normalize_seq(command.body))
    return command


# Semantics --------------------------------------------------------------------


def imperative_functional(recur: Valuation) -> Valuation:
    """The valuation functional for ``L_imp``.

    One functional covers both syntactic categories, dispatching on the
    term's class; each category keeps its own continuation shape:

    * expressions: ``eval(expr, store, kont, ms)`` with ``kont(value, ms)``
    * commands:    ``eval(cmd, store, kont, ms)`` with ``kont(store', ms)``
    """

    def eval_term(term: Term, store: Store, kont, ms) -> Step:
        node_type = type(term)

        # Expressions ---------------------------------------------------------
        if node_type is Const:
            return Bounce(kont, (term.value, ms))

        if node_type is Var:
            return Bounce(kont, (store.lookup(term.name), ms))

        if node_type is If:

            def branch_kont(value, ms_inner) -> Step:
                if value is True:
                    return Bounce(recur, (term.then_branch, store, kont, ms_inner))
                if value is False:
                    return Bounce(recur, (term.else_branch, store, kont, ms_inner))
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}"
                )

            return Bounce(recur, (term.cond, store, branch_kont, ms))

        if node_type is App:

            def arg_kont(arg_value, ms_arg) -> Step:
                def fn_kont(fn_value, ms_fn) -> Step:
                    if isinstance(fn_value, PrimFun):
                        return Bounce(kont, (fn_value.apply(arg_value), ms_fn))
                    raise EvalError(
                        "L_imp expressions may only apply primitives, got "
                        f"{value_to_string(fn_value)!r}"
                    )

                return Bounce(recur, (term.fn, store, fn_kont, ms_arg))

            return Bounce(recur, (term.arg, store, arg_kont, ms))

        if node_type is Annotated:
            return Bounce(recur, (term.body, store, kont, ms))

        # Commands -----------------------------------------------------------
        if node_type is Skip:
            return Bounce(kont, (store, ms))

        if node_type is Assign:

            def assign_kont(value, ms_inner) -> Step:
                return Bounce(kont, (store.update(term.name, value), ms_inner))

            return Bounce(recur, (term.expr, store, assign_kont, ms))

        if node_type is Seq:

            def first_kont(store_after, ms_inner) -> Step:
                return Bounce(recur, (term.second, store_after, kont, ms_inner))

            return Bounce(recur, (term.first, store, first_kont, ms))

        if node_type is IfC:

            def cond_kont(value, ms_inner) -> Step:
                if value is True:
                    return Bounce(recur, (term.then_branch, store, kont, ms_inner))
                if value is False:
                    return Bounce(recur, (term.else_branch, store, kont, ms_inner))
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}"
                )

            return Bounce(recur, (term.cond, store, cond_kont, ms))

        if node_type is While:
            # while b do c  ==  if b then (c ; while b do c) else skip
            def cond_kont(value, ms_inner) -> Step:
                if value is True:

                    def body_kont(store_after, ms_body) -> Step:
                        return Bounce(recur, (term, store_after, kont, ms_body))

                    return Bounce(recur, (term.body, store, body_kont, ms_inner))
                if value is False:
                    return Bounce(kont, (store, ms_inner))
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}"
                )

            return Bounce(recur, (term.cond, store, cond_kont, ms))

        if node_type is Local:

            def init_kont(value, ms_inner) -> Step:
                had_outer = term.name in store
                outer_value = store.lookup(term.name) if had_outer else None
                inner_store = store.update(term.name, value)

                def body_kont(store_after, ms_body) -> Step:
                    if had_outer:
                        restored = store_after.update(term.name, outer_value)
                    else:
                        restored = store_after.drop(term.name)
                    return Bounce(kont, (restored, ms_body))

                return Bounce(recur, (term.body, inner_store, body_kont, ms_inner))

            return Bounce(recur, (term.init, store, init_kont, ms))

        if node_type is Emit:

            def emit_kont(value, ms_inner) -> Step:
                output = store.lookup(OUTPUT_KEY)
                return Bounce(
                    kont, (store.update(OUTPUT_KEY, output + (value,)), ms_inner)
                )

            return Bounce(recur, (term.expr, store, emit_kont, ms))

        if node_type is AnnotatedCmd:
            return Bounce(recur, (term.body, store, kont, ms))

        raise EvalError(
            f"term not part of L_imp: {node_type.__name__} "
            "(L_imp expressions are constants, variables, conditionals and "
            "primitive applications)"
        )

    return eval_term


# Language module ---------------------------------------------------------------


def initial_store() -> Store:
    """A store binding every primitive (callable from expressions) and the
    empty output."""
    bindings: Dict[str, Value] = {name: make_primitive(name) for name in PRIMITIVE_TABLE}
    bindings[OUTPUT_KEY] = ()
    return Store(bindings)


class ImperativeLanguage(BaseLanguage):
    """The ``L_imp`` language module.

    A *program* is a command; its answer is the pair
    ``(final variable bindings, output tuple)``.
    """

    name = "imperative"

    def functional(self) -> Functional:
        return imperative_functional

    def initial_context(self):
        return initial_store()

    def run_program(
        self,
        program: Cmd,
        eval_fn,
        *,
        answers: AnswerAlgebra = STANDARD_ANSWERS,
        ms=None,
        deadline: Optional[float] = None,
    ):
        def final_command_kont(final_store: Store, ms_final) -> Step:
            bindings = {
                name: value
                for name, value in final_store.as_dict().items()
                if name != OUTPUT_KEY and not isinstance(value, PrimFun)
            }
            output = final_store.lookup(OUTPUT_KEY)
            return Done((answers.phi((bindings, output)), ms_final))

        step = eval_fn(program, self.initial_context(), final_command_kont, ms)
        return trampoline(step, deadline=deadline)

    def parse(self, source: str) -> Cmd:
        """Parse ``L_imp`` surface syntax (see :mod:`repro.languages.imp_syntax`)."""
        from repro.languages.imp_syntax import parse_imp

        return parse_imp(source)


imperative = ImperativeLanguage()


# Expression helpers for building L_imp programs programmatically ----------------


def binop(op: str, left: Expr, right: Expr) -> Expr:
    return App(App(Var(op), left), right)


def var(name: str) -> Var:
    return Var(name)


def const(value) -> Const:
    return Const(value)
