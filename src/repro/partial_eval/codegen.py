"""Residual code generation: the ``codegen`` engine tier.

The second conventional approach the paper compares against is *monitoring
by program instrumentation* — and its punchline is that partial evaluation
produces the same artifact "uniformly ... rather than by using ad hoc code
instrumentation" (Section 9.1).  This module makes that artifact concrete:
it specializes the monitored interpreter with respect to a source program
and **emits the residual program as Python source** you can read, diff and
exec — the analogue of the residual Scheme that Schism produced for the
paper's benchmarks.

The generated code is in direct style, A-normal form: every intermediate
value gets a fresh single-assignment temporary, which keeps the
interpreter's exact evaluation order (argument before operator, monitor
hooks in evaluation sequence) while letting the host run at native Python
speed — this is the specialization level whose measured speedups
reproduce the paper's "85% faster than the monitored interpreter" claim.
Beyond plain ANF, the generator performs the optimizations a specializer
gets for free: saturated primitive applications become direct calls,
``let`` bindings become compile-time aliases, conditionals test the
boolean inline, and calls to statically-known residual functions skip the
generic apply dispatch.

Monitoring actions appear in the residual code as explicit ``c = _pre(site,
ctx)`` / ``_post(site, ctx, value, c)`` calls — literally "extra code to
perform the monitoring actions ... 'embedded' into the program"
(Abstract).  ``ctx`` is the site's locals, ``c`` names the claimant whose
``pre`` ran, and ``site`` is the node's pre-order site id, the id of trace
events and of the flow verdict, indexing the one
:class:`~repro.monitoring.sites.SiteTable` the recorder and the trace
fold use too.  Unclaimed annotations, and sites a flow verdict proved
unreachable, are erased at generation time (obliviousness, Definition
7.1, for free).  ``_pre``/``_post`` are the run's
:class:`~repro.monitoring.sites.SiteBinding`, which threads monitor
states through one dict; since evaluation is sequential, this is
observationally identical to the pure state-passing of the semantics,
and the test suite checks answer *and* final-state agreement with the
interpreter for every toolbox monitor.

This module also backs ``engine="codegen"`` (see
:mod:`repro.monitoring.derive`), which calls :meth:`GeneratedProgram.run`
with the run options the other engines take: ``initial_ms`` seeds the
monitor state vector, ``monitors`` supplies the run's own (possibly
telemetry-wrapped) specs, ``fault_log`` takes the faults the residual
hooks catch (quarantine/log), and ``max_steps``, ``deadline`` and
``metrics`` run the *counted* variant: the same collapsed code, with
each straight-line region charging the nodes the reference interpreter
evaluates there into a per-run step cell on entry.  That count is
``RunMetrics.steps`` and the unit of ``max_steps`` on both engines.
When the cell runs out, one slow-path call (:meth:`ResidualRuntime.over`)
enforces the budget and the deadline and refills it.

Residual programs recurse on the host stack; :meth:`GeneratedProgram.run`
raises the recursion limit for the duration of a run and raises
:class:`~repro.errors.HostRecursionError` past it (the trampolined
reference interpreter remains the tool for unboundedly deep programs, and
``run_monitored`` falls back to it where the re-run is unobservable).
Every generated ``def`` body is a region of at least one node, so any
recursion (the language's only loop) is bounded, while the plain
variant pays nothing.
"""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import contextmanager
from functools import partial
from time import perf_counter
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    EvalError,
    EvaluationTimeout,
    HostRecursionError,
    NotAFunctionError,
    StepLimitExceeded,
    UnboundIdentifierError,
)
from repro.monitoring.compose import MonitorLike, flatten_monitors, validate_observations
from repro.monitoring.derive import check_disjoint
from repro.monitoring.sites import SiteBinding, SiteTable, site_key
from repro.monitoring.spec import MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.env import Environment
from repro.semantics.primitives import PRIMITIVE_TABLE, initial_environment
from repro.semantics.trampoline import STEP_BATCH
from repro.semantics.values import (
    NIL,
    PrimFun,
    register_code_display,
    value_to_string,
)
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

_IDENT_SAFE = {
    "'": "_q",
    "!": "_b",
    "?": "_p",
    "-": "_d",
}

#: Python-level names for the primitives (direct, saturated call sites).
_PRIM_PY_NAMES = {
    name: f"_p{index}" for index, name in enumerate(sorted(PRIMITIVE_TABLE))
}


def _mangle(name: str) -> str:
    safe = "".join(_IDENT_SAFE.get(ch, ch) for ch in name)
    return f"v_{safe}"


def _bind(scope: Dict[str, str], frame: Dict[str, str]) -> Dict[str, str]:
    """``scope`` under one more frame, ordered as ``Environment.names()``.

    Innermost names come first and a shadowed name appears once, so a
    site's locals literal — and the hook context built from it — lists
    names the way the reference interpreter's environment does.
    """
    return {**frame, **{name: py for name, py in scope.items() if name not in frame}}


# The host recursion limit is process-global, so concurrent runs (callers
# may drive one compiled artifact from many threads) must not
# save/restore it independently — a nesting counter raises it once and
# restores it when the last run exits.
_RECLIMIT_LOCK = threading.Lock()
_RECLIMIT_DEPTH = 0
_RECLIMIT_SAVED = 0


def _acquire_recursion_limit(limit: int) -> None:
    global _RECLIMIT_DEPTH, _RECLIMIT_SAVED
    with _RECLIMIT_LOCK:
        if _RECLIMIT_DEPTH == 0:
            _RECLIMIT_SAVED = sys.getrecursionlimit()
        _RECLIMIT_DEPTH += 1
        if limit > sys.getrecursionlimit():
            sys.setrecursionlimit(limit)


def _release_recursion_limit() -> None:
    global _RECLIMIT_DEPTH
    with _RECLIMIT_LOCK:
        _RECLIMIT_DEPTH -= 1
        if _RECLIMIT_DEPTH == 0:
            sys.setrecursionlimit(_RECLIMIT_SAVED)


class ResidualRuntime:
    """The runtime the generated module links against.

    Carries the primitive implementations, the apply/error helpers, the
    run's :class:`~repro.monitoring.sites.SiteBinding`, whose hooks the
    residual calls with a site's context (``env`` over ``top``), and the
    run's step budget.  One runtime instance per run, so the generated
    code itself is immutable and thread-reusable (the compilation cache
    relies on this).
    """

    #: The empty list value, read by generated code.
    nil = NIL
    env = Environment
    top = initial_environment()
    prims = top.frame

    def __init__(
        self,
        binding: SiteBinding,
        locations: Sequence,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.binding = binding
        self.locations = locations
        self.max_steps = max_steps
        self.deadline = deadline
        #: The counted entry's charges are ``steps * weight + applications``;
        #: ``settle`` splits what the cell took since ``granted``.
        self.steps = self.applications = self.granted = 0
        self.weight = 1
        self.read = None  # () -> the step cell, set by the counted entry

    def settle(self, cell: int) -> None:
        """Add what the cell took since the last settle to the counts."""
        steps, applications = divmod(self.granted - cell, self.weight)
        self.granted = cell
        self.steps += steps
        self.applications += applications

    def over(self, cell: int) -> int:
        """The slow path of a negative step cell: enforce, then refill.

        The deadline is read once every :data:`STEP_BATCH` steps, as the
        trampoline reads it.  A charge's applications never reach the
        weight, so the refilled cell goes negative on the first charge
        that takes the steps past the batch or past ``max_steps``.
        """
        self.settle(cell)
        steps = self.steps
        max_steps = self.max_steps
        if max_steps is not None and steps > max_steps:
            raise StepLimitExceeded(max_steps, consumed=steps)
        if self.deadline is not None and perf_counter() >= self.deadline:
            raise EvaluationTimeout()
        batch = STEP_BATCH if max_steps is None else min(STEP_BATCH, max_steps - steps)
        self.granted = (batch + 1) * self.weight - 1
        return self.granted

    # -- helpers referenced from generated code --------------------------------

    @staticmethod
    def apply(fn, arg):
        # Residual closures are plain Python functions — the common case
        # gets one exact type check before the general dispatch.
        if type(fn) is FunctionType:
            return fn(arg)
        if isinstance(fn, PrimFun):
            return fn.apply(arg)
        if callable(fn):
            return fn(arg)
        raise NotAFunctionError(
            f"attempt to apply non-function value {value_to_string(fn)!r}"
        )

    def bool_err(self, value, loc_id: int):
        """A non-boolean conditional — same message/location as Figure 2."""
        raise EvalError(
            f"condition evaluated to non-boolean {value_to_string(value)!r}",
            self.locations[loc_id],
        )

    @staticmethod
    def unbound(name: str):
        """A free identifier, faulting lazily at its evaluation point."""
        raise UnboundIdentifierError(name)


class _Emitter:
    """Accumulates indented source lines.

    A line emitted ``counted=True`` belongs to the counted variant alone;
    :meth:`source` keeps it when asked for that variant.
    """

    def __init__(self) -> None:
        self.lines: List[Optional[str]] = []
        self.counted: set = set()
        self.indent = 0

    def emit(self, line: Optional[str], counted: bool = False) -> None:
        if counted:
            self.counted.add(len(self.lines))
        self.lines.append(None if line is None else "    " * self.indent + line)

    @contextmanager
    def block(self):
        self.indent += 1
        try:
            yield
        finally:
            self.indent -= 1

    def source(self, counted: bool = False) -> str:
        only_counted = self.counted
        # Unfilled charge placeholders (empty regions) leave no trace.
        kept = (
            line
            for index, line in enumerate(self.lines)
            if line is not None and (counted or index not in only_counted)
        )
        return "\n".join(kept) + "\n"


#: Binary primitives whose behavior on two exact-``int`` operands is a
#: plain Python operator: ``values_equal``/``_compare``/arithmetic all
#: reduce to ``==``/``<``/``+``… when both sides have ``type(x) is int``
#: (``bool`` is excluded by the exact type check, keeping ``true /= 1``).
#: The generated code guards on that and falls back to the full primitive.
_INLINE_INT_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "=": "==",
    "/=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _unannotated(expr: Expr) -> Expr:
    """``expr`` under its annotation layers (the letrec knot strips them)."""
    while isinstance(expr, Annotated):
        expr = expr.body
    return expr


def _is_int_literal(atom: str) -> bool:
    """Whether a generated atom is an integer literal (repr of an int)."""
    return atom.lstrip("-").isdigit()


class _Generator:
    """ANF generator for one (program, monitor stack) pair.

    One pass emits both code variants.  The counted variant starts
    every straight-line region (a def body, an ``if`` branch, the code
    after an ``if``) with a charge of the nodes the reference
    interpreter evaluates there, ``_n -= steps * weight + applications``
    on the step cell, and the slow-path call when the cell goes
    negative; every collapse rule charges the nodes it folds away.
    :meth:`GeneratedProgram.run` execs a variant lazily, so the plain
    fast path stays call-free.
    """

    def __init__(self, table: SiteTable) -> None:
        self.table = table
        #: Pre-order ids of the sites whose hooks were emitted.
        self.sites: List[int] = []
        self.locations: List[object] = []
        self.counter = itertools.count()
        self.emitter = _Emitter()
        #: Every straight-line region, ``[charge line, indent, steps,
        #: applications]``, and the open one.
        self.regions: List[list] = []
        self._region: Optional[list] = None
        #: Python names statically known to be residual functions —
        #: applications through them skip the generic ``_apply`` dispatch.
        self.known_fns: set = set()
        #: Known functions whose *result* is again a residual function
        #: (their body is a lambda): applying what they return can also
        #: skip ``_apply`` — the curried ``lambda i. lambda acc.`` shape.
        self.fn_returns_fn: set = set()
        #: Single-assignment temps currently known to hold residual
        #: functions (results of calls through ``fn_returns_fn``).
        self.callable_atoms: set = set()
        #: def name -> render string, registered against the exec'd code
        #: objects once per program (no per-closure setattr at run time).
        self.displays: Dict[str, str] = {}

    def fresh(self, base: str = "t") -> str:
        return f"_{base}{next(self.counter)}"

    def _loc(self, location) -> int:
        self.locations.append(location)
        return len(self.locations) - 1

    # -- step charges -------------------------------------------------------------
    #
    # A region is entered at its first line and, in a run that completes,
    # left at its last, so every node whose evaluation starts in it is
    # evaluated exactly once per entry: its count can be paid up front.

    def _open_region(self) -> list:
        emitter = self.emitter
        emitter.emit(None, counted=True)  # filled in by _fill_charges
        self._region = [len(emitter.lines) - 1, emitter.indent, 0, 0]
        self.regions.append(self._region)
        return self._region

    @staticmethod
    def _hoist(test: list, then: list, orelse: list) -> None:
        """Charge before the test what both branches charge on entry,
        keeping every charge's applications within its steps."""
        applications = min(then[3], orelse[3])
        steps = applications + min(then[2] - then[3], orelse[2] - orelse[3])
        test[2] += steps
        test[3] += applications
        for branch in (then, orelse):
            branch[2] -= steps
            branch[3] -= applications

    def _fill_charges(self, start_line: int) -> None:
        """Write each region's charge and the cell's start; the weight
        exceeds the steps a refill's batch and one charge can spend."""
        lines = self.emitter.lines
        weight = STEP_BATCH + 1 + max(region[2] for region in self.regions)
        lines[start_line] = f"    _rt.weight = {weight}\n    _n = _rt.over(0)"
        for line, indent, steps, applications in self.regions:
            if steps:
                pad = "    " * indent
                lines[line] = (
                    f"{pad}_n -= {steps * weight + applications}\n"
                    f"{pad}if _n < 0: _n = _rt.over(_n)"
                )

    def _charge(self, steps: int, applications: int = 0) -> None:
        """Account for nodes the reference interpreter evaluates here."""
        region = self._region
        region[2] += steps
        region[3] += applications

    # -- expression generation ---------------------------------------------------
    #
    # gen(expr, scope) emits statements computing expr and returns a Python
    # *atom* (a name or literal) holding its value.  ``scope`` maps source
    # names to generated Python atoms, innermost binding first (_bind).

    def gen(self, expr: Expr, scope: Dict[str, str]) -> str:
        node_type = type(expr)

        if node_type is Const:
            self._charge(1)
            return repr(expr.value)

        if node_type is Var:
            self._charge(1)
            name = expr.name
            if name in scope:
                return scope[name]
            if name == "nil":
                return "_nil"
            if name in PRIMITIVE_TABLE:
                return f"_prim_{_PRIM_PY_NAMES[name][2:]}"
            # Free identifier: fault lazily, at the reference engine's
            # evaluation point — dead branches must not fault.
            out = self.fresh()
            self.emitter.emit(f"{out} = _ub({name!r})")
            return out

        if node_type is Lam:
            self._charge(1)
            return self._gen_function(expr.param, expr.body, scope, display=None)

        if node_type is If:
            return self._gen_if(expr, scope)

        if node_type is App:
            return self._gen_app(expr, scope)

        if node_type is Let:
            self._charge(1)
            bound_atom = self.gen(expr.bound, scope)
            # A let binding is a compile-time alias: the bound atom is a
            # single-assignment temp or literal, so no runtime copy exists.
            return self.gen(expr.body, _bind(scope, {expr.name: bound_atom}))

        if node_type is Letrec:
            self._charge(1)
            py_names = {
                name: _mangle(name) + f"_{next(self.counter)}"
                for name, _ in expr.bindings
            }
            inner = _bind(scope, py_names)
            # The defs all execute before any body runs, so every binding
            # is a known function to every (mutually recursive) body.
            self.known_fns.update(py_names.values())
            for name, bound in expr.bindings:
                if isinstance(_unannotated(_unannotated(bound).body), Lam):
                    self.fn_returns_fn.add(py_names[name])
            for name, bound in expr.bindings:
                lam = _unannotated(bound)
                assert isinstance(lam, Lam)
                # Figure 2 builds the recursive Fun values directly, so
                # the bound lambdas are not separately counted nodes.
                self._gen_function(
                    lam.param,
                    lam.body,
                    inner,
                    display=f"<fun {name}>",
                    fn_name=py_names[name],
                )
            return self.gen(expr.body, inner)

        if node_type is Annotated:
            return self._gen_annotated(expr, scope)

        raise TypeError(f"unknown expression node: {node_type.__name__}")

    def _gen_function(
        self,
        param: str,
        body: Expr,
        scope: Dict[str, str],
        *,
        display: Optional[str],
        fn_name: Optional[str] = None,
    ) -> str:
        """Emit one residual ``def`` and return its Python name."""
        emitter = self.emitter
        if fn_name is None:
            fn_name = self.fresh("fn")
        param_py = _mangle(param) + f"_{next(self.counter)}"
        emitter.emit(f"def {fn_name}({param_py}):")
        self.known_fns.add(fn_name)
        if isinstance(_unannotated(body), Lam):
            self.fn_returns_fn.add(fn_name)
        inner = _bind(scope, {param: param_py})
        outer_region = self._region
        with emitter.block():
            emitter.emit("nonlocal _n", counted=True)
            self._open_region()
            result = self.gen(body, inner)
            emitter.emit(f"return {result}")
        self._region = outer_region
        # The display string makes the residual function render exactly
        # like the reference Closure (answer/error-message parity).  It is
        # keyed by the def's code object after exec — emitting a setattr
        # here would re-run on every closure creation.
        self.displays[fn_name] = display if display is not None else f"<fun {param}>"
        return fn_name

    def _gen_if(self, expr: If, scope: Dict[str, str]) -> str:
        self._charge(1)
        emitter = self.emitter
        cond_atom = self.gen(expr.cond, scope)
        test_region = self._region
        if not cond_atom.isidentifier():
            # A literal condition would make ``is`` warn; name it first.
            named = self.fresh()
            emitter.emit(f"{named} = {cond_atom}")
            cond_atom = named
        out = self.fresh()
        loc = self._loc(expr.location)
        emitter.emit(f"if {cond_atom} is True:")
        with emitter.block():
            then_region = self._open_region()
            then_atom = self.gen(expr.then_branch, scope)
            emitter.emit(f"{out} = {then_atom}")
        emitter.emit(f"elif {cond_atom} is False:")
        with emitter.block():
            else_region = self._open_region()
            else_atom = self.gen(expr.else_branch, scope)
            emitter.emit(f"{out} = {else_atom}")
        emitter.emit("else:")
        with emitter.block():
            emitter.emit(f"{out} = _be({cond_atom}, {loc})")
        self._hoist(test_region, then_region, else_region)
        self._open_region()
        return out

    def _static_primitive(self, expr: Expr, scope: Dict[str, str]) -> Optional[str]:
        """The primitive name ``expr`` statically denotes, if unshadowed."""
        if type(expr) is Var and expr.name not in scope and expr.name in PRIMITIVE_TABLE:
            return expr.name
        return None

    def _gen_app(self, expr: App, scope: Dict[str, str]) -> str:
        self._charge(1, 1)
        # Saturated primitive applications become direct calls; the
        # operator variable is charged without being generated.
        unary = self._static_primitive(expr.fn, scope)
        if unary is not None and PRIMITIVE_TABLE[unary][0] == 1:
            self._charge(1)
            arg_atom = self.gen(expr.arg, scope)
            out = self.fresh()
            self.emitter.emit(f"{out} = {_PRIM_PY_NAMES[unary]}({arg_atom})")
            return out

        if type(expr.fn) is App:
            binary = self._static_primitive(expr.fn.fn, scope)
            if binary is not None and PRIMITIVE_TABLE[binary][0] == 2:
                # The inner App and the operator variable fold away.
                self._charge(2, 1)
                # Figure 2 order: outer argument (right operand) first.
                right_atom = self.gen(expr.arg, scope)
                left_atom = self.gen(expr.fn.arg, scope)
                out = self.fresh()
                op = _INLINE_INT_BINOPS.get(binary)
                if op is not None:
                    # Int/int operands reduce to the Python operator;
                    # anything else takes the full primitive (type
                    # checks, error messages) through the fallback arm.
                    guards = [
                        f"type({atom}) is int"
                        for atom in (left_atom, right_atom)
                        if not _is_int_literal(atom)
                    ]
                    fast = f"{left_atom} {op} {right_atom}"
                    if not guards:
                        self.emitter.emit(f"{out} = {fast}")
                    else:
                        self.emitter.emit(
                            f"{out} = {fast} if {' and '.join(guards)} else "
                            f"{_PRIM_PY_NAMES[binary]}({left_atom}, {right_atom})"
                        )
                    return out
                self.emitter.emit(
                    f"{out} = {_PRIM_PY_NAMES[binary]}({left_atom}, {right_atom})"
                )
                return out

        # A statically-known residual function: call it directly.  The
        # operator is a pure variable reference, so evaluating the
        # argument first (Figure 2 order) is preserved.
        if type(expr.fn) is Var and scope.get(expr.fn.name) in self.known_fns:
            self._charge(1)
            fn_py = scope[expr.fn.name]
            arg_atom = self.gen(expr.arg, scope)
            out = self.fresh()
            self.emitter.emit(f"{out} = {fn_py}({arg_atom})")
            if fn_py in self.fn_returns_fn:
                self.callable_atoms.add(out)
            return out

        # General application: argument before operator, as in Figure 2.
        arg_atom = self.gen(expr.arg, scope)
        fn_atom = self.gen(expr.fn, scope)
        out = self.fresh()
        if fn_atom in self.known_fns or fn_atom in self.callable_atoms:
            # The operator atom is statically a residual function (a
            # just-generated def, or the result of a curried known call):
            # apply it natively.
            self.emitter.emit(f"{out} = {fn_atom}({arg_atom})")
        else:
            self.emitter.emit(f"{out} = _apply({fn_atom}, {arg_atom})")
        return out

    def _gen_annotated(self, expr: Annotated, scope: Dict[str, str]) -> str:
        self._charge(1)
        site_id = self.table.index[site_key(expr.annotation, expr.body)].site_id
        if self.table.claims[site_id] is None:
            # Unrecognized annotation, or a site the flow analysis proved
            # unreachable: erased at specialization time.
            return self.gen(expr.body, scope)
        self.sites.append(site_id)
        # One context per activation, passed to both hooks.
        context = self.fresh("ctx")
        self.emitter.emit(
            "%s = _env({%s}, _top)"
            % (context, ", ".join(f"{src!r}: {py}" for src, py in scope.items()))
        )
        token = self.fresh()
        self.emitter.emit(f"{token} = _pre({site_id}, {context})")
        body_atom = self.gen(expr.body, scope)
        out = self.fresh()
        self.emitter.emit(f"{out} = _post({site_id}, {context}, {body_atom}, {token})")
        return out

    # -- whole program ------------------------------------------------------------

    def generate_module(self, program: Expr) -> None:
        emitter = self.emitter
        emitter.emit('"""Residual instrumented program (generated).')
        emitter.emit("")
        emitter.emit("Produced by repro.partial_eval.codegen: the monitored")
        emitter.emit("interpreter specialized with respect to the source program.")
        emitter.emit('"""')
        emitter.emit("")
        emitter.emit("def _program(_rt):")
        with emitter.block():
            emitter.emit("_apply = _rt.apply")
            emitter.emit("_pre = _rt.binding.pre")
            emitter.emit("_post = _rt.binding.post")
            emitter.emit("_env = _rt.env")
            emitter.emit("_top = _rt.top")
            emitter.emit("_nil = _rt.nil")
            emitter.emit("_be = _rt.bool_err")
            emitter.emit("_ub = _rt.unbound")
            emitter.emit(None, counted=True)  # the cell's start
            start_line = len(emitter.lines) - 1
            emitter.emit("_rt.read = lambda: _n", counted=True)
            used = sorted(self._primitives_used(program))
            for name in used:
                emitter.emit(f"{_PRIM_PY_NAMES[name]} = _rt.prims[{name!r}].fn")
                emitter.emit(f"_prim_{_PRIM_PY_NAMES[name][2:]} = _rt.prims[{name!r}]")
            self._open_region()
            result = self.gen(program, {})
            emitter.emit(f"return {result}")
        self._fill_charges(start_line)

    @staticmethod
    def _primitives_used(program: Expr) -> set:
        used = set()
        bound: set = set()

        def walk(expr: Expr, shadowed: frozenset) -> None:
            node_type = type(expr)
            if node_type is Var:
                if expr.name not in shadowed and expr.name in PRIMITIVE_TABLE:
                    used.add(expr.name)
                return
            if node_type is Lam:
                walk(expr.body, shadowed | {expr.param})
                return
            if node_type is Let:
                walk(expr.bound, shadowed)
                walk(expr.body, shadowed | {expr.name})
                return
            if node_type is Letrec:
                names = frozenset(name for name, _ in expr.bindings)
                for _, bound_expr in expr.bindings:
                    walk(bound_expr, shadowed | names)
                walk(expr.body, shadowed | names)
                return
            for child in expr.children():
                walk(child, shadowed)

        walk(program, frozenset(bound))
        return used


class GeneratedProgram:
    """A residual instrumented program: source + executable form.

    Generation is pure: the exec'd entry closes over nothing mutable, so
    one ``GeneratedProgram`` may run any number of times and from any
    number of threads concurrently — each :meth:`run` builds a fresh
    :class:`ResidualRuntime` carrying that run's specs, monitor states,
    fault log and step budget, and the step cell lives in that run's
    frame.  The compilation cache shares one artifact across every run
    that hits it, from any thread, and across metrics-on and metrics-off
    runs, on this basis.

    ``source`` is the plain variant.  Each variant (plain, counted) is
    exec'd on its first use, once.  ``table`` is the
    (program, stack) :class:`~repro.monitoring.sites.SiteTable` the
    generated ``_pre``/``_post`` site ids index; ``sites`` are the ids
    of the sites whose hooks the source calls.
    """

    def __init__(
        self,
        source: str,
        table: SiteTable,
        sites: Sequence[int],
        monitors: Tuple[MonitorSpec, ...],
        locations: Sequence,
        variant_factory: Callable[[bool], Callable],
    ) -> None:
        self.source = source
        self.table = table
        self.sites = tuple(sites)
        self.monitors = monitors
        self._locations = tuple(locations)
        self._variant_factory = variant_factory
        #: counted -> entry.
        self._variants: Dict[bool, Callable] = {}
        self._variant_lock = threading.Lock()

    def _resolve_entry(self, counted: bool) -> Callable:
        """The entry of one code variant, exec'd on its first use."""
        entry = self._variants.get(counted)
        if entry is None:
            with self._variant_lock:
                entry = self._variants.get(counted)
                if entry is None:
                    entry = self._variant_factory(counted)
                    self._variants[counted] = entry
        return entry

    def run(
        self,
        *,
        answers: AnswerAlgebra = STANDARD_ANSWERS,
        initial_ms=None,
        monitors: Optional[Sequence[MonitorSpec]] = None,
        max_steps: Optional[int] = None,
        fault_log=None,
        deadline: Optional[float] = None,
        metrics: Optional[RunMetrics] = None,
        recursion_limit: int = 100_000,
    ):
        """Execute, returning ``(answer, MonitorStateVector)``.

        ``initial_ms`` seeds the monitor state vector (as the other
        engines' ``run`` does); ``monitors`` replaces the specs for this
        run with same-keyed ones; ``fault_log`` isolates this run's hook
        faults (see :class:`~repro.monitoring.sites.SiteBinding`).  Any
        of ``max_steps``, ``deadline`` (a ``perf_counter`` timestamp) and
        ``metrics`` runs the counted variant, whose step count bounds
        the run and is added to ``metrics``.
        """
        specs = self.monitors if monitors is None else tuple(monitors)
        # A hook's RecursionError is the host stack overflowing, not a
        # monitor fault: it escapes as HostRecursionError below.
        binding = SiteBinding(
            self.table, specs, fault_log, initial_ms=initial_ms, reraise=(RecursionError,)
        )
        runtime = ResidualRuntime(binding, self._locations, max_steps, deadline)
        counted = max_steps is not None or deadline is not None or metrics is not None
        entry = self._resolve_entry(counted)
        _acquire_recursion_limit(recursion_limit)
        try:
            value = entry(runtime)
        except RecursionError:
            raise HostRecursionError(recursion_limit) from None
        finally:
            _release_recursion_limit()
            if metrics is not None and runtime.read is not None:
                runtime.settle(runtime.read())
                metrics.steps += runtime.steps
                metrics.applications += runtime.applications
        return answers.phi(value), MonitorStateVector(binding.states)

    def evaluate(self, **kwargs):
        answer, _ = self.run(**kwargs)
        return answer

    def report(self, monitor: "MonitorSpec | str"):
        _, states = self.run()
        key = monitor if isinstance(monitor, str) else monitor.key
        spec = next(m for m in self.monitors if m.key == key)
        return spec.report(states.get(key))

    @property
    def site_count(self) -> int:
        return len(self.sites)


def _register_displays(entry: Callable, displays: Dict[str, str]) -> None:
    """Key each generated def's render string by its exec'd code object.

    Generated def names are unique within one program (the fresh-name
    counter), so walking the nested code objects of the entry function
    pairs every def with its display exactly once — run time then pays
    nothing per closure creation.
    """
    stack = [entry.__code__]
    while stack:
        code = stack.pop()
        display = displays.get(code.co_name)
        if display is not None:
            register_code_display(code, display)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                stack.append(const)


def _exec_variant(generator: _Generator, counted: bool) -> Callable:
    """Exec one code variant of a generated module; return its entry."""
    source = generator.emitter.source(counted)
    namespace: Dict[str, object] = {}
    exec(compile(source, "<residual>", "exec"), namespace)  # noqa: S102
    entry = namespace["_program"]
    _register_displays(entry, generator.displays)
    return entry


def generate_program(
    program: Expr,
    monitors: MonitorLike = (),
    *,
    check_disjointness: bool = True,
    flow=None,
) -> GeneratedProgram:
    """Specialize and emit ``program`` as residual Python source.

    The result serves every run of ``program`` under this stack: plain,
    bounded and metrics-on runs all execute the same collapsed code.

    ``flow`` (a :class:`~repro.analysis.flow.FlowAnalysis` for the same
    program x stack) erases monitoring hooks at the site ids the analysis
    proved unreachable.  Observable behavior is unchanged — erased code
    can never run.
    """
    monitor_list = flatten_monitors(monitors)
    validate_observations(monitor_list)
    if check_disjointness:
        check_disjoint(monitor_list, program)
    erased = flow.erasable_sites if flow is not None else frozenset()
    table = SiteTable(program, monitor_list, erased=erased)
    generator = _Generator(table)
    generator.generate_module(program)
    return GeneratedProgram(
        generator.emitter.source(),
        table,
        generator.sites,
        tuple(monitor_list),
        generator.locations,
        partial(_exec_variant, generator),
    )
