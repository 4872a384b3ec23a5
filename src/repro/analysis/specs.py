"""Static inspection of monitor specifications (``REP30x`` / ``REP31x``).

The paper verifies a monitor specification is well-formed "by inspecting
the type of the monitor" (Section 9.2).  This pass is the Python stand-in:

* **arity checks** via :func:`inspect.signature` — ``pre`` must accept
  ``(annotation, term, ctx, state)`` (``REP301``), ``post`` adds the
  intermediate ``result`` (``REP302``), ``recognize`` takes one
  annotation (``REP303``); observing monitors additionally take the
  ``inner`` states mapping;
* **soundness red flags** via a source/AST scan of the hook bodies —
  in-place mutation reached through a hook parameter (``REP304``) and
  writes to ``global``/``nonlocal`` captured state (``REP305``).  Both
  break the purity discipline Theorem 7.7's soundness argument rests on
  (monitoring functions are ``MS -> MS``).

The scan is a *taint heuristic*, tuned so every monitor in the toolbox
passes clean: hook parameters are tainted; assigning a call result
(``updated = dict(state)``) produces a fresh, untainted local; only
subscript/attribute stores and mutator-method calls on tainted names are
flagged.  It cannot see through helper functions — the dynamic probe
pass (``REP31x``, folded in from ``monitoring/validate``) covers part of
that gap at ``repro check`` time.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from functools import lru_cache
from types import CodeType
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.monitoring.spec import FunctionSpec, MonitorSpec

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: ``validate_monitor`` probe findings -> stable diagnostic codes.
PROBE_CODES = {
    "key": "REP310",
    "recognize": "REP311",
    "initial_state": "REP312",
    "report": "REP313",
    "run": "REP314",
    "purity": "REP315",
}


# -- arity checks ------------------------------------------------------------


def _bind_ok(func, arg_count: int, keywords: Sequence[str] = ()) -> Optional[str]:
    """None if ``func`` accepts ``arg_count`` positionals, else the error."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return None  # C-level or otherwise opaque: nothing to check
    try:
        signature.bind(*([None] * arg_count), **{k: None for k in keywords})
    except TypeError as exc:
        return str(exc)
    return None


def _hook_callables(monitor: MonitorSpec) -> List[Tuple[str, object, int]]:
    """``(hook name, callable, expected positional arity)`` per hook.

    For :class:`FunctionSpec` the stored raw callables are inspected
    (the wrapper methods always have the right shape); for class-based
    specs the bound methods themselves are.
    """
    observing = 1 if monitor.observes else 0
    if isinstance(monitor, FunctionSpec):
        hooks: List[Tuple[str, object, int]] = []
        if monitor._recognize is not None:
            hooks.append(("recognize", monitor._recognize, 1))
        if monitor._pre is not None:
            hooks.append(("pre", monitor._pre, 4 + observing))
        if monitor._post is not None:
            hooks.append(("post", monitor._post, 5 + observing))
        return hooks
    return [
        ("recognize", monitor.recognize, 1),
        ("pre", monitor.pre, 4 + observing),
        ("post", monitor.post, 5 + observing),
    ]


_ARITY_CODES = {"pre": "REP301", "post": "REP302", "recognize": "REP303"}

_ARITY_SHAPES = {
    "pre": "(annotation, term, ctx, state)",
    "post": "(annotation, term, ctx, result, state)",
    "recognize": "(annotation)",
}


def _check_arities(monitor: MonitorSpec) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for hook, func, arity in _hook_callables(monitor):
        problem = _bind_ok(func, arity)
        if problem is None:
            continue
        shape = _ARITY_SHAPES[hook]
        if monitor.observes and hook != "recognize":
            shape = shape[:-1] + ", inner)"
        diagnostics.append(
            Diagnostic(
                code=_ARITY_CODES[hook],
                severity="error",
                message=f"{hook} of monitor {monitor.key!r} does not accept "
                f"the calling convention {shape}: {problem}",
                subject=f"{monitor.key}.{hook}",
                hint="match the MFun functionalities of Definition 5.1; "
                "extra parameters need defaults",
            )
        )
    return diagnostics


# -- purity scan -------------------------------------------------------------


def _parse_hook(func) -> Optional[ast.AST]:
    """Best-effort AST of ``func``'s definition (FunctionDef or Lambda).

    Memoized per code object: every monitor built from the same hook
    definition shares one parse, however many linted requests name it.
    """
    func = inspect.unwrap(getattr(func, "__func__", func))
    code = getattr(func, "__code__", None)
    return None if code is None else _parse_code(code)


@lru_cache(maxsize=1024)
def _parse_code(code: CodeType) -> Optional[ast.AST]:
    try:
        source = textwrap.dedent(inspect.getsource(code))
    except (OSError, TypeError):
        return None
    tree = None
    for candidate in (
        source,
        source.strip(),
        source.strip().rstrip(","),
        "(" + source.strip().rstrip(",") + ")",
    ):
        try:
            tree = ast.parse(candidate)
            break
        except SyntaxError:
            continue
    if tree is None:
        return None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return node
    return None


def _param_names(node: ast.AST) -> Set[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n != "self"}


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _value_taints(value: ast.AST, tainted: Set[str]) -> bool:
    """Does binding ``value`` to a name keep the taint?

    A bare tainted name (aliasing) or a slice/attribute of one taints the
    new name; a *call* result (``dict(state)``, ``state.copy()``) is a
    fresh object and does not.
    """
    if isinstance(value, ast.Call):
        return False
    root = _root_name(value)
    return root is not None and root in tainted


class _PurityScanner:
    def __init__(self, params: Set[str]) -> None:
        self.tainted: Set[str] = set(params)
        self.declared: Set[str] = set()  # global / nonlocal names
        self.findings: List[Tuple[str, str]] = []  # (kind, detail)

    # statements ------------------------------------------------------------

    def run(self, node: ast.AST) -> None:
        if isinstance(node, ast.Lambda):
            self._expr(node.body)
        else:
            self._body(node.body)

    def _body(self, statements: Iterable[ast.stmt]) -> None:
        for statement in statements:
            self._statement(statement)

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            self.declared.update(node.names)
        elif isinstance(node, ast.Assign):
            self._expr(node.value)
            for target in node.targets:
                self._store(target, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._expr(node.value)
                self._store(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            self._expr(node.value)
            self._store(node.target, None, augmented=True)
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
        elif isinstance(node, (ast.Return,)):
            if node.value is not None:
                self._expr(node.value)
        elif isinstance(node, (ast.If, ast.For, ast.While, ast.With)):
            for field in ("test", "iter"):
                value = getattr(node, field, None)
                if value is not None:
                    self._expr(value)
            self._body(getattr(node, "body", ()))
            self._body(getattr(node, "orelse", ()))
        elif isinstance(node, ast.Try):
            self._body(node.body)
            for handler in node.handlers:
                self._body(handler.body)
            self._body(node.orelse)
            self._body(node.finalbody)
        # other statement kinds carry no writes we track

    def _store(
        self, target: ast.AST, value: Optional[ast.AST], augmented: bool = False
    ) -> None:
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._store(element, None)
            return
        if isinstance(target, ast.Name):
            if target.id in self.declared:
                self.findings.append(
                    ("captured", f"assigns captured name {target.id!r}")
                )
            elif augmented:
                pass  # x += 1 rebinds a local; no aliasing concern
            elif value is not None and _value_taints(value, self.tainted):
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
            return
        root = _root_name(target)
        if root is not None and root in self.tainted:
            kind = "item/attribute store"
            self.findings.append(
                ("write", f"{kind} through parameter-reachable name {root!r}")
            )

    # expressions -----------------------------------------------------------

    def _expr(self, node: ast.AST) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
            ):
                root = _root_name(func.value)
                if root is not None and root in self.tainted:
                    self.findings.append(
                        (
                            "write",
                            f"call to mutator .{func.attr}() on "
                            f"parameter-reachable name {root!r}",
                        )
                    )


def _scan_purity(monitor: MonitorSpec) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for hook, func, _ in _hook_callables(monitor):
        if hook == "recognize":
            continue  # recognize returns a view; mutation is unusual there
        node = _parse_hook(func)
        if node is None:
            continue
        scanner = _PurityScanner(_param_names(node))
        try:
            scanner.run(node)
        except Exception:
            continue  # a heuristic must never take the analyzer down
        for kind, detail in scanner.findings:
            if kind == "write":
                diagnostics.append(
                    Diagnostic(
                        code="REP304",
                        severity="warning",
                        message=f"{hook} of monitor {monitor.key!r} appears "
                        f"to mutate its input in place ({detail}); "
                        "monitoring functions must be MS -> MS "
                        "(Section 4.3)",
                        subject=f"{monitor.key}.{hook}",
                        hint="copy first (dict(state), list(state)) and "
                        "return the new state",
                    )
                )
            else:
                diagnostics.append(
                    Diagnostic(
                        code="REP305",
                        severity="warning",
                        message=f"{hook} of monitor {monitor.key!r} writes "
                        f"captured state ({detail}); hidden state breaks "
                        "the soundness argument (Theorem 7.7)",
                        subject=f"{monitor.key}.{hook}",
                        hint="thread all monitor state through the state "
                        "parameter instead",
                    )
                )
    return diagnostics


# -- entry points ------------------------------------------------------------


def analyze_spec(monitor: MonitorSpec) -> List[Diagnostic]:
    """Static (no-execution) inspection of one monitor specification."""
    return _check_arities(monitor) + _scan_purity(monitor)


def probe_monitor(monitor: MonitorSpec) -> List[Diagnostic]:
    """Dynamic probe findings as diagnostics (``REP31x``).

    Thin bridge over :func:`repro.monitoring.validate.validate_monitor`;
    unlike :func:`analyze_spec` this *executes* the monitor against the
    probe workload, so ``repro check`` only runs it on request.
    """
    from repro.monitoring.validate import validate_monitor

    key = getattr(monitor, "key", None)
    subject = key if isinstance(key, str) and key else type(monitor).__name__
    return [
        Diagnostic(
            code=PROBE_CODES.get(finding.check, "REP319"),
            severity="error",
            message=finding.message,
            subject=f"{subject}.{finding.check}",
        )
        for finding in validate_monitor(monitor)
    ]


__all__ = ["analyze_spec", "probe_monitor", "MUTATOR_METHODS", "PROBE_CODES"]
