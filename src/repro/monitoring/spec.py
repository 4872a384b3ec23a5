"""Monitor specifications — ``Mon = (MSyn, MAlg, MFun)`` (Definition 5.1).

A :class:`MonitorSpec` bundles the three components of the paper's monitor
specification format:

* **MSyn** — which annotation values the monitor recognizes
  (:meth:`MonitorSpec.recognize`).  Cascading safety (Section 6) requires
  the recognized sets of composed monitors to be disjoint; the runner
  verifies this on the annotations actually present in a program.
* **MAlg** — the monitor-state algebra: :meth:`MonitorSpec.initial_state`
  plus whatever operations the concrete spec defines on its state.
* **MFun** — the pre/post monitoring function pair
  (:meth:`MonitorSpec.pre` / :meth:`MonitorSpec.post`) with the paper's
  functionalities::

      M_pre  : Ann -> S -> A* -> MS -> MS
      M_post : Ann -> S -> A* -> A*' -> MS -> MS

  ``ctx`` is the language's semantic context (``A*`` — the environment for
  ``L_lambda``) and ``result`` the intermediate result passed to the
  continuation (``A*'``).

Monitoring functions must be **pure**: they receive a state and return a
(possibly new) state, and must not mutate program values or perform host
I/O.  Output-producing monitors (the tracer) keep an output *stream value*
inside their state.  Purity is what makes the soundness theorem go through
— and is enforced in spirit by the derivation, which only ever feeds a
monitor its own state.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.syntax.annotations import Annotation
from repro.syntax.ast import Expr


class MonitorSpec:
    """Base class for monitor specifications.

    Subclasses override :meth:`recognize`, :meth:`initial_state`,
    :meth:`pre` and :meth:`post`; ``key`` must be unique within any monitor
    stack, and is the index of this monitor's slot in the threaded
    :class:`~repro.monitoring.state.MonitorStateVector`.
    """

    #: Unique identity of this monitor within a stack.
    key: str = "monitor"

    #: Keys of earlier monitors in the cascade whose states this monitor
    #: may observe (read-only), realizing Section 6's remark that "a monitor
    #: could monitor the behavior of the monitors before it in the cascade".
    observes: Tuple[str, ...] = ()

    # MSyn -------------------------------------------------------------------

    def recognize(self, annotation: Annotation) -> Optional[object]:
        """Return the monitor's view of ``annotation``, or ``None``.

        Returning ``None`` means the annotation belongs to some other
        monitor and evaluation falls through to the underlying semantics.
        The returned object (often the annotation itself, or its payload
        for namespaced annotations) is what ``pre``/``post`` receive.
        """
        raise NotImplementedError

    # MAlg -------------------------------------------------------------------

    def initial_state(self) -> Any:
        """The initial (presumably empty) monitor state ``sigma_0``."""
        raise NotImplementedError

    def report(self, state: Any) -> Any:
        """Present the final state as the monitor's user-facing result.

        Defaults to the state itself; e.g. the tracer overrides this to
        render its output stream.
        """
        return state

    # MFun -------------------------------------------------------------------

    def pre(
        self, annotation: object, term: Expr, ctx: Any, state: Any, inner: Any = None
    ) -> Any:
        """``M_pre``: observe the state *before* evaluating ``term``.

        ``inner`` is only supplied (as a read-only mapping of earlier
        monitors' states) when ``observes`` is non-empty; monitors that do
        not observe may omit the parameter when overriding.
        """
        return state

    def post(
        self,
        annotation: object,
        term: Expr,
        ctx: Any,
        result: Any,
        state: Any,
        inner: Any = None,
    ) -> Any:
        """``M_post``: observe the state *after* ``term`` produced ``result``."""
        return state

    # Conveniences -------------------------------------------------------------

    def host_effects(self) -> bool:
        """Whether a hook reads or writes outside the monitor state.

        Pure monitors make a repeated run unobservable, which lets
        ``run_monitored`` re-run a codegen run that overflowed the host
        stack on the reference engine.  A debugger reading live commands
        and the trace recorder answer True, and keep the codegen error
        instead.  A wrapper spec (one holding a ``base`` spec) answers for
        its base.
        """
        base = getattr(self, "base", None)
        return isinstance(base, MonitorSpec) and base.host_effects()

    def cache_identity(self) -> Tuple:
        """A hashable identity for compiled-program caching.

        Two specs with equal identities must compile to interchangeable
        monitored code: same ``recognize`` behavior and same (pure)
        ``pre``/``post`` functions.  The default captures the concrete
        class plus every *scalar* configuration attribute (strings,
        numbers, tuples of scalars, nested specs); any attribute it cannot
        prove inert — a callable, a mutable object — degrades to the
        instance's ``id``, which is always sound (a fresh instance simply
        never shares cache entries).  Specs carrying behavior-affecting
        state the default cannot see must override this.
        """
        parts: list = [type(self).__module__, type(self).__qualname__]
        attrs = getattr(self, "__dict__", None)
        if attrs is None:  # __slots__ classes carry opaque state
            return (*parts, "id", id(self))
        for name in sorted(attrs):
            parts.append((name, _attr_identity(attrs[name])))
        return tuple(parts)

    def __and__(self, other):
        """Monitor composition: ``profiler & tracer`` builds a stack (Section 6)."""
        from repro.monitoring.compose import compose

        return compose(self, other)

    def __repr__(self) -> str:
        return f"<monitor {self.key}>"


def _attr_identity(value: object) -> object:
    """The cache-identity projection of one configuration attribute."""
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    if isinstance(value, MonitorSpec):
        return value.cache_identity()
    if isinstance(value, type):
        return (value.__module__, value.__qualname__)
    if isinstance(value, (tuple, frozenset)):
        try:
            items = tuple(_attr_identity(item) for item in value)
        except Exception:
            return ("id", id(value))
        return (type(value).__name__, items)
    return ("id", id(value))


class FunctionSpec(MonitorSpec):
    """A monitor specification assembled from plain functions.

    Handy for one-off monitors in tests and user scripts::

        counter = FunctionSpec(
            key="count",
            recognize=lambda ann: ann if isinstance(ann, Label) else None,
            initial=lambda: 0,
            pre=lambda ann, term, ctx, state: state + 1,
        )
    """

    def __init__(
        self,
        key: str,
        recognize,
        initial,
        pre=None,
        post=None,
        report=None,
        observes: Tuple[str, ...] = (),
    ) -> None:
        self.key = key
        self._recognize = recognize
        self._initial = initial
        self._pre = pre
        self._post = post
        self._report = report
        self.observes = observes

    def recognize(self, annotation: Annotation):
        return self._recognize(annotation)

    def initial_state(self):
        return self._initial()

    def pre(self, annotation, term, ctx, state, inner=None):
        if self._pre is None:
            return state
        if self.observes:
            return self._pre(annotation, term, ctx, state, inner)
        return self._pre(annotation, term, ctx, state)

    def post(self, annotation, term, ctx, result, state, inner=None):
        if self._post is None:
            return state
        if self.observes:
            return self._post(annotation, term, ctx, result, state, inner)
        return self._post(annotation, term, ctx, result, state)

    def report(self, state):
        if self._report is None:
            return state
        return self._report(state)
