"""Trampoline steps: tail calls for continuation-passing style in Python.

A continuation semantics only ever makes *tail* calls ("values are only
passed forward", Section 7 / Reynolds' serious functions).  Python has no
tail-call elimination, so the machine represents every tail call as a step
object consumed by :func:`trampoline`.  The driver's loop is the only
Python stack frame alive during evaluation, which is how programs recurse
hundreds of thousands of levels deep without touching
``sys.setrecursionlimit``.

A pending call is a :class:`Bounce` — ``fn(*args)`` — and a finished
computation is a :class:`Done`.

:func:`trampoline` drives them in a single loop, reading a run's
deadline once per :data:`STEP_BATCH` bounces.  Step budgets are not its
business: ``max_steps`` counts expression-node evaluations, the unit of
``RunMetrics.steps``, in the counting wrapper of
:func:`repro.observability.instrument.instrument_functional`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Tuple

from repro.errors import EvaluationTimeout

#: How many bounces the trampoline executes between deadline checks (and the
#: codegen engine's step count between its own).
STEP_BATCH = 4096


class Step:
    """A pending tail call (:class:`Bounce`) or a :class:`Done`."""

    __slots__ = ()


class Bounce(Step):
    """A suspended tail call ``fn(*args)``."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Step], args: Tuple) -> None:
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Bounce({name}, {len(self.args)} args)"


class Done(Step):
    """A finished computation carrying the final payload."""

    __slots__ = ("payload",)

    def __init__(self, payload) -> None:
        self.payload = payload

    def __repr__(self) -> str:
        return f"Done({self.payload!r})"


def trampoline(step: Step, deadline: Optional[float] = None):
    """Run ``step`` to completion and return the :class:`Done` payload.

    ``deadline`` is a ``time.perf_counter()`` timestamp; passing one
    enforces a cooperative wall-clock budget (the batch runtime's
    per-request timeouts).  The clock is consulted once per step batch —
    one comparison every :data:`STEP_BATCH` bounces, so the unlimited
    fast path is untouched — and overrunning raises
    :class:`repro.errors.EvaluationTimeout`.
    """
    while True:
        n = 0
        while n < STEP_BATCH and step.__class__ is Bounce:
            step = step.fn(*step.args)
            n += 1
        cls = step.__class__
        if cls is Done:
            return step.payload
        if cls is not Bounce:
            raise TypeError(
                f"machine step returned {type(step).__name__}; expected Bounce or Done"
            )
        if deadline is not None and perf_counter() >= deadline:
            raise EvaluationTimeout()
