"""Executable soundness checking (Section 7, Theorem 7.7).

The theorem states that for a well-specified semantics, the first
projection of the monitored meaning equals the standard meaning::

    (fix G)[[s]] a* kappa / Ans_std
        = ((fix G_bar)[[s_bar]] a* kappa sigma) |_1 / Ans_mon

These helpers make the theorem an assertion over concrete runs, used both
by the test suite (including hypothesis-generated programs) and available
to users who want belt-and-braces verification of their own monitors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import EvalError, ReproError
from repro.monitoring.compose import MonitorLike, flatten_monitors
from repro.monitoring.derive import MonitoredResult, run_monitored
from repro.runtime.config import RunConfig
from repro.semantics.values import Closure, PrimFun, values_equal
from repro.syntax.ast import Expr, strip_annotations


class SoundnessViolation(ReproError):
    """Raised when a monitored run changes a program's standard answer.

    By Theorem 7.7 this cannot happen for monitors built from pure
    monitoring functions; seeing it means a monitor broke the rules (e.g.
    mutated a program value it was shown).
    """


def answers_agree(standard_answer, monitored_answer) -> bool:
    """Equality on answers, treating function values intensionally.

    Function answers are compared by shape only (both are functions):
    the paper's theorem is stated for non-recursive answer domains
    (first-order values) and notes the generalization needs a congruence
    rather than equality; for closures we settle for "both are functions",
    which the property tests strengthen by applying them to arguments.
    """
    std_is_fun = isinstance(standard_answer, (Closure, PrimFun))
    mon_is_fun = isinstance(monitored_answer, (Closure, PrimFun))
    if std_is_fun or mon_is_fun:
        return std_is_fun and mon_is_fun
    return values_equal(standard_answer, monitored_answer)


@dataclass
class SoundnessReport:
    """Evidence from one soundness check."""

    program: Expr
    standard_answer: object
    monitored: MonitoredResult
    agreed: bool


def check_soundness(
    language,
    program: Expr,
    monitors: MonitorLike,
    *,
    config: Optional[RunConfig] = None,
) -> SoundnessReport:
    """Run ``program`` both ways and compare answers.

    The standard run evaluates the *annotation-erased* program (the
    paper's ``s``) over the empty stack, the monitored run evaluates the
    annotated ``s_bar``; both take their run options from ``config``.
    Errors must also agree: if the standard run raises, the monitored run
    must raise the same error class, and vice versa.
    """
    erased = strip_annotations(program)

    standard_error: Optional[EvalError] = None
    standard_answer = None
    try:
        standard_answer = run_monitored(language, erased, [], config=config).answer
    except EvalError as exc:
        standard_error = exc

    monitored_error: Optional[EvalError] = None
    monitored = None
    try:
        monitored = run_monitored(language, program, monitors, config=config)
    except EvalError as exc:
        monitored_error = exc

    if standard_error is not None or monitored_error is not None:
        if type(standard_error) is not type(monitored_error):
            raise SoundnessViolation(
                f"error behavior diverged: standard={standard_error!r}, "
                f"monitored={monitored_error!r}"
            )
        return SoundnessReport(program, standard_error, monitored, agreed=True)

    agreed = answers_agree(standard_answer, monitored.answer)
    return SoundnessReport(program, standard_answer, monitored, agreed=agreed)


def assert_sound(
    language,
    program: Expr,
    monitors: MonitorLike,
    *,
    config: Optional[RunConfig] = None,
) -> MonitoredResult:
    """Like :func:`check_soundness` but raises on disagreement.

    Returns the monitored result so callers get monitoring data *and* the
    guarantee in one call.
    """
    report = check_soundness(language, program, monitors, config=config)
    if not report.agreed:
        stack = ", ".join(m.key for m in flatten_monitors(monitors))
        raise SoundnessViolation(
            f"monitor stack [{stack}] changed the program answer: "
            f"standard={report.standard_answer!r}, "
            f"monitored={report.monitored.answer!r}"
        )
    return report.monitored
