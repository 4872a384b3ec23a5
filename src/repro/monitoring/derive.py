"""Automatic derivation of monitoring semantics (Definition 4.2).

:func:`derive_functional` is the heart of the reproduction.  Given the
valuation *functional* of any continuation semantics and a monitor
specification, it returns a new functional that

* on an annotated term the monitor recognizes, runs ``updPre`` on the
  monitor state, evaluates the body, and composes ``updPost`` into the
  continuation — exactly the ``[[{mu}: s']]`` equation of Definition 4.2;
* on everything else (including annotations belonging to *other*
  monitors), defers to the base functional.

Because the result is again a functional of the same shape, the derivation
can be applied repeatedly — that is Section 6's monitor composition — and
because the fixpoint is taken *after* derivation, the monitoring behavior
appears at every level of recursion, inside every closure body.

There is one derivation per monitor whatever the fault policy (Section 7
extended to monitors that raise, :mod:`repro.monitoring.faults`): a hook
exception re-raises when the run threads no fault log (``propagate``)
and otherwise goes to :meth:`~repro.monitoring.faults.FaultLog.record`,
the rule codegen's residual hooks and the trace fold share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HostRecursionError, MonitorError
from repro.monitoring.faults import FaultLog, MonitorFault, check_fault_policy
from repro.monitoring.spec import MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.observability.instrument import instrument_functional, instrument_monitors
from repro.observability.metrics import RunMetrics
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.machine import Functional, fix
from repro.semantics.trampoline import Bounce, Step
from repro.syntax.ast import Expr, annotations_in


def derive_functional(
    base_functional: Functional,
    monitor: MonitorSpec,
    *,
    fault_log: Optional[FaultLog] = None,
) -> Functional:
    """``M(G)`` instantiated with ``monitor`` — one cascade level.

    The returned functional expects the machine to thread a
    :class:`~repro.monitoring.state.MonitorStateVector` as its ``ms``
    argument, with a slot for ``monitor.key``.

    An exception escaping the monitor's ``pre``/``post`` aborts the run
    when ``fault_log`` is ``None`` (the ``propagate`` policy).  Otherwise
    it goes to :meth:`FaultLog.record` and the program's value keeps
    flowing to the original continuation, so the standard answer is
    preserved: under ``log`` only that hook's state update is dropped;
    under ``quarantine`` the slot is disabled, and a disabled slot's
    annotated terms take the base semantics' unclaimed-annotation path
    (Definition 4.2), both at new activations and inside already-captured
    ``post`` continuations.
    """
    key = monitor.key
    observes = tuple(monitor.observes)
    disabled = fault_log.disabled if fault_log is not None else frozenset()

    def functional(recur):
        base_eval = base_functional(recur)

        def eval_monitored(term, ctx, kont, ms) -> Step:
            # Any annotated node — an L_lambda ``Annotated`` expression or
            # another language's annotated form (e.g. L_imp's AnnotatedCmd)
            # — is recognized by its ``annotation``/``body`` attributes.
            payload = getattr(term, "annotation", None)
            if payload is not None:
                annotation = monitor.recognize(payload)
                if annotation is not None and key not in disabled:
                    body = term.body
                    state = ms.get(key)
                    # updPre = M_pre [[mu]] [[s']] a*
                    try:
                        if observes:
                            pre_state = monitor.pre(
                                annotation, body, ctx, state, inner=ms.view(observes)
                            )
                        else:
                            pre_state = monitor.pre(annotation, body, ctx, state)
                    except Exception as exc:
                        if fault_log is None:
                            raise
                        fault_log.record(key, "pre", exc)
                        if key in disabled:  # quarantined just now
                            return base_eval(term, ctx, kont, ms)
                        pre_state = state  # log policy: drop the update
                    ms_pre = ms.set(key, pre_state)

                    # kappa_post = { \iota*. (kappa iota*) o updPost }
                    def kont_post(result, ms_inner) -> Step:
                        if key in disabled:
                            return Bounce(kont, (result, ms_inner))
                        try:
                            if observes:
                                post_state = monitor.post(
                                    annotation,
                                    body,
                                    ctx,
                                    result,
                                    ms_inner.get(key),
                                    inner=ms_inner.view(observes),
                                )
                            else:
                                post_state = monitor.post(
                                    annotation, body, ctx, result, ms_inner.get(key)
                                )
                        except Exception as exc:
                            if fault_log is None:
                                raise
                            fault_log.record(key, "post", exc)
                            return Bounce(kont, (result, ms_inner))
                        return Bounce(kont, (result, ms_inner.set(key, post_state)))

                    return Bounce(recur, (body, ctx, kont_post, ms_pre))
            return base_eval(term, ctx, kont, ms)

        return eval_monitored

    return functional


def derive_all(
    base_functional: Functional,
    monitors: Sequence[MonitorSpec],
    *,
    fault_log: Optional[FaultLog] = None,
) -> Functional:
    """Cascade the derivation over ``monitors`` (first monitor innermost).

    ``derive_all(G, [m1, m2])`` is the paper's Figure 5 construction:
    derive for ``m1``, treat the result as a standard semantics, derive for
    ``m2``.  The outermost monitor therefore intercepts its annotations
    first, and — via ``observes`` — may watch the states of monitors before
    it in the cascade.  ``fault_log`` (if any) is shared by every level.
    """
    return reduce(
        lambda base, monitor: derive_functional(base, monitor, fault_log=fault_log),
        monitors,
        base_functional,
    )


def disjoint_verdict(
    monitors: Sequence[MonitorSpec], program: Expr
) -> Optional[str]:
    """The Section 6 disjointness verdict for ``(program, stack)``.

    Returns ``None`` when the stack is safe to cascade over ``program``,
    otherwise the error message :func:`check_disjoint` would raise with.
    The verdict is a pure function of the program's annotations and the
    monitors' ``recognize`` predicates, which is what lets
    :meth:`repro.runtime.cache.CompilationCache.check_disjoint` memoize it
    once per (program fingerprint, stack identity) instead of re-walking
    the program on every run.
    """
    keys = [monitor.key for monitor in monitors]
    if len(set(keys)) != len(keys):
        return f"duplicate monitor keys in stack: {keys}"
    if len(monitors) < 2:
        return None  # one claimant at most — skip the O(program) walk
    for annotation in set(annotations_in(program)):
        claimed = [m.key for m in monitors if m.recognize(annotation) is not None]
        if len(claimed) > 1:
            return (
                f"annotation {annotation!r} is recognized by multiple monitors: "
                f"{claimed} — cascaded monitors must have disjoint annotation "
                f"syntaxes (Section 6)"
            )
    return None


def check_disjoint(monitors: Sequence[MonitorSpec], program: Expr) -> None:
    """Enforce Section 6's constraint that annotation syntaxes are disjoint.

    Disjointness is undecidable for arbitrary ``recognize`` predicates, so
    we check it on the annotations that actually occur in ``program``:
    no annotation may be recognized by more than one monitor in the stack.
    """
    verdict = disjoint_verdict(monitors, program)
    if verdict is not None:
        raise MonitorError(verdict)


@dataclass
class MonitoredResult:
    """The meaning of a program under a monitoring semantics.

    ``answer`` is the program's (standard) answer; ``states`` holds each
    monitor's final state, and :meth:`report` renders one monitor's state
    through its spec's ``report`` method.

    ``faults`` records monitor failures captured under a non-``propagate``
    fault policy (always ``()`` under the default policy, where a fault
    aborts the run instead); :meth:`healthy` is the quick check that no
    monitor faulted.  A quarantined monitor's final state is its last
    state *before* the fault, so its report still covers everything it
    observed up to that point.

    ``metrics`` carries the run's :class:`~repro.observability.metrics.
    RunMetrics` when the run's config asked for them; otherwise ``None``.

    ``diagnostics`` holds the static analyzer's findings when the run was
    configured with ``lint="warn"`` (under ``lint="error"`` a failing
    program never produces a result — :class:`repro.analysis.
    StaticAnalysisError` is raised at admission instead).
    """

    answer: object
    states: MonitorStateVector
    monitors: Tuple[MonitorSpec, ...]
    faults: Tuple[MonitorFault, ...] = ()
    fault_policy: str = "propagate"
    metrics: "Optional[RunMetrics]" = None
    diagnostics: Tuple = ()
    #: Path of the event trace a ``mode="record"`` run wrote (else None).
    trace: Optional[str] = None

    def healthy(self) -> bool:
        """True when no monitor faulted during the run."""
        return not self.faults

    def quarantined_keys(self) -> Tuple[str, ...]:
        """Keys of monitors disabled by quarantine, in first-fault order."""
        if self.fault_policy != "quarantine":
            return ()
        return tuple(dict.fromkeys(f.monitor_key for f in self.faults))

    def state_of(self, monitor: "MonitorSpec | str"):
        key = monitor if isinstance(monitor, str) else monitor.key
        return self.states.get(key)

    def report(self, monitor: "MonitorSpec | str | None" = None):
        if monitor is None:
            if len(self.monitors) != 1:
                return {m.key: m.report(self.states.get(m.key)) for m in self.monitors}
            monitor = self.monitors[0]
        if isinstance(monitor, str):
            matches = [m for m in self.monitors if m.key == monitor]
            if not matches:
                raise MonitorError(f"no monitor with key {monitor!r} in this result")
            monitor = matches[0]
        return monitor.report(self.states.get(monitor.key))

    def reports(self) -> Dict[str, object]:
        out = {m.key: m.report(self.states.get(m.key)) for m in self.monitors}
        if self.faults:
            out["faults"] = tuple(fault.render() for fault in self.faults)
        return out


def run_monitored(
    language,
    program,
    monitors: "MonitorSpec | Sequence[MonitorSpec]",
    *,
    config=None,
    cache=None,
) -> MonitoredResult:
    """Evaluate ``program`` under ``language`` with ``monitors`` cascaded.

    Returns the pair the monitoring semantics denotes — the standard answer
    together with the final monitor state(s) (Section 2) — packaged as a
    :class:`MonitoredResult`.

    This is the one place a run picks its engine: an unmonitored run is the
    empty stack, which derives nothing (Definition 4.2), and
    ``language.evaluate``, the toolbox ``evaluate`` and ``repro run`` all
    come here.

    Run options come from ``config`` (a :class:`repro.runtime.RunConfig`;
    ``None`` means the defaults).

    ``engine="codegen"`` emits the monitored program as native Python
    source (:mod:`repro.partial_eval.codegen`), with claimed annotations
    inlined as direct pre/post calls and unclaimed annotations erased at
    compile time.  It produces the same answers and final monitor states
    as the reference derivation (the engine-parity property tests assert
    exactly this); the engine × language capability matrix lives in
    :data:`repro.languages.base.ENGINE_LANGUAGES`.  Residual code runs on
    the host stack: a codegen run that overflows it is re-run on the
    reference derivation unless a monitor has
    :meth:`~repro.monitoring.spec.MonitorSpec.host_effects` — the trace
    recorder of record mode, or a debugger reading live commands — in
    which case it raises :class:`repro.errors.HostRecursionError`.

    ``fault_policy`` controls what happens when a monitor's ``pre`` or
    ``post`` raises: ``"propagate"`` (default) lets the exception abort
    the run; ``"quarantine"`` records a :class:`MonitorFault`, disables
    that monitor for the rest of the run and completes with the standard
    answer; ``"log"`` records faults but keeps the monitor enabled.

    ``metrics`` opts the run into telemetry (:mod:`repro.observability`):
    pass a :class:`~repro.observability.metrics.RunMetrics` to collect
    counters (also returned as ``result.metrics``).  Counters are
    engine-independent: both engines count expression-node evaluations
    at the reference interpreter's granularity (codegen runs the counted
    variant of its one collapsed artifact).

    ``max_steps`` bounds this run's share of that count on both engines
    (:class:`repro.errors.StepLimitExceeded`); codegen charges a region
    on entry, so an ``EvalError`` inside the region that crosses the
    budget surfaces as ``StepLimitExceeded``.  ``timeout`` bounds the
    run's wall-clock seconds (:class:`repro.errors.EvaluationTimeout`).

    ``cache`` (a :class:`repro.runtime.CompilationCache`) memoizes code
    generation for ``engine="codegen"``: identical (program, monitor
    stack) requests reuse the generated program, whatever their fault
    policy, limits or telemetry — each run binds its own (possibly
    instrumented) specs to the one artifact.  A cache also memoizes the
    Section 6 disjointness verdict, so warm runs skip the per-run
    annotation walk.

    ``lint`` runs the static analyzer before execution (:func:`lint_gate`).
    """
    from repro.monitoring.compose import flatten_monitors, validate_observations
    from repro.runtime.config import RunConfig

    cfg = RunConfig.checked(config)
    monitor_list: List[MonitorSpec] = flatten_monitors(monitors)
    validate_observations(monitor_list)
    diagnostics = lint_gate(cfg, language, program, monitor_list)
    if cfg.check_disjointness:
        if cache is not None:
            cache.check_disjoint(monitor_list, program)
        else:
            check_disjoint(monitor_list, program)

    if cfg.mode == "record":
        # Record mode: run once with the trace recorder instead of the
        # stack — the stack defines the per-site recording filter, and
        # the result carries the trace path (fold stacks over it later
        # with repro.tracing.analyze_trace).  Admission gates above
        # (lint, disjointness) apply as inline; the result's diagnostics
        # ride along unchanged.
        from repro.tracing.record import record_run

        result = record_run(language, program, monitor_list, cfg)
        result.diagnostics = diagnostics
        return result

    metrics = cfg.metrics
    # The *instrumented* specs drive derivation and residual hooks (so hook
    # calls are counted and timed); the result reports through the originals.
    active_list = instrument_monitors(monitor_list, metrics)
    initial = MonitorStateVector.initial(active_list)
    deadline = cfg.deadline()
    fault_log = FaultLog.for_policy(cfg.fault_policy, metrics)
    start = perf_counter() if metrics is not None else 0.0
    try:
        engine = cfg.engine
        if engine == "codegen":
            from repro.languages.base import check_engine_support

            check_engine_support(engine, getattr(language, "name", str(language)))
            # A run too deep for the host stack is re-run on the reference
            # derivation when nobody can tell: no monitor touches the host.
            # Metrics, faults and the step count restart from where this
            # run found them.
            rerunnable = not any(monitor.host_effects() for monitor in monitor_list)
            saved_metrics = (
                metrics.copy() if rerunnable and metrics is not None else None
            )
            try:
                generated = _generate(language, program, cfg, monitor_list, cache)
                answer, final_states = generated.run(
                    answers=cfg.answers,
                    initial_ms=initial,
                    monitors=active_list,
                    max_steps=cfg.max_steps,
                    fault_log=fault_log,
                    deadline=deadline,
                    metrics=metrics,
                )
            except HostRecursionError:
                if not rerunnable:
                    raise
                if saved_metrics is not None:
                    metrics.restore(saved_metrics)
                fault_log = FaultLog.for_policy(cfg.fault_policy, metrics)
                engine = "reference"
        if engine == "reference":
            functional = derive_all(
                language.functional(), active_list, fault_log=fault_log
            )
            if metrics is not None or cfg.max_steps is not None:
                functional = instrument_functional(functional, metrics, cfg.max_steps)
            answer, final_states = language.run_program(
                program,
                fix(functional),
                answers=cfg.answers,
                ms=initial,
                deadline=deadline,
            )
    finally:
        if metrics is not None:
            metrics.wall_time += perf_counter() - start
    return MonitoredResult(
        answer=answer,
        states=final_states,
        monitors=tuple(monitor_list),
        faults=fault_log.snapshot() if fault_log is not None else (),
        fault_policy=cfg.fault_policy,
        metrics=metrics,
        diagnostics=diagnostics,
    )


def lint_gate(cfg, language, program, monitors: Sequence[MonitorSpec]) -> Tuple:
    """Run the static analyzer per ``cfg.lint``; return its diagnostics.

    ``"off"`` (the default) adds zero overhead.  ``"warn"`` returns the
    findings (warnings also go to stderr); ``"error"`` additionally
    raises :class:`repro.analysis.StaticAnalysisError` when any
    error-severity finding exists, so the program never executes.  Under
    ``optimize="flow"`` the ``REP5xx`` claim-flow pass runs too.  Every
    evaluation path goes through this one gate.
    """
    if cfg.lint == "off":
        return ()
    from repro.analysis import StaticAnalysisError, analyze

    report = analyze(
        program, list(monitors), language=language, flow=cfg.optimize == "flow"
    )
    if cfg.lint == "error" and not report.ok():
        raise StaticAnalysisError(report)
    if report.diagnostics:
        import sys

        print(report.render(), file=sys.stderr)
    return report.diagnostics


def _generate(language, program, cfg, monitor_list, cache):
    """The run's codegen artifact, built for the base (uninstrumented) stack."""
    if cache is not None:
        return cache.get_or_compile(
            language, program, monitor_list, optimize=cfg.optimize
        )
    from repro.partial_eval.codegen import generate_program

    flow = None
    if cfg.optimize == "flow":
        # Erase hooks at provably-unreachable sites.
        from repro.analysis.flow import analyze_flow

        flow = analyze_flow(program, monitor_list)
    return generate_program(
        program, monitor_list, check_disjointness=False, flow=flow
    )
