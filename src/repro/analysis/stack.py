"""Annotation & monitor-stack lint (``REP2xx``).

Given a program and the monitor stack it will run under, this pass
computes each monitor's *claim set* — the annotations in the program its
``recognize`` accepts (``MSyn``, Definition 5.1) — and reports:

* ``REP202`` *warning* — a dead annotation: no monitor in the stack
  recognizes it (the standard semantics is oblivious, so it silently
  does nothing);
* ``REP203`` *warning* — a :class:`~repro.syntax.annotations.Tagged`
  annotation whose tool prefix matches no monitor key or namespace in
  the stack (almost certainly a typo);
* ``REP204`` *error* — an annotation claimed by more than one monitor,
  violating Section 6's disjointness requirement for cascading;
* ``REP205`` *error* — duplicate monitor keys in the stack.

The same claim-set computation backs the static disjointness verdict
used by ``run_monitored`` admission (see
:func:`repro.monitoring.derive.disjoint_verdict`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.diagnostics import NO_LOCATION, Diagnostic
from repro.monitoring.spec import MonitorSpec
from repro.syntax.annotations import Tagged, render_annotation


def _claimants(
    monitors: Sequence[MonitorSpec], annotation: object
) -> List[str]:
    """Keys of every monitor whose ``recognize`` accepts ``annotation``."""
    claimed = []
    for monitor in monitors:
        try:
            view = monitor.recognize(annotation)
        except Exception:
            continue  # totality failures are the spec pass's business
        if view is not None:
            claimed.append(monitor.key)
    return claimed


def claim_sets(
    program, monitors: Sequence[MonitorSpec]
) -> Dict[str, Tuple[object, ...]]:
    """Per-monitor claim sets over the annotations present in ``program``.

    Returns ``{monitor key: tuple of claimed annotation payloads}`` in
    program pre-order.  This is the static core of the Section 6
    disjointness check: the stack is safe to cascade iff the sets are
    pairwise disjoint.
    """
    claims: Dict[str, List[object]] = {m.key: [] for m in monitors}
    for node in program.walk():
        annotation = getattr(node, "annotation", None)
        if annotation is None:
            continue
        for key in _claimants(monitors, annotation):
            claims[key].append(annotation)
    return {key: tuple(values) for key, values in claims.items()}


def _known_tools(monitors: Sequence[MonitorSpec]) -> Set[str]:
    tools: Set[str] = set()
    for monitor in monitors:
        tools.add(monitor.key)
        namespace = getattr(monitor, "namespace", None)
        if isinstance(namespace, str):
            tools.add(namespace)
    return tools


def analyze_stack(
    program, monitors: Sequence[MonitorSpec]
) -> List[Diagnostic]:
    """Run the annotation/stack lint; empty stack means no findings."""
    diagnostics: List[Diagnostic] = []
    if not monitors:
        return diagnostics

    seen_keys: Set[str] = set()
    duplicates: Set[str] = set()
    for monitor in monitors:
        if monitor.key in seen_keys:
            duplicates.add(monitor.key)
        seen_keys.add(monitor.key)
    for key in sorted(duplicates):
        diagnostics.append(
            Diagnostic(
                code="REP205",
                severity="error",
                message=f"duplicate monitor key {key!r} in the stack",
                subject=key,
                hint="every monitor in a cascade needs a unique key; "
                "rebuild one of the specs with a different key",
            )
        )

    tools = _known_tools(monitors)
    for node in program.walk():
        annotation = getattr(node, "annotation", None)
        if annotation is None:
            continue
        shown = "{" + render_annotation(annotation) + "}"
        claimed = _claimants(monitors, annotation)
        # L_imp's AnnotatedCmd carries no source location (commands are
        # rebuilt by desugaring); the lint still applies, just unlocated.
        location = getattr(node, "location", None)
        if location is None:
            location = NO_LOCATION
        if len(claimed) > 1:
            diagnostics.append(
                Diagnostic(
                    code="REP204",
                    severity="error",
                    message=f"annotation {shown} is recognized by multiple "
                    f"monitors: {claimed} — cascaded monitors must have "
                    "disjoint annotation syntaxes (Section 6)",
                    location=location,
                    span=len(shown),
                    hint="namespace the annotation ({tool: ...}) or the "
                    "monitors so exactly one claims it",
                )
            )
        elif not claimed:
            if isinstance(annotation, Tagged) and annotation.tool not in tools:
                known = ", ".join(sorted(tools))
                diagnostics.append(
                    Diagnostic(
                        code="REP203",
                        severity="warning",
                        message=f"annotation {shown} names tool "
                        f"{annotation.tool!r}, which matches no monitor in "
                        f"the stack (known: {known})",
                        location=location,
                        span=len(shown),
                        hint="fix the tool prefix or add the monitor to "
                        "the stack",
                    )
                )
            else:
                diagnostics.append(
                    Diagnostic(
                        code="REP202",
                        severity="warning",
                        message=f"dead annotation {shown}: no monitor in "
                        "the stack recognizes it",
                        location=location,
                        span=len(shown),
                        hint="the standard semantics ignores it "
                        "(Definition 7.1); remove it or add the monitor "
                        "that consumes it",
                    )
                )
    return diagnostics


__all__ = ["analyze_stack", "claim_sets"]
