"""Claim-flow & reachability analysis (``REP5xx``).

Given a program and the monitor stack it will run under, this pass
combines the abstract-interpretation reachability of
:mod:`repro.analysis.cfg` with the claim computation of
:mod:`repro.analysis.stack` into one static verdict
(:class:`FlowAnalysis`) answering, per program x stack:

* which annotation sites are *reachable* — and, dually, which are
  provably dead (``erasable_sites``), so codegen can erase their hooks
  and record mode can skip tracing them without observable difference;
* the claim-flow map ``site -> {claiming monitors}``;
* each monitor's *may-trigger alphabet* — the static event alphabet a
  temporal/DFA monitor class (ROADMAP item 5a) needs for vacuity and
  alphabet-disjointness checks.

Diagnostics:

* ``REP501`` *warning* — an annotation site no execution can reach (this
  includes annotation layers wrapping ``letrec``-bound lambdas, which
  every engine strips when tying the recursive knot);
* ``REP502`` *warning* — a monitor in the stack that no reachable site
  can trigger: its may-trigger alphabet is empty, so it can never fire;
* ``REP503`` *info* — a site reachable only inside the activation of
  another monitor: a fault in the guarding monitor (quarantined or
  propagated) changes whether this site is observed.

The verdict is keyed purely by pre-order site id, never by node
identity, so :class:`~repro.runtime.cache.CompilationCache` can memoize
it by program fingerprint and share it across structurally-equal ASTs.
That id is the one site numbering (:func:`repro.tracing.schema.
build_site_table`): a trace event's site, codegen's ``_pre(N)`` and
:class:`~repro.monitoring.sites.SiteTable` use it, so erasure reads
``erasable_sites`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.analysis.cfg import reachable_nodes
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.stack import _claimants, _render_annotation
from repro.errors import NO_LOCATION, SourceLocation
from repro.syntax.ast import Annotated, Lam, Letrec

__all__ = ["FlowAnalysis", "SiteFlow", "analyze_flow", "flow_diagnostics"]


@dataclass(frozen=True)
class SiteFlow:
    """The flow verdict for one annotation site (pre-order ``site_id``)."""

    site_id: int
    rendered: str
    location: SourceLocation
    reachable: bool
    claimants: Tuple[str, ...]
    #: Keys of monitors whose activation dynamically encloses every
    #: activation of this site (claimed ancestors with no intervening
    #: lambda boundary), outermost first.
    guards: Tuple[str, ...]
    #: True for an annotation layer wrapping a ``letrec``-bound lambda —
    #: unreachable by construction in every engine.
    letrec_wrapper: bool = False


@dataclass(frozen=True)
class FlowAnalysis:
    """The static claim-flow verdict for one program x monitor stack."""

    monitor_keys: Tuple[str, ...]
    sites: Tuple[SiteFlow, ...]

    @property
    def reachable_sites(self) -> Tuple[int, ...]:
        return tuple(s.site_id for s in self.sites if s.reachable)

    @property
    def erasable_sites(self) -> FrozenSet[int]:
        """Site ids provably never evaluated: hooks there may be erased."""
        return frozenset(s.site_id for s in self.sites if not s.reachable)

    def claim_flow(self) -> Dict[int, Tuple[str, ...]]:
        """The site -> claiming-monitors map, every site included."""
        return {s.site_id: s.claimants for s in self.sites}

    def alphabet(self, key: str) -> Tuple[str, ...]:
        """Monitor ``key``'s may-trigger alphabet: the rendered
        annotations of every reachable site it claims, in site order."""
        return tuple(
            dict.fromkeys(
                s.rendered
                for s in self.sites
                if s.reachable and key in s.claimants
            )
        )

    def alphabets(self) -> Dict[str, Tuple[str, ...]]:
        return {key: self.alphabet(key) for key in self.monitor_keys}

    @property
    def dead_monitors(self) -> Tuple[str, ...]:
        """Keys of monitors no reachable site can trigger (``REP502``)."""
        return tuple(
            key for key in self.monitor_keys if not self.alphabet(key)
        )

    def stats(self) -> Dict[str, int]:
        erased = self.erasable_sites
        return {
            "sites": len(self.sites),
            "reachable_sites": len(self.sites) - len(erased),
            "erased_sites": len(erased),
            "dead_monitors": len(self.dead_monitors),
        }


def analyze_flow(program, monitors: Sequence = ()) -> FlowAnalysis:
    """Run the claim-flow analysis; pure in (program, stack)."""
    monitor_list = list(monitors)
    reached = reachable_nodes(program)
    sites: List[SiteFlow] = []

    def register(node, guards: Tuple[str, ...], wrapper: bool) -> Tuple[str, ...]:
        claimed = tuple(_claimants(monitor_list, node.annotation))
        reachable = not wrapper and id(node) in reached
        sites.append(
            SiteFlow(
                site_id=len(sites),
                rendered=_render_annotation(node.annotation),
                location=getattr(node, "location", NO_LOCATION),
                reachable=reachable,
                claimants=claimed,
                guards=guards,
                letrec_wrapper=wrapper,
            )
        )
        if len(claimed) == 1 and claimed[0] not in guards:
            return guards + (claimed[0],)
        return guards

    # One pre-order traversal, mirroring ``walk()`` (and therefore
    # ``build_site_table``'s site numbering) exactly, while tracking the
    # stack of claimed enclosing annotations.  A lambda body starts with
    # an empty guard stack: the closure may escape and be applied outside
    # the guards' dynamic extent.
    def visit(node, guards: Tuple[str, ...]) -> None:
        node_type = type(node)
        if getattr(node, "annotation", None) is not None:
            inner = register(node, guards, wrapper=False)
            visit(node.body, inner)
            return
        if node_type is Lam:
            visit(node.body, ())
            return
        if node_type is Letrec:
            for _, bound in node.bindings:
                layer = bound
                while isinstance(layer, Annotated):
                    register(layer, (), wrapper=True)
                    layer = layer.body
                visit(layer, ())
            visit(node.body, guards)
            return
        for child in node.children():
            visit(child, guards)

    visit(program, ())
    keys = tuple(getattr(m, "key", str(m)) for m in monitor_list)
    return FlowAnalysis(monitor_keys=keys, sites=tuple(sites))


def flow_diagnostics(flow: FlowAnalysis) -> List[Diagnostic]:
    """Render a :class:`FlowAnalysis` as ``REP5xx`` diagnostics."""
    diagnostics: List[Diagnostic] = []
    for site in flow.sites:
        if not site.reachable:
            if site.letrec_wrapper:
                message = (
                    f"annotation {site.rendered} wraps a letrec-bound "
                    "lambda: the recursive knot is tied without evaluating "
                    "the binding, so this hook can never fire"
                )
                hint = (
                    "move the annotation onto the lambda's body so it "
                    "fires at every call"
                )
            else:
                message = (
                    f"annotation site {site.rendered} is statically "
                    "unreachable: no execution path evaluates it"
                )
                hint = (
                    "the hook never fires; remove the annotation or fix "
                    "the branch that guards it"
                )
            diagnostics.append(
                Diagnostic(
                    code="REP501",
                    severity="warning",
                    message=message,
                    location=site.location,
                    span=len(site.rendered),
                    hint=hint,
                )
            )
    for key in flow.dead_monitors:
        diagnostics.append(
            Diagnostic(
                code="REP502",
                severity="warning",
                message=f"monitor {key!r} can never fire: no reachable "
                "annotation site triggers it (its may-trigger alphabet "
                "is empty)",
                subject=key,
                hint="remove the monitor from the stack or annotate a "
                "reachable expression it recognizes",
            )
        )
    for site in flow.sites:
        if not site.reachable or not site.claimants:
            continue
        foreign = tuple(g for g in site.guards if g not in site.claimants)
        if not foreign:
            continue
        shown = ", ".join(repr(g) for g in foreign)
        diagnostics.append(
            Diagnostic(
                code="REP503",
                severity="info",
                message=f"site {site.rendered} is reachable only inside "
                f"an activation of monitor(s) {shown}; a fault there can "
                "suppress or reorder this observation",
                location=site.location,
                span=len(site.rendered),
                hint="under fault_policy='quarantine' the program keeps "
                "running without the guarding hook; under 'propagate' a "
                "fault there aborts before this site fires",
            )
        )
    return diagnostics
