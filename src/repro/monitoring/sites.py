"""One site table per (program, stack): claim resolution and hook binding.

Definition 4.2 and the Section 6 cascade decide which monitor handles an
annotated node: the outermost one that recognizes it (``derive_all``
derives the last monitor of a stack outermost, so its level intercepts
the node first).  :class:`SiteTable` makes that decision once per site,
and codegen's residual hooks, the trace recorder's site filter and the
trace fold all index it; only the reference derivation, the oracle,
resolves claims itself.  Sites are numbered by the pre-order walk of
:func:`repro.tracing.schema.build_site_table`, as trace events and the
flow verdict are, so a residual ``_pre(N)``, a trace event at site ``N``
and the flow verdict's site ``N`` name one annotated node.

:class:`SiteBinding` binds a table to one run: its hook entries call the
run's (possibly metrics-wrapped) specs and feed its fault log.  Quarantine
is a rebinding: a disabled slot's sites get identity
hooks, the unclaimed-annotation fallback.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Sequence, Tuple

from repro.monitoring.spec import MonitorSpec
from repro.tracing.schema import Site, build_site_table


class Claim(NamedTuple):
    """The monitor handling one site: its key and ``recognize`` view."""

    key: str
    view: object


def _claim(monitors: Sequence[MonitorSpec], site: Site) -> Optional[Claim]:
    """The outermost monitor recognizing ``site``'s annotation, if any."""
    for monitor in reversed(monitors):
        view = monitor.recognize(site.annotation)
        if view is not None:
            return Claim(monitor.key, view)
    return None


class SiteTable:
    """Every annotated site of one program, each with its claim under one stack.

    ``claims[i]`` is site ``i``'s :class:`Claim`, ``None`` when no
    monitor recognizes it or ``erased`` (the site ids a flow verdict
    proved unreachable) holds it.  ``index`` maps a node's
    :func:`site_key` to its :class:`~repro.tracing.schema.Site`.  The
    table is pure in (program, stack), so it is cached with the codegen
    artifact.
    """

    __slots__ = ("sites", "claims", "index")

    def __init__(
        self,
        program,
        monitors: Sequence[MonitorSpec] = (),
        *,
        erased: FrozenSet[int] = frozenset(),
    ) -> None:
        self.sites: Tuple[Site, ...] = tuple(build_site_table(program))
        self.claims = tuple(
            None if site.site_id in erased else _claim(monitors, site)
            for site in self.sites
        )
        self.index = {site_key(s.annotation, s.body): s for s in self.sites}


def site_key(annotation, body) -> Tuple[int, int]:
    """An annotated node's key, as codegen and a recorder's hook see it.

    Not the body alone: the simplifier substitutes one ``Const``/``Var``
    object at every occurrence, so two annotated nodes may share a body.
    """
    return (id(annotation), id(body))


class SiteBinding:
    """A :class:`SiteTable` bound to one run's specs (by key) and fault log.

    ``entries[i]`` is ``(pre, post, key, view, body, observes)`` for site
    ``i`` (every engine's hooks get the body as ``term``), ``None`` where
    nothing claims it; the list is updated in place, so hooks may hold it.
    """

    __slots__ = ("table", "specs", "fault_log", "entries")

    def __init__(self, table: SiteTable, specs: Sequence[MonitorSpec], fault_log) -> None:
        self.table = table
        self.specs = {spec.key: spec for spec in specs}
        self.fault_log = fault_log
        self.entries: list = []
        self.rebind()

    def rebind(self) -> None:
        """Rebuild every entry from the fault log's disabled set.

        A replay checkpoint restores that set and then rebinds.
        """
        disabled = self.fault_log.disabled if self.fault_log is not None else ()
        entries = []
        for site, claim in zip(self.table.sites, self.table.claims):
            if claim is None:
                entries.append(None)
            elif claim.key in disabled:
                entries.append((_keep_pre, _keep_post, *claim, site.body, None))
            else:
                spec = self.specs[claim.key]
                observes = tuple(spec.observes) or None
                entries.append((spec.pre, spec.post, *claim, site.body, observes))
        self.entries[:] = entries

    def fault(self, key: str, phase: str, exc: Exception) -> None:
        """Apply the fault policy to a hook exception.

        Without a fault log (``propagate``) ``exc`` is re-raised.
        Otherwise the log records it; the failed hook's state update never
        happened (log policy: the slot keeps its state), and a slot the
        log quarantines takes identity hooks from here on, an already
        open activation's ``post`` included.
        """
        log = self.fault_log
        if log is None:
            raise exc
        log.record(key, phase, exc)
        if key in log.disabled:
            self.rebind()


def _keep_pre(annotation, term, ctx, state):
    """A quarantined slot's ``pre``: the state passes through."""
    return state


def _keep_post(annotation, term, ctx, value, state):
    """A quarantined slot's ``post``: the state passes through."""
    return state


__all__ = ["Claim", "SiteBinding", "SiteTable", "site_key"]
