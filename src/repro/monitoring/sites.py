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

:class:`SiteBinding` is the hook step at a site for codegen's residual and
the trace fold alike.  Quarantine rebinds a disabled slot's sites to
their next claimant, as the cascade falls through to it.
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
    """A :class:`SiteTable` bound to one run's specs, states and fault log.

    :meth:`pre` and :meth:`post` are the only calls of a claim's hooks
    outside the reference derivation.  ``states`` holds the run's
    monitor states by key, updated in place; ``entries[i]`` is site
    ``i``'s claimant as ``(key, view, term, pre, post)``, ``None`` if it
    has none, with an observing spec's ``inner`` view bound in.  A hook
    exception re-raises without a fault log and otherwise goes to it;
    ``reraise`` types are never the monitor's fault (codegen's
    ``RecursionError``: the host stack overflowed).

    Quarantine follows the cascade: a site's claimant is the outermost
    enabled monitor recognizing it, a ``pre`` that quarantines its
    claimant hands the activation to the next one, and the token ``pre``
    returns sends the ``post`` to the claimant whose ``pre`` ran, or
    nowhere once that claimant is quarantined.
    """

    __slots__ = ("table", "specs", "fault_log", "states", "entries", "_reraise")

    def __init__(
        self,
        table: SiteTable,
        specs: Sequence[MonitorSpec],
        fault_log,
        *,
        initial_ms=None,
        reraise: Tuple[type, ...] = (),
    ) -> None:
        self.table = table
        self.specs = {spec.key: spec for spec in specs}
        self.fault_log = fault_log
        self.states = {
            key: initial_ms.get(key) if initial_ms else spec.initial_state()
            for key, spec in self.specs.items()
        }
        self._reraise = reraise
        self.rebind()

    def rebind(self) -> None:
        """Rebuild every entry from the fault log's disabled set.

        A replay checkpoint restores that set and then rebinds.
        """
        disabled = self.fault_log.disabled if self.fault_log is not None else ()
        enabled = [spec for key, spec in self.specs.items() if key not in disabled]
        entries = []
        for site, claim in zip(self.table.sites, self.table.claims):
            if claim is not None and claim.key in disabled:
                claim = _claim(enabled, site)
            entries.append(claim and self._hook(claim, site.body))
        self.entries = entries

    def _hook(self, claim: Claim, term) -> tuple:
        spec = self.specs[claim.key]
        if not spec.observes:
            return (*claim, term, spec.pre, spec.post)
        states, observes = self.states, tuple(spec.observes)

        def pre(view, term, ctx, state):
            return spec.pre(view, term, ctx, state, inner={k: states[k] for k in observes})

        def post(view, term, ctx, value, state):
            inner = {k: states[k] for k in observes}
            return spec.post(view, term, ctx, value, state, inner=inner)

        return (*claim, term, pre, post)

    def claimant(self, site_id: int) -> Optional[str]:
        """The key of the monitor a new activation of ``site_id`` goes to."""
        hook = self.entries[site_id]
        return hook[0] if hook is not None else None

    def pre(self, site_id: int, ctx) -> Optional[str]:
        """Open an activation of ``site_id``; the key of the claimant that ran."""
        hook = self.entries[site_id]
        if hook is None:
            return None
        key, view, term, pre, _ = hook
        states = self.states
        try:
            states[key] = pre(view, term, ctx, states[key])
        except self._reraise:
            raise
        except Exception as exc:
            self._fault(key, "pre", exc)
            if key in self.fault_log.disabled:
                return self.pre(site_id, ctx)  # the next claimant takes it
        return key

    def post(self, site_id: int, ctx, value, token: Optional[str]):
        """Close an activation ``pre`` opened with ``token``; returns ``value``.

        While enabled, the claimant is still the site's entry (the disabled
        set only grows between a ``pre`` and its ``post``).
        """
        hook = self.entries[site_id]
        if hook is not None and hook[0] == token:
            _, view, term, _, post = hook
            states = self.states
            try:
                states[token] = post(view, term, ctx, value, states[token])
            except self._reraise:
                raise
            except Exception as exc:
                self._fault(token, "post", exc)
        return value

    def _fault(self, key: str, phase: str, exc: Exception) -> None:
        """Re-raise ``exc`` under ``propagate``; else log it, dropping its update."""
        log = self.fault_log
        if log is None:
            raise exc
        log.record(key, phase, exc)
        if key in log.disabled:
            self.rebind()


__all__ = ["Claim", "SiteBinding", "SiteTable", "site_key"]
