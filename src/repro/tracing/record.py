"""Record mode: run once at full engine speed, emit the minimal trace.

The recorder is itself a :class:`~repro.monitoring.spec.MonitorSpec` — a
single spec claiming *every* annotation — so recording needs no new
engine support: the same derivation that runs a profiler inline runs the
recorder, on the reference interpreter or the codegen tier (where the
pre/post calls are inlined into the residual Python, which is what makes
record mode "full codegen speed plus one dict write per sampled event").

Soundness (§7) is what licenses this: the recorder cannot change the
answer, and the trace it writes is — by the equivalence property suite —
enough to reconstruct what any monitor stack would have observed.

A site records when the filter stack's
:class:`~repro.monitoring.sites.SiteTable` (the one codegen and the fold
index, by the same pre-order ids) claims it, a ``sites=`` selector picks
it and the flow verdict, under ``optimize="flow"``, does not erase it.

Sampling is decided per activation by a pure function of ``(seed, site,
occurrence)`` (:func:`repro.tracing.schema.sample_includes`), never of
wall clock or thread identity, so a sampled trace is byte-identical
across runs, in process or in a process-pool worker.  A ``post`` event
inherits its ``pre``'s decision through a per-site LIFO of pending
activations, keeping pre/post pairs sampled atomically.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EvaluationTimeout
from repro.monitoring.sites import SiteTable, site_key
from repro.monitoring.spec import MonitorSpec
from repro.monitors.common import context_lookup
from repro.tracing.schema import (
    TRACE_VERSION,
    Site,
    TraceError,
    build_site_table,
    canonical_json,
    encode_value,
    sample_includes,
    site_matches,
    value_fingerprint,
)

#: Encodings of the ``values=`` record option.
VALUE_MODES = ("full", "fingerprint")


def _encode_for_mode(mode: str):
    if mode == "full":
        return encode_value
    return lambda value: {"%": "fp", "h": value_fingerprint(value)}


class TraceWriter:
    """Serialize trace records to a path (or any ``.write`` object).

    Writes are line-buffered through the canonical serializer so equal
    record sequences produce byte-equal files.  :meth:`finish` appends
    the end record; :meth:`abort` closes without one, leaving exactly
    the truncated shape the reader diagnoses.
    """

    def __init__(self, out, header: Dict[str, object]) -> None:
        if hasattr(out, "write"):
            self._handle = out
            self._owned = False
            self.path = getattr(out, "name", "<stream>")
        else:
            self._handle = open(out, "w", encoding="utf-8")
            self._owned = True
            self.path = os.fspath(out)
        self.events = 0
        self._closed = False
        self._write(header)

    def _write(self, record: Dict[str, object]) -> None:
        self._handle.write(canonical_json(record))
        self._handle.write("\n")

    def event(self, record: Dict[str, object]) -> None:
        self.events += 1
        self._write(record)

    def input(self, kind: str, value: str) -> None:
        """Write a nondeterministic-input record (v2; see replay)."""
        self._write({"t": "input", "k": kind, "v": value})

    def deadline(self, error: str) -> None:
        """Write the timeout marker (v2): the run died on its deadline.

        The trace stays without an end record — there is no answer — but
        the reader knows it is complete as a record of the timed-out run
        rather than a crash-truncated file.
        """
        self._write({"t": "deadline", "events": self.events, "error": error})
        self.close()

    def finish(self, **footer: object) -> None:
        self._write({"t": "end", "events": self.events, **footer})
        self.close()

    def abort(self) -> None:
        self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._owned:
                self._handle.close()
            else:
                self._handle.flush()


class RecorderSpec(MonitorSpec):
    """The all-claiming monitor that writes the trace.

    Claiming everything is legal for a single-spec stack (Section 6's
    disjointness constraint only bites with two claimants), and is the
    point: one inline pass observes every annotated site once, whatever
    stacks are folded over the result later.

    The spec carries mutable recording state (the writer, occurrence
    counters, the pending-activation LIFOs), so instances are single-run
    and must never be shared or compilation-cached.  ``sites`` is the
    :attr:`~repro.monitoring.sites.SiteTable.index` of the enabled sites.

    ``live`` tees a second monitor through the recorder: the cascade
    strips annotations as it recurses (Section 6), so a recorder stacked
    *above* a live debugger would starve it — instead one all-claiming
    spec records every site and forwards the recognized ones to ``live``,
    carrying its state, key, and report.  This is how an interactive
    debug session is recorded while it happens.
    """

    key = "__record__"
    observes: Tuple[str, ...] = ()

    def __init__(
        self,
        writer: TraceWriter,
        sites: Mapping[Tuple[int, int], Site],
        *,
        sample_rate: float = 1.0,
        seed: int = 0,
        values: str = "full",
        live: Optional[MonitorSpec] = None,
    ) -> None:
        self._writer = writer
        self._sites = sites
        self._rate = float(sample_rate)
        self._seed = int(seed)
        self._encode = _encode_for_mode(values)
        self._occ: Dict[int, int] = {}
        self._pending: Dict[int, List[Tuple[int, bool]]] = {}
        self.sampled_out = 0
        self._live = live
        if live is not None:
            self.key = live.key

    # MSyn: claim every annotation --------------------------------------------
    def recognize(self, annotation):
        return annotation

    def initial_state(self):
        return None if self._live is None else self._live.initial_state()

    def report(self, state):
        if self._live is not None:
            return self._live.report(state)
        return {"events": self._writer.events, "sampled_out": self.sampled_out}

    def host_effects(self) -> bool:
        return True  # every hook writes to the trace file

    def cache_identity(self) -> Tuple:
        # Single-run mutable state: never share compiled artifacts.
        return ("__record__", id(self))

    # MFun: write events -------------------------------------------------------
    def pre(self, annotation, term, ctx, state, inner=None):
        site = self._sites.get(site_key(annotation, term))
        if site is not None:
            site_id = site.site_id
            occ = self._occ.get(site_id, 0) + 1
            self._occ[site_id] = occ
            include = sample_includes(self._seed, site_id, occ, self._rate)
            self._pending.setdefault(site_id, []).append((occ, include))
            if include:
                record: Dict[str, object] = {"t": "pre", "s": site_id, "o": occ}
                if site.params:
                    bindings = {}
                    for param in site.params:
                        value = context_lookup(ctx, param)
                        if value is not None:
                            bindings[param] = self._encode(value)
                    record["b"] = bindings
                self._writer.event(record)
            else:
                self.sampled_out += 1
        # Forward to the live monitor *after* the event record, so input
        # records it consumes land after the event they were consumed at.
        if self._live is not None:
            view = self._live.recognize(annotation)
            if view is not None:
                state = self._live.pre(view, term, ctx, state)
        return state

    def post(self, annotation, term, ctx, result, state, inner=None):
        site = self._sites.get(site_key(annotation, term))
        if site is not None:
            site_id = site.site_id
            pending = self._pending.get(site_id)
            if pending:
                occ, include = pending.pop()
            else:  # unmatched post (control escaped a pre) — deterministic fallback
                occ, include = 0, sample_includes(self._seed, site_id, 0, self._rate)
            if include:
                self._writer.event(
                    {"t": "post", "s": site_id, "o": occ, "v": self._encode(result)}
                )
            else:
                self.sampled_out += 1
        if self._live is not None:
            view = self._live.recognize(annotation)
            if view is not None:
                state = self._live.post(view, term, ctx, result, state)
        return state


@dataclass
class RecordResult:
    """What one recording run produced."""

    answer: object
    trace: str
    events: int
    sites: int
    enabled_sites: int
    sampled_out: int
    metrics: object = None
    #: Final state of the ``live`` tee monitor, when one was supplied.
    live_state: object = None


def _program_source(language_name: str, program, source: Optional[str]):
    """The surface syntax to embed in the header (``None`` if unprintable).

    A re-parse must reproduce the same number of annotated sites, or the
    analyzer's site table would silently shift; when it cannot (or the
    language has no pretty-printer), the header carries no program and
    ``analyze`` requires an explicit ``program=``.
    """
    from repro.languages import parse_source

    if source is None:
        try:
            if language_name == "imperative":
                from repro.languages.imp_syntax import pretty_imp

                source = pretty_imp(program)
            else:
                from repro.syntax.pretty import pretty

                source = pretty(program)
        except Exception:
            return None
    try:
        reparsed = parse_source(language_name, source)
        if len(build_site_table(reparsed)) != len(build_site_table(program)):
            return None
    except Exception:
        return None
    return source


def record(
    language,
    program,
    out,
    *,
    monitors: Sequence[MonitorSpec] = (),
    sites: Optional[Sequence[str]] = None,
    values: str = "full",
    source: Optional[str] = None,
    config=None,
    live: Optional[MonitorSpec] = None,
) -> RecordResult:
    """Run ``program`` once, writing its event trace to ``out``.

    ``out`` is a path or a writable object.  ``monitors`` (optional)
    restricts recording to the sites those specs claim — record only
    what the stacks you intend to fold will look at; ``sites`` further
    restricts by annotation name/rendering/site id.  ``values``
    selects full value capture or content fingerprints.  Run options
    come from ``config`` — among them ``sample_rate``/``trace_seed``,
    the deterministic activation sampling, next to engine, max_steps,
    timeout and metrics.

    ``live`` runs a second monitor inline while recording (see
    :class:`RecorderSpec`); if it consumes commands (an interactive
    debugger), each consumed command is written as an ``input`` record so
    the session replays bit-identically.  Its final state comes back in
    ``RecordResult.live_state``.

    If the program itself fails, the trace is left *without* its end
    record — exactly the truncated shape ``analyze`` diagnoses — and the
    error propagates.  A timeout is different: the deadline firing is a
    *nondeterministic input*, so it is written as a ``deadline`` record
    (the trace is a complete record of a timed-out run) before the
    :class:`~repro.errors.EvaluationTimeout` propagates.
    """
    from repro.monitoring.compose import flatten_monitors
    from repro.monitoring.derive import run_monitored
    from repro.runtime.config import RunConfig

    cfg = RunConfig.checked(config)
    if values not in VALUE_MODES:
        raise TraceError(
            f"values must be one of {', '.join(VALUE_MODES)}, got {values!r}"
        )
    filter_monitors = flatten_monitors(list(monitors)) if monitors else []
    erased = frozenset()
    if cfg.optimize == "flow":
        # Claim-flow analysis proves which sites can never fire; disabling
        # them is fold-equivalent (they produce zero events either way)
        # and shrinks the header's enabled_sites list.
        from repro.analysis.flow import analyze_flow

        erased = analyze_flow(program, filter_monitors).erasable_sites
    table = SiteTable(program, filter_monitors, erased=erased)
    enabled = {
        key: site
        for key, site in table.index.items()
        if (table.claims[site.site_id] or not filter_monitors)
        and site.site_id not in erased
        and (not sites or any(site_matches(site, sel) for sel in sites))
    }
    language_name = getattr(language, "name", "strict")

    from repro.runtime.cache import program_fingerprint

    header: Dict[str, object] = {
        "t": "header",
        "trace_version": TRACE_VERSION,
        "language": language_name,
        "engine": cfg.engine,
        "program": _program_source(language_name, program, source),
        "fingerprint": program_fingerprint(program),
        "sites": len(table.sites),
        "site_annotations": [site.rendered for site in table.sites],
        "sample": {"rate": cfg.sample_rate, "seed": cfg.trace_seed},
        "values": values,
    }
    if len(enabled) != len(table.sites):
        header["enabled_sites"] = [site.site_id for site in enabled.values()]

    writer = TraceWriter(out, header)
    recorder = RecorderSpec(
        writer,
        enabled,
        sample_rate=cfg.sample_rate,
        seed=cfg.trace_seed,
        values=values,
        live=live,
    )
    # An interactive live monitor consumes commands nondeterministically;
    # chain its on_command hook so each consumed command becomes an
    # ``input`` record, positioned at the event it was consumed at.
    chained_on_command = False
    previous_on_command = None
    if live is not None and hasattr(live, "on_command"):
        previous_on_command = live.on_command

        def _log_command(text, _prev=previous_on_command):
            writer.input("command", text)
            if _prev is not None:
                _prev(text)

        live.on_command = _log_command
        chained_on_command = True
    # The recording run itself: inline mode (never recurse into record),
    # propagate faults (the recorder does not fault), no compilation cache
    # (the recorder's writer state is single-run).
    run_cfg = replace(
        cfg,
        mode="inline",
        record_dir=None,
        fault_policy="propagate",
        lint="off",
        check_disjointness=False,
    ).with_fresh_metrics()
    try:
        result = run_monitored(language, program, [recorder], config=run_cfg)
    except EvaluationTimeout as err:
        writer.deadline(str(err) or "evaluation timed out")
        raise
    except BaseException:
        writer.abort()  # leave the honest truncated shape behind
        raise
    finally:
        if chained_on_command:
            live.on_command = previous_on_command
    footer: Dict[str, object] = {"answer": encode_value(result.answer)}
    if result.metrics is not None:
        footer["steps"] = result.metrics.steps
        footer["applications"] = result.metrics.applications
    writer.finish(**footer)
    live_state = result.states.get(recorder.key) if live is not None else None
    return RecordResult(
        answer=result.answer,
        trace=writer.path,
        events=writer.events,
        sites=len(table.sites),
        enabled_sites=len(enabled),
        sampled_out=recorder.sampled_out,
        metrics=result.metrics,
        live_state=live_state,
    )


# -- the RunConfig(mode="record") entry ---------------------------------------

_trace_counter = itertools.count(1)
_trace_lock = threading.Lock()


def record_to_dir(language, program, cfg, **options) -> RecordResult:
    """:func:`record` into a fresh trace file under ``cfg.record_dir``."""
    from repro.runtime.cache import program_fingerprint

    if not cfg.record_dir:
        raise TraceError(
            "mode='record' needs record_dir on the RunConfig (where trace "
            "files go) — or call repro.tracing.record() with an explicit path"
        )
    os.makedirs(cfg.record_dir, exist_ok=True)
    with _trace_lock:
        serial = next(_trace_counter)
    name = f"trace-{program_fingerprint(program)[:12]}-{os.getpid()}-{serial}.jsonl"
    path = os.path.join(cfg.record_dir, name)
    return record(language, program, path, config=cfg, **options)


def record_run(language, program, monitors: Sequence[MonitorSpec], cfg):
    """``run_monitored``'s record-mode branch (returns a ``MonitoredResult``).

    The monitor stack is not *run* — it defines the per-site filter, so a
    record-mode request shaped exactly like an inline one records just
    the sites its stack would observe.  The result carries the trace
    path in ``result.trace``; reports/states are empty (fold them later
    with :func:`repro.tracing.analyze_trace`).
    """
    from repro.monitoring.derive import MonitoredResult
    from repro.monitoring.state import MonitorStateVector

    outcome = record_to_dir(language, program, cfg, monitors=monitors)
    return MonitoredResult(
        answer=outcome.answer,
        states=MonitorStateVector.initial([]),
        monitors=(),
        fault_policy=cfg.fault_policy,
        metrics=outcome.metrics,
        trace=outcome.trace,
    )


__all__ = [
    "RecordResult",
    "RecorderSpec",
    "TraceWriter",
    "VALUE_MODES",
    "record",
    "record_run",
]
