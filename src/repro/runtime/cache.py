"""A thread-safe LRU cache for generated programs.

Code generation (:mod:`repro.partial_eval.codegen`) pays its cost once
per (program, monitor stack) and amortizes it over runs — but only if
someone holds on to the :class:`~repro.partial_eval.codegen.GeneratedProgram`.
In a serving setting the "someone" is this cache: requests arrive as
(program, tools) pairs, most of them repeats, and the cache turns the
steady state into pure execution with zero compilation.

The key (:func:`cache_key`) captures everything that affects the
generated code:

* the **program fingerprint** — a SHA-256 of the AST's canonical ``repr``;
* the **language** name;
* the **monitor-stack identity** — each spec's
  :meth:`~repro.monitoring.spec.MonitorSpec.cache_identity`, which is
  structural for scalar-configured specs and degrades to object identity
  for anything it cannot prove inert (always sound, sometimes a missed
  hit);
* the **optimization level** (flow-erased artifacts differ in source).

Nothing else changes the generated code, so nothing else is keyed: the
fault policy, resource limits and telemetry are per-run choices.  Cached
programs are **thread-reusable**: per-run mutable state (the run's
possibly instrumented specs, monitor states, the fault log, the resource
guard, the step tally) lives on the runtime object each
``GeneratedProgram.run`` builds, never in the generated code.

Hits, misses and evictions are counted (:meth:`CompilationCache.stats`)
and — when the cache is built with an ``event_sink`` — surfaced on the
observability event stream as ``cache-hit``/``cache-miss``/``cache-evict``
events carrying a short key digest.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

# Digest memo keyed by id(): AST __eq__/__hash__ are structural (and thus
# O(tree)), so a WeakKeyDictionary would cost as much as the digest it
# saves.  The weakref finalizer evicts on collection; the identity check
# on lookup guards against id reuse beating the finalizer.
_fingerprints: Dict[int, Tuple[weakref.ref, str]] = {}


def program_fingerprint(program) -> str:
    """A stable content digest of a program AST.

    AST nodes are frozen dataclasses whose ``repr`` spells out the whole
    tree, so equal programs — even separately parsed — share a
    fingerprint, while any structural difference (including annotations)
    changes it.  Digests are memoized per AST *object* (serving traffic
    re-submits the same parsed program many times), which never changes
    the result: the nodes are immutable.
    """
    memo_key = id(program)
    entry = _fingerprints.get(memo_key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    digest = hashlib.sha256(repr(program).encode("utf-8")).hexdigest()
    try:
        ref = weakref.ref(
            program, lambda _, k=memo_key: _fingerprints.pop(k, None)
        )
    except TypeError:
        pass  # not weakref-able: still correct, just unmemoized
    else:
        _fingerprints[memo_key] = (ref, digest)
    return digest


def cache_key(
    language,
    program,
    monitors: Sequence,
    *,
    optimize: str = "none",
) -> Tuple:
    """The full cache key for one compilation request (hashable).

    ``optimize`` keeps flow-erased artifacts apart from their unoptimized
    twins (the generated source differs even though behavior is
    identical).
    """
    return (
        program_fingerprint(program),
        getattr(language, "name", str(language)),
        tuple(monitor.cache_identity() for monitor in monitors),
        optimize,
    )


def _key_digest(key: Tuple) -> str:
    """A short JSON-safe digest of a cache key, for event payloads."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:12]


@dataclass
class CacheStats:
    """A point-in-time snapshot of a cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["hit_rate"] = self.hit_rate
        return out


class CompilationCache:
    """An LRU mapping from :func:`cache_key` to generated programs.

    All operations are guarded by one lock; compilation itself runs under
    the lock too, which both guarantees each key is compiled at most once
    and costs nothing in practice (the GIL serializes the CPU-bound
    compiler anyway).  ``maxsize`` bounds memory: inserting beyond it
    evicts the least-recently-used entry.
    """

    def __init__(self, maxsize: int = 128, *, event_sink=None) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._compile_seconds = 0.0
        self._event_sink = event_sink
        # Memoized Section 6 disjointness verdicts, keyed by (program
        # fingerprint, stack identity).  Bounded like the entry map but
        # kept separate: a verdict is a small string-or-None, and reusing
        # the program LRU would let verdict churn evict code.
        self._disjoint: "OrderedDict[Tuple, Optional[str]]" = OrderedDict()
        self._disjoint_hits = 0
        self._disjoint_misses = 0
        # Memoized claim-flow verdicts (repro.analysis.flow), keyed like
        # the disjointness memo.  A FlowAnalysis is keyed purely by
        # pre-order site id, so one verdict serves every structurally
        # equal program object.
        self._flow: "OrderedDict[Tuple, object]" = OrderedDict()
        self._flow_hits = 0
        self._flow_misses = 0

    # -- observability -------------------------------------------------------

    def _emit(self, event_type: str, payload: Dict[str, object]) -> None:
        """Emit one cache event (caller holds the lock)."""
        if self._event_sink is not None:
            self._event_sink.emit(event_type, payload)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                compile_seconds=self._compile_seconds,
                size=len(self._entries),
                maxsize=self.maxsize,
            )

    # -- the cache proper ----------------------------------------------------

    def get_or_compile(
        self,
        language,
        program,
        monitors: Sequence,
        *,
        engine: str = "codegen",
        optimize: str = "none",
    ):
        """Return the generated program for this request, generating on miss.

        The artifact is a :class:`~repro.partial_eval.codegen.GeneratedProgram`
        (``"codegen"`` is the only ``engine`` with an artifact to cache);
        it is thread-reusable, so warm entries serve concurrent batch
        workers under any fault policy, with or without metrics.

        ``optimize="flow"`` erases hooks at sites the claim-flow analysis
        proves unreachable; the verdict itself comes from
        :meth:`flow_verdict`, so warm traffic pays one memo lookup.
        """
        if engine != "codegen":
            raise ValueError(
                f"cache has no compiler for engine {engine!r}; expected 'codegen'"
            )
        if optimize not in ("none", "flow"):
            raise ValueError(
                f"optimize must be 'none' or 'flow', got {optimize!r}"
            )
        key = cache_key(language, program, monitors, optimize=optimize)
        # The flow verdict is memoized under its own lock, so fetch it
        # before taking the entry lock (no nesting).  A hit wastes one
        # memo lookup; optimize="flow" is opt-in, so the default path
        # pays nothing.
        flow = self.flow_verdict(monitors, program) if optimize == "flow" else None
        digest = _key_digest(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._emit("cache-hit", {"key": digest})
                return entry

            start = perf_counter()
            from repro.partial_eval.codegen import generate_program

            # Disjointness is the caller's concern (and separately
            # memoized by check_disjoint).
            generated = generate_program(
                program, monitors, check_disjointness=False, flow=flow
            )
            elapsed = perf_counter() - start
            self._misses += 1
            self._compile_seconds += elapsed
            self._emit("cache-miss", {"key": digest, "compile_time": elapsed})
            self._entries[key] = generated
            while len(self._entries) > self.maxsize:
                evicted_key, _ = self._entries.popitem(last=False)
                self._evictions += 1
                self._emit("cache-evict", {"key": _key_digest(evicted_key)})
            return generated

    def check_disjoint(self, monitors: Sequence, program) -> None:
        """The memoized form of :func:`repro.monitoring.derive.check_disjoint`.

        The Section 6 disjointness verdict is a pure function of the
        program's annotations and the stack's ``recognize`` predicates,
        so it is computed once per (program fingerprint, stack identity)
        and replayed on every warm run — turning the per-run O(program)
        annotation walk into one dict lookup.  Raises
        :class:`~repro.errors.MonitorError` exactly like the uncached
        check when the verdict is bad.
        """
        from repro.errors import MonitorError
        from repro.monitoring.derive import disjoint_verdict

        key = (
            program_fingerprint(program),
            tuple(monitor.cache_identity() for monitor in monitors),
        )
        with self._lock:
            if key in self._disjoint:
                self._disjoint.move_to_end(key)
                verdict = self._disjoint[key]
                self._disjoint_hits += 1
            else:
                verdict = disjoint_verdict(monitors, program)
                self._disjoint[key] = verdict
                self._disjoint_misses += 1
                while len(self._disjoint) > max(self.maxsize, 128):
                    self._disjoint.popitem(last=False)
        if verdict is not None:
            raise MonitorError(verdict)

    def disjoint_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the disjointness memo (for benchmarks)."""
        with self._lock:
            return {
                "hits": self._disjoint_hits,
                "misses": self._disjoint_misses,
                "size": len(self._disjoint),
            }

    def flow_verdict(self, monitors: Sequence, program):
        """The memoized claim-flow verdict (:func:`repro.analysis.flow
        .analyze_flow`) for this program x stack.

        Like :meth:`check_disjoint`, the verdict is a pure function of
        the program and the stack's ``recognize`` predicates, keyed by
        (program fingerprint, stack identity) and bounded separately from
        the program LRU.  Returns the shared
        :class:`~repro.analysis.flow.FlowAnalysis` (frozen — safe across
        threads).
        """
        from repro.analysis.flow import analyze_flow

        key = (
            program_fingerprint(program),
            tuple(monitor.cache_identity() for monitor in monitors),
        )
        with self._lock:
            cached = self._flow.get(key)
            if cached is not None:
                self._flow.move_to_end(key)
                self._flow_hits += 1
                return cached
        verdict = analyze_flow(program, monitors)
        with self._lock:
            self._flow[key] = verdict
            self._flow_misses += 1
            while len(self._flow) > max(self.maxsize, 128):
                self._flow.popitem(last=False)
        return verdict

    def flow_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the claim-flow memo (for benchmarks)."""
        with self._lock:
            return {
                "hits": self._flow_hits,
                "misses": self._flow_misses,
                "size": len(self._flow),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._disjoint.clear()
            self._flow.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"<CompilationCache size={stats.size}/{stats.maxsize} "
            f"hits={stats.hits} misses={stats.misses}>"
        )


__all__ = [
    "CacheStats",
    "CompilationCache",
    "cache_key",
    "program_fingerprint",
]
