"""One artifact identity, and the thread-safe LRU memos it keys.

Code generation (:mod:`repro.partial_eval.codegen`) pays its cost once
per (program, monitor stack) and amortizes it over runs — but only if
someone holds on to the :class:`~repro.partial_eval.codegen.GeneratedProgram`.
In a serving setting the "someone" is :class:`CompilationCache`:
requests arrive as (program, tools) pairs, most of them repeats, and the
cache turns the steady state into pure execution with zero compilation.

Every derived artifact is a function of exactly the inputs it reads, and
:func:`artifact_key` states them once: the **program fingerprint** (a
SHA-256 of the AST's canonical ``repr``), the **monitor-stack identity**
(each spec's :meth:`~repro.monitoring.spec.MonitorSpec.cache_identity`,
structural for scalar-configured specs and object identity for anything
it cannot prove inert — always sound, sometimes a missed hit), and what
:data:`ARTIFACT_INPUTS` declares for the artifact's kind:

* ``program`` (:func:`cache_key`) — the language and the optimization
  level (flow-erased artifacts differ in source);
* ``disjoint`` and ``flow`` — the Section 6 and claim-flow verdicts read
  nothing more;
* ``checkpoints`` (:mod:`repro.replay.checkpoints`) — a digest of the
  trace file's bytes, the fault policy, metrics on/off and the interval.

Resource limits, telemetry and the fault policy are per-run choices that
leave generated code alone.  Cached programs are **thread-reusable**:
per-run mutable state (the run's possibly instrumented specs, monitor
states, the fault log, the resource guard, the step tally) lives on the
runtime object each ``GeneratedProgram.run`` builds, never in the code.
The program memo counts hits, misses and evictions
(:meth:`CompilationCache.stats`) and, given an ``event_sink``, emits
them as ``cache-hit``/``cache-miss``/``cache-evict`` events carrying a
short key digest.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import Dict, Sequence, Tuple

from repro.runtime.config import OPTIONS

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


#: What each artifact kind reads beyond the program fingerprint and the
#: stack's ``cache_identity`` tuple, in key order.
ARTIFACT_INPUTS: Dict[str, Tuple[str, ...]] = {
    "program": ("language", "optimize"),
    "disjoint": (),
    "flow": (),
    "checkpoints": ("trace", "fault_policy", "metrics", "interval"),
}


def artifact_key(kind: str, program, monitors: Sequence, **inputs) -> Tuple:
    """The identity of one derived artifact (a hashable tuple).

    Two requests share an artifact exactly when their keys are equal,
    that is when they agree on the program, the stack and every input
    :data:`ARTIFACT_INPUTS` declares for ``kind``.  Passing an input the
    kind does not declare, or leaving one out, is a ``TypeError``.
    """
    declared = ARTIFACT_INPUTS[kind]
    if inputs.keys() != set(declared):
        raise TypeError(
            f"a {kind!r} artifact reads {list(declared)}, got {sorted(inputs)}"
        )
    return (
        kind,
        program_fingerprint(program),
        tuple(monitor.cache_identity() for monitor in monitors),
        *(inputs[name] for name in declared),
    )


def cache_key(
    language,
    program,
    monitors: Sequence,
    *,
    optimize: str = "none",
) -> Tuple:
    """The key of one compiled program: :func:`artifact_key`'s ``program``."""
    return artifact_key(
        "program",
        program,
        monitors,
        language=getattr(language, "name", str(language)),
        optimize=optimize,
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


class _Memo:
    """One bounded LRU map from artifact keys to artifacts.

    :meth:`get` builds a missing entry under the memo's lock, so each key
    is built once; inserting beyond ``maxsize`` evicts the least recently
    used entry.  Given an ``event_sink``, each hit, miss and eviction is
    also a ``cache-*`` event.
    """

    def __init__(self, maxsize: int, event_sink=None) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.counts = CacheStats(maxsize=maxsize)
        self._event_sink = event_sink

    def _emit(self, event_type: str, key: Tuple, **payload) -> None:
        if self._event_sink is not None:
            self._event_sink.emit(event_type, {"key": _key_digest(key), **payload})

    def get(self, key: Tuple, build):
        """The entry for ``key``, calling ``build()`` to make it on a miss."""
        counts = self.counts
        with self.lock:
            if key in self.entries:
                self.entries.move_to_end(key)
                counts.hits += 1
                self._emit("cache-hit", key)
                return self.entries[key]
            start = perf_counter()
            entry = build()
            elapsed = perf_counter() - start
            counts.misses += 1
            counts.compile_seconds += elapsed
            self._emit("cache-miss", key, compile_time=elapsed)
            self.entries[key] = entry
            while len(self.entries) > counts.maxsize:
                evicted, _ = self.entries.popitem(last=False)
                counts.evictions += 1
                self._emit("cache-evict", evicted)
            return entry

    def stats(self) -> CacheStats:
        with self.lock:
            return replace(self.counts, size=len(self.entries))

    def verdict_stats(self) -> Dict[str, int]:
        stats = self.stats()
        return {"hits": stats.hits, "misses": stats.misses, "size": stats.size}


class CompilationCache:
    """Generated programs and the verdicts that admit them, memoized.

    Three :class:`_Memo` LRUs keyed by :func:`artifact_key`: programs,
    bounded by ``maxsize``, and the disjointness and flow verdicts, each
    bounded by ``max(maxsize, 128)`` — a verdict is a small value, and
    sharing the program LRU would let verdict churn evict code.
    Compiling under the program memo's lock guarantees each key is
    compiled once and costs nothing in practice (the GIL serializes the
    CPU-bound compiler anyway).
    """

    def __init__(self, maxsize: int = 128, *, event_sink=None) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._programs = _Memo(maxsize, event_sink)
        self._disjoint = _Memo(max(maxsize, 128))
        self._flow = _Memo(max(maxsize, 128))

    def stats(self) -> CacheStats:
        return self._programs.stats()

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
        OPTIONS["optimize"].check_value(optimize)
        # Fetched before the program memo's lock is taken: no lock is
        # ever held while taking another.
        flow = self.flow_verdict(monitors, program) if optimize == "flow" else None

        def compile_program():
            from repro.partial_eval.codegen import generate_program

            # Disjointness is the caller's concern (and separately
            # memoized by check_disjoint).
            return generate_program(
                program, monitors, check_disjointness=False, flow=flow
            )

        key = cache_key(language, program, monitors, optimize=optimize)
        return self._programs.get(key, compile_program)

    def check_disjoint(self, monitors: Sequence, program) -> None:
        """The memoized form of :func:`repro.monitoring.derive.check_disjoint`.

        The Section 6 disjointness verdict is a pure function of the
        program's annotations and the stack's ``recognize`` predicates,
        so it is computed once per ``disjoint`` :func:`artifact_key` and
        replayed on every warm run — turning the per-run O(program)
        annotation walk into one dict lookup.  Raises
        :class:`~repro.errors.MonitorError` exactly like the uncached
        check when the verdict is bad.
        """
        from repro.errors import MonitorError
        from repro.monitoring.derive import disjoint_verdict

        verdict = self._disjoint.get(
            artifact_key("disjoint", program, monitors),
            lambda: disjoint_verdict(monitors, program),
        )
        if verdict is not None:
            raise MonitorError(verdict)

    def disjoint_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the disjointness memo (for benchmarks)."""
        return self._disjoint.verdict_stats()

    def flow_verdict(self, monitors: Sequence, program):
        """The memoized claim-flow verdict (:func:`repro.analysis.flow
        .analyze_flow`) for this program x stack.

        Like :meth:`check_disjoint`, the verdict is a pure function of
        the program and the stack's ``recognize`` predicates, keyed by
        the ``flow`` :func:`artifact_key`.  A FlowAnalysis is keyed purely
        by pre-order site id, so one verdict serves every structurally
        equal program object.  Returns the shared
        :class:`~repro.analysis.flow.FlowAnalysis` (frozen — safe across
        threads).
        """
        from repro.analysis.flow import analyze_flow

        return self._flow.get(
            artifact_key("flow", program, monitors),
            lambda: analyze_flow(program, monitors),
        )

    def flow_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the claim-flow memo (for benchmarks)."""
        return self._flow.verdict_stats()

    def clear(self) -> None:
        for memo in (self._programs, self._disjoint, self._flow):
            with memo.lock:
                memo.entries.clear()

    def __len__(self) -> int:
        with self._programs.lock:
            return len(self._programs.entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._programs.lock:
            return key in self._programs.entries

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"<CompilationCache size={stats.size}/{stats.maxsize} "
            f"hits={stats.hits} misses={stats.misses}>"
        )


__all__ = [
    "ARTIFACT_INPUTS",
    "CacheStats",
    "CompilationCache",
    "artifact_key",
    "cache_key",
    "program_fingerprint",
]
