"""The serving runtime: run configuration, compilation cache, batching.

This package is the system's "many requests" layer, sitting above the
single-run monitoring pipeline:

* :mod:`repro.runtime.config` — :class:`RunConfig`, the one frozen value
  consolidating every run option (``engine``, ``fault_policy``,
  ``max_steps``, telemetry, ``answers``, ``check_disjointness``,
  ``timeout``, ...), the only way every entry point takes run options;
* :mod:`repro.runtime.cache` — :class:`CompilationCache`, a thread-safe
  LRU over generated programs keyed by (program hash, language,
  monitor-stack identity, optimization level);
* :mod:`repro.runtime.batch` — :class:`BatchRunner`/:func:`run_batch`
  executing :class:`RunRequest` batches in process and in order with
  per-request isolation and timeouts;
* :mod:`repro.runtime.process_pool` — :class:`ProcessPoolRunner`, the
  multi-core tier: forked workers with pre-warmed per-worker caches,
  program-fingerprint request routing, bounded per-worker backpressure
  (:class:`OverloadedError`) and crash detection + restart (a crash
  fails only the request in flight; queued requests go to the
  replacement);
* :mod:`repro.runtime.serve` — :class:`Server`, the long-lived
  JSONL-over-socket daemon (``repro serve``) in front of the process
  pool.

Each name is imported on first use, so ``RunConfig`` alone never loads
the process pool or the socket daemon.  ``batch`` reaches back into
``monitoring``/``toolbox`` inside functions so that those modules may in
turn import :class:`RunConfig` without a cycle.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "RunConfig": "repro.runtime.config",
        "CacheStats": "repro.runtime.cache",
        "CompilationCache": "repro.runtime.cache",
        "cache_key": "repro.runtime.cache",
        "program_fingerprint": "repro.runtime.cache",
        "BatchRunner": "repro.runtime.batch",
        "RunRequest": "repro.runtime.batch",
        "RunResult": "repro.runtime.batch",
        "admission_failure": "repro.runtime.batch",
        "admit": "repro.runtime.batch",
        "execute_request": "repro.runtime.batch",
        "language_by_name": "repro.runtime.batch",
        "run_batch": "repro.runtime.batch",
        "DEFAULT_QUEUE_DEPTH": "repro.runtime.process_pool",
        "DEFAULT_WORKERS": "repro.runtime.process_pool",
        "OverloadedError": "repro.runtime.process_pool",
        "ProcessPoolRunner": "repro.runtime.process_pool",
        "route_key": "repro.runtime.process_pool",
        "Server": "repro.runtime.serve",
    },
)
