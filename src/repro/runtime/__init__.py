"""The serving runtime: run configuration, compilation cache, batching.

This package is the system's "many requests" layer, sitting above the
single-run monitoring pipeline:

* :mod:`repro.runtime.config` — :class:`RunConfig`, the one frozen value
  consolidating every run option (``engine``, ``fault_policy``,
  ``max_steps``, telemetry, ``answers``, ``check_disjointness``,
  ``timeout``), accepted as ``config=`` by every entry point;
* :mod:`repro.runtime.cache` — :class:`CompilationCache`, a thread-safe
  LRU over staged-compiled programs keyed by (program hash, language,
  monitor-stack identity, fault policy, counted flag);
* :mod:`repro.runtime.batch` — :class:`BatchRunner`/:func:`run_batch`
  executing :class:`RunRequest` batches over a worker pool with
  per-request isolation and timeouts, and the :class:`Runtime` facade
  tying config + cache + pool together;
* :mod:`repro.runtime.process_pool` — :class:`ProcessPoolRunner`, the
  multi-core tier: forked workers with pre-warmed per-worker caches,
  program-fingerprint request routing, bounded-queue backpressure
  (:class:`OverloadedError`) and crash detection + restart;
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
        "DEFAULT_WORKERS": "repro.runtime.batch",
        "BatchRunner": "repro.runtime.batch",
        "RunRequest": "repro.runtime.batch",
        "RunResult": "repro.runtime.batch",
        "Runtime": "repro.runtime.batch",
        "admission_failure": "repro.runtime.batch",
        "check_timeout": "repro.runtime.batch",
        "execute_request": "repro.runtime.batch",
        "language_by_name": "repro.runtime.batch",
        "run_batch": "repro.runtime.batch",
        "DEFAULT_QUEUE_DEPTH": "repro.runtime.process_pool",
        "OverloadedError": "repro.runtime.process_pool",
        "ProcessPoolRunner": "repro.runtime.process_pool",
        "route_key": "repro.runtime.process_pool",
        "Server": "repro.runtime.serve",
    },
)
