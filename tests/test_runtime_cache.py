"""The generated-program cache: correctness of hits, keys, LRU, threads.

The cache is only allowed to be a *performance* artifact: a warm hit must
be observationally identical to a cold compile, across monitor stacks,
fault policies and engines.  These tests pin that, plus the key
discrimination that makes it sound and the LRU bound that makes it safe
to leave running.
"""

import threading

import pytest

from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import ProfilerMonitor, TracerMonitor
from repro.observability import InMemorySink
from repro.runtime import CompilationCache, RunConfig, cache_key, program_fingerprint
from repro.syntax.parser import parse

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 5"


class TestCacheKey:
    def test_fingerprint_stable_across_parses(self):
        assert program_fingerprint(parse(FAC)) == program_fingerprint(parse(FAC))

    def test_fingerprint_distinguishes_programs(self):
        assert program_fingerprint(parse("1 + 1")) != program_fingerprint(parse("1 + 2"))

    def test_key_distinguishes_monitor_stacks(self):
        program = parse(FAC)
        prof = cache_key(strict, program, [ProfilerMonitor()])
        trace = cache_key(strict, program, [TracerMonitor()])
        both = cache_key(strict, program, [ProfilerMonitor(), TracerMonitor()])
        assert len({prof, trace, both}) == 3

    def test_key_identical_for_equal_spec_instances(self):
        # Two freshly built profilers with the same configuration must
        # share cache entries — that is the point of structural identity.
        program = parse(FAC)
        a = cache_key(strict, program, [ProfilerMonitor(namespace="p")])
        b = cache_key(strict, program, [ProfilerMonitor(namespace="p")])
        assert a == b

    def test_key_distinguishes_fault_policies(self):
        program = parse(FAC)
        keys = {
            cache_key(strict, program, [], fault_policy=policy)
            for policy in ("propagate", "quarantine", "log")
        }
        assert len(keys) == 3

    def test_key_distinguishes_counted_mode(self):
        program = parse(FAC)
        assert cache_key(strict, program, [], counted=True) != cache_key(
            strict, program, [], counted=False
        )


class TestGetOrCompile:
    def test_warm_hit_returns_same_object(self):
        cache = CompilationCache(4)
        program = parse(FAC)
        cold = cache.get_or_compile(strict, program, [ProfilerMonitor()])
        warm = cache.get_or_compile(strict, program, [ProfilerMonitor()])
        assert warm is cold
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_counted_mode_rejected(self):
        cache = CompilationCache(4)
        with pytest.raises(ValueError, match="counted"):
            cache.get_or_compile(strict, parse("1 + 1"), [], counted=True)

    def test_lru_eviction_bounds_size(self):
        cache = CompilationCache(2)
        programs = [parse(f"1 + {n}") for n in range(3)]
        for program in programs:
            cache.get_or_compile(strict, program, [])
        stats = cache.stats()
        assert stats.size == 2 and stats.evictions == 1
        # The oldest entry is gone: asking again is a miss, not a hit.
        cache.get_or_compile(strict, programs[0], [])
        assert cache.stats().hits == 0

    def test_lru_recency_updated_on_hit(self):
        cache = CompilationCache(2)
        a, b, c = (parse(f"2 + {n}") for n in range(3))
        cache.get_or_compile(strict, a, [])
        cache.get_or_compile(strict, b, [])
        cache.get_or_compile(strict, a, [])  # refresh a
        cache.get_or_compile(strict, c, [])  # evicts b, not a
        assert cache.get_or_compile(strict, a, []) is not None
        assert cache.stats().hits == 2  # the refresh + the final a lookup

    def test_concurrent_lookups_compile_once(self):
        cache = CompilationCache(4)
        program = parse(FAC)
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_compile(strict, program, []))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, results))) == 1
        assert cache.stats().misses == 1

    def test_clear(self):
        cache = CompilationCache(4)
        cache.get_or_compile(strict, parse("1 + 1"), [])
        cache.clear()
        assert len(cache) == 0


class TestCacheObservability:
    def test_events_on_the_stream(self):
        sink = InMemorySink()
        cache = CompilationCache(1, event_sink=sink)
        cache.get_or_compile(strict, parse("1 + 1"), [])      # miss
        cache.get_or_compile(strict, parse("1 + 1"), [])      # hit
        cache.get_or_compile(strict, parse("2 + 2"), [])      # miss + evict
        kinds = [event.type for event in sink.events]
        assert kinds == ["cache-miss", "cache-hit", "cache-miss", "cache-evict"]
        miss = sink.of_type("cache-miss")[0]
        assert "key" in miss.payload and miss.payload["compile_time"] >= 0

    def test_replay_reconstructs_cache_counters(self):
        from repro.observability import replay

        sink = InMemorySink()
        cache = CompilationCache(1, event_sink=sink)
        cache.get_or_compile(strict, parse("1 + 1"), [])
        cache.get_or_compile(strict, parse("1 + 1"), [])
        cache.get_or_compile(strict, parse("2 + 2"), [])
        summary = replay(sink.events)
        stats = cache.stats()
        assert summary.cache_hits == stats.hits == 1
        assert summary.cache_misses == stats.misses == 2
        assert summary.cache_evictions == stats.evictions == 1


class TestCachedRunParity:
    """A warm cache hit is observationally identical to a cold run."""

    def test_hit_matches_cold_run_both_engines(self):
        program = parse(FAC)
        reference = run_monitored(strict, program, ProfilerMonitor())
        cache = CompilationCache(4)
        cfg = RunConfig(engine="codegen")
        cold = run_monitored(
            strict, program, ProfilerMonitor(), config=cfg, cache=cache
        )
        warm = run_monitored(
            strict, program, ProfilerMonitor(), config=cfg, cache=cache
        )
        assert cache.stats().hits == 1
        for result in (cold, warm):
            assert result.answer == reference.answer
            assert result.reports() == reference.reports()

    def test_hit_matches_cold_run_with_fault_isolation(self):
        from repro.monitoring.faults import FlakyMonitor

        program = parse(FAC)
        cache = CompilationCache(4)
        cfg = RunConfig(engine="codegen", fault_policy="quarantine")

        def flaky():
            return FlakyMonitor(ProfilerMonitor(), fail_on=2)

        cold = run_monitored(strict, program, flaky(), config=cfg, cache=cache)
        warm = run_monitored(strict, program, flaky(), config=cfg, cache=cache)
        oracle = run_monitored(
            strict,
            program,
            flaky(),
            config=RunConfig(engine="codegen", fault_policy="quarantine"),
        )
        assert cold.answer == warm.answer == oracle.answer
        from repro.observability import fault_tuples

        assert (
            fault_tuples(cold.faults)
            == fault_tuples(warm.faults)
            == fault_tuples(oracle.faults)
        )
        assert len(oracle.faults) >= 1  # the flake actually fired

    def test_telemetry_runs_bypass_the_cache(self):
        from repro.observability import RunMetrics

        program = parse(FAC)
        cache = CompilationCache(4)
        cfg = RunConfig(engine="codegen")
        run_monitored(strict, program, ProfilerMonitor(), config=cfg, cache=cache)
        counted = run_monitored(
            strict,
            program,
            ProfilerMonitor(),
            config=RunConfig(engine="codegen", metrics=RunMetrics()),
            cache=cache,
        )
        # The counted run neither hit nor polluted the cache...
        assert cache.stats().lookups == 1
        # ...and still produced real counters.
        assert counted.metrics is not None and counted.metrics.steps > 0
