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
        sink = InMemorySink()
        cache = CompilationCache(1, event_sink=sink)
        cache.get_or_compile(strict, parse("1 + 1"), [])
        cache.get_or_compile(strict, parse("1 + 1"), [])
        cache.get_or_compile(strict, parse("2 + 2"), [])
        stats = cache.stats()
        assert len(sink.of_type("cache-hit")) == stats.hits == 1
        assert len(sink.of_type("cache-miss")) == stats.misses == 2
        assert len(sink.of_type("cache-evict")) == stats.evictions == 1


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
        from repro.monitoring.faults import fault_tuples

        assert (
            fault_tuples(cold.faults)
            == fault_tuples(warm.faults)
            == fault_tuples(oracle.faults)
        )
        assert len(oracle.faults) >= 1  # the flake actually fired

    def test_fault_policies_share_one_entry(self):
        from repro.monitoring.faults import FlakyMonitor, InjectedFault
        from repro.monitoring.faults import fault_tuples

        program = parse(FAC)
        cache = CompilationCache(4)

        def flaky():
            return FlakyMonitor(ProfilerMonitor(), fail_on=2)

        records = {}
        for policy in ("quarantine", "log"):
            cached = run_monitored(
                strict,
                program,
                flaky(),
                config=RunConfig(engine="codegen", fault_policy=policy),
                cache=cache,
            )
            oracle = run_monitored(
                strict,
                program,
                flaky(),
                config=RunConfig(engine="reference", fault_policy=policy),
            )
            assert cached.answer == oracle.answer
            assert fault_tuples(cached.faults) == fault_tuples(oracle.faults)
            records[policy] = fault_tuples(cached.faults)
        with pytest.raises(InjectedFault):
            run_monitored(
                strict,
                program,
                flaky(),
                config=RunConfig(engine="codegen", fault_policy="propagate"),
                cache=cache,
            )
        # One artifact served all three policies, each with its own records.
        assert cache.stats().misses == 1 and cache.stats().hits == 2
        assert len(records["quarantine"]) == 1
        assert len(records["log"]) > 1

    def test_metrics_runs_share_the_cached_artifact(self):
        from repro.observability import RunMetrics

        program = parse(FAC)
        cache = CompilationCache(4)
        cfg = RunConfig(engine="codegen")
        run_monitored(strict, program, ProfilerMonitor(), config=cfg, cache=cache)
        expected = RunMetrics()
        run_monitored(
            strict, program, ProfilerMonitor(), config=RunConfig(metrics=expected)
        )
        for limits in ({}, {"max_steps": 10_000}):
            metrics = RunMetrics()
            counted = run_monitored(
                strict,
                program,
                ProfilerMonitor(),
                config=RunConfig(engine="codegen", metrics=metrics, **limits),
                cache=cache,
            )
            assert counted.metrics is metrics
            assert metrics == expected
        # Both metrics-on runs hit the entry the metrics-off run compiled.
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 2)
