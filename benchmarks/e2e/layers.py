"""Per-layer metrics of a traced run.

Every layer metric is emitted on every workload.  A time is the median,
over the requests that entered the layer, of the request's self time in
it; a layer a workload never enters reads 0.  ``README.md`` lists which
number each metric should move, on which workload.

The ``client.*`` rows are what the workload's client saw in the plain
half of the run: for each round (see :mod:`benchmarks.e2e.workloads`)
the throughput and latency percentiles over all of its requests, and
the median of each over the rounds.
"""

from __future__ import annotations

from typing import Dict, Iterable

from benchmarks.e2e import catalog
from benchmarks.e2e.catalog import SERVE_SLO_MS
from benchmarks.e2e.corpus import RECORD_STACKS
from benchmarks.e2e.spans import coverage, layer_times, percentile, request_times


def _median(values: Iterable[float]) -> float:
    return percentile(list(values), 50)


def client_metrics(phase) -> Dict[str, float]:
    """Throughput and latency of a plain phase, as medians over its rounds."""
    throughputs, p50s, p90s = [], [], []
    start = 0
    for entry in phase.rounds:
        latencies = phase.latencies_ms[start : start + entry["samples"]]
        start += entry["samples"]
        if latencies and entry["busy_s"] > 0:
            throughputs.append(entry["completed"] / entry["busy_s"])
            p50s.append(percentile(latencies, 50))
            p90s.append(percentile(latencies, 90))
    return {
        "client.throughput_rps": _median(throughputs),
        "client.latency_p50_ms": _median(p50s),
        "client.latency_p90_ms": _median(p90s),
    }


def per_layer(workload: str, plain, traced, spans, counters) -> Dict[str, float]:
    """Layer metrics from the traced phase, with the plain phase as baseline."""
    records = spans.records
    times = layer_times(records)

    def layer(name: str) -> Dict[object, float]:
        return times.get(name, {})

    def p50(name: str) -> float:
        return _median(layer(name).values())

    def ratio_p50(numerators: Dict, denominators: Dict, scale: float = 1.0) -> float:
        return _median(
            scale * numerators[r] / denominators[r]
            for r in numerators
            if r in denominators and denominators[r] > 0
        )

    extra = traced.extra
    # paper.* come from paper.measure, client.teardown_s from the parent.
    metrics = {
        m.name: 0.0 for m in catalog.load().per_layer if not m.name.startswith("paper.")
    }
    metrics.update(client_metrics(plain))
    metrics["syntax.parse_ms"] = p50("syntax.parse")
    metrics["syntax.parse_us_per_node"] = ratio_p50(
        layer("syntax.parse"), extra.get("nodes", {}), 1e3
    )
    metrics["analysis.lint_ms"] = p50("analysis.lint")
    metrics["analysis.flow_ms"] = p50("analysis.flow")
    metrics["monitoring.disjoint_ms"] = p50("monitoring.disjoint")
    metrics["runtime.cache.lookup_ms"] = p50("runtime.cache")
    metrics["runtime.cache.hit_ratio"] = traced.counters.get("cache_hit_ratio", 0.0)
    metrics["runtime.cache.evictions"] = traced.counters.get("cache_evictions", 0)
    metrics["partial_eval.codegen.compile_ms"] = p50("partial_eval.codegen")
    requests = len(request_times(records))
    if requests:
        metrics["partial_eval.codegen.compiles_per_1k"] = (
            1e3 * counters.get("compiles", 0) / requests
        )

    standard, monitored = layer("exec.standard"), layer("exec.monitored")
    metrics["exec.monitored_ms"] = p50("exec.monitored")
    metrics["exec.standard_ms"] = p50("exec.standard")
    metrics["exec.hooks_ms"] = _median(
        monitored[r] - standard[r] for r in monitored if r in standard
    )
    metrics["exec.telemetry_ms"] = p50("exec.telemetry")
    metrics["exec.reference_ms"] = p50("exec.reference")
    metrics["monitors.report_ms"] = p50("monitors.report")
    metrics["runtime.batch.encode_ms"] = p50("runtime.batch.encode")
    metrics["runtime.batch.response_bytes"] = _median(
        extra.get("response_bytes", {}).values()
    )

    roundtrip, worker = extra.get("roundtrip_ms", {}), extra.get("worker_ms", {})
    metrics["runtime.serve.roundtrip_ms"] = _median(roundtrip.values())
    metrics["runtime.serve.worker_ms"] = _median(worker.values())
    metrics["runtime.serve.transport_ms"] = _median(
        roundtrip[r] - worker[r] for r in roundtrip if r in worker
    )
    metrics["runtime.serve.rejected"] = traced.counters.get("rejected", 0)
    metrics["runtime.process_pool.crashes"] = traced.counters.get("crashes", 0)
    if workload == "serve_open":
        late = sum(1 for latency in plain.latencies_ms if latency > SERVE_SLO_MS)
        metrics["runtime.serve.slo_miss_ratio"] = (late + plain.failed) / max(
            1, plain.attempted
        )
        metrics["client.gen_lag_p99_ms"] = percentile(
            list(plain.extra.get("lag_ms", {}).values()), 99
        )

    events = extra.get("events", {})
    metrics["tracing.record_ms"] = p50("tracing.record")
    metrics["tracing.record_events_per_ms"] = ratio_p50(events, layer("tracing.record"))
    metrics["tracing.bytes_per_event"] = ratio_p50(extra.get("bytes", {}), events)
    metrics["tracing.read_ms"] = p50("tracing.read")
    metrics["tracing.fold_ms"] = p50("tracing.fold")
    folded = {r: len(RECORD_STACKS) * n for r, n in events.items()}
    metrics["tracing.fold_events_per_ms"] = ratio_p50(folded, layer("tracing.fold"))
    metrics["replay.open_ms"] = p50("replay.open")
    metrics["replay.seek_ms"] = p50("replay.seek")

    metrics["trace.coverage"] = coverage(records)
    baseline = percentile(plain.latencies_ms, 50)
    if baseline > 0:
        metrics["trace.overhead_ratio"] = percentile(traced.latencies_ms, 50) / baseline
    metrics["tail.latency_p99_ms"] = percentile(plain.latencies_ms, 99)
    return metrics
