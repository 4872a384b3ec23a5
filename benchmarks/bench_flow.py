"""T-FLOW: the claim-flow analysis — verdict cost, memo hit ratio, erasure.

Run:  python benchmarks/bench_flow.py            # full workload -> stdout
      python benchmarks/bench_flow.py --quick    # CI smoke (fewer repeats)

Everything here is **informational** (the script always exits 0): the
flow pass's correctness is gated by the equivalence property suite
(``tests/test_flow_equivalence.py``), and its value is workload-shaped —
how many sites a program's stack can actually reach is a property of the
program, not of this machine.  Three numbers are reported:

* **verdict cost** — wall time of one cold ``analyze_flow`` per
  workload (the price record mode and the lint gate pay once);
* **cache-hit ratio** — a serving-shaped loop of ``get_or_compile(...,
  optimize="flow")`` calls over structurally-equal re-parses: the
  ``CompilationCache`` flow memo should absorb all but the first;
* **erased sites / dead monitors** — what the optimizer proved it may
  drop on each workload.

The script merges a ``"flow"`` section into ``BENCH_report.json``
(preserving other sections written by the rest of the suite).
"""

from __future__ import annotations

import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.analysis import analyze_flow
from repro.languages.strict import strict
from repro.monitors import LabelCounterMonitor, TracerMonitor
from repro.runtime import CompilationCache
from repro.syntax.parser import parse

from benchmarks.reporting import bench_arguments, interleaved, merge_section
from benchmarks.workloads import loop_with_trace_hits, traced_fib

#: A workload with provably-dead surface: a constant-false branch hiding
#: a site and a letrec wrapper annotation (never fired by any engine).
DEAD_SURFACE = (
    "letrec f = {w}: lambda n. {f(n)}: if n < 1 then {base}: 0 "
    "else if false then {dead}: f n else f (n - 1) "
    "in f 64"
)


def _stack():
    return [LabelCounterMonitor(), TracerMonitor()]


def _workloads(quick: bool):
    return [
        ("dead_surface", parse(DEAD_SURFACE)),
        ("fib_traced", traced_fib(8 if quick else 12)),
        ("loop_traced", loop_with_trace_hits(200 if quick else 1000, 10)),
    ]


def measure_verdicts(quick: bool):
    """Per-workload: cold analyze_flow wall time + what it proved."""
    rows = []
    for name, program in _workloads(quick):
        flows = []
        [[elapsed]] = interleaved(
            [lambda: flows.append(analyze_flow(program, _stack()))], 1
        )
        stats = flows[0].stats()
        rows.append(
            {
                "workload": name,
                "verdict_ms": elapsed * 1000,
                "sites": stats["sites"],
                "erased_sites": stats["erased_sites"],
                "dead_monitors": stats["dead_monitors"],
            }
        )
    return rows


def measure_cache_hits(quick: bool):
    """Serving-shaped reuse: N compiles of structurally-equal programs.

    Each request re-parses the source (new AST identity, same
    fingerprint), as the batch/serve runtimes see it; the flow memo
    should miss once and hit N-1 times.
    """
    requests = 10 if quick else 50
    cache = CompilationCache(maxsize=64)

    def serve():
        for _ in range(requests):
            cache.get_or_compile(
                strict,
                parse(DEAD_SURFACE),
                _stack(),
                engine="codegen",
                optimize="flow",
            )

    [[elapsed]] = interleaved([serve], 1)
    stats = cache.flow_stats()
    total = stats["hits"] + stats["misses"]
    return {
        "requests": requests,
        "total_ms": elapsed * 1000,
        "flow_hits": stats["hits"],
        "flow_misses": stats["misses"],
        "hit_ratio": stats["hits"] / total if total else 0.0,
    }


def run_matrix(quick: bool):
    return {
        "quick": quick,
        "informational": True,
        "verdicts": measure_verdicts(quick),
        "cache": measure_cache_hits(quick),
    }


def print_matrix(result) -> None:
    print("=" * 72)
    print("T-FLOW  (claim-flow analysis; informational, never gated)")
    print("=" * 72)
    print(f"{'workload':<16} {'verdict':>10} {'sites':>6} {'erased':>7} {'dead':>5}")
    for row in result["verdicts"]:
        print(
            f"{row['workload']:<16} {row['verdict_ms']:>7.2f} ms "
            f"{row['sites']:>6} {row['erased_sites']:>7} "
            f"{row['dead_monitors']:>5}"
        )
    cache = result["cache"]
    print(
        f"\nflow memo over {cache['requests']} serving-shaped requests: "
        f"{cache['flow_hits']} hits / {cache['flow_misses']} miss(es) "
        f"({cache['hit_ratio']:.0%} hit ratio, {cache['total_ms']:.1f} ms total)"
    )


def main(argv=None) -> int:
    args = bench_arguments(__doc__.splitlines()[0]).parse_args(argv)

    result = run_matrix(args.quick)
    print_matrix(result)
    merge_section(args.output, "flow", result)
    print(f"\nmerged 'flow' section into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
