"""T-REPLAY: checkpointed seeks against full-refold time travel.

Run:  python benchmarks/bench_replay.py            # full workload -> stdout
      python benchmarks/bench_replay.py --quick    # CI smoke (smaller trace)

The replay session's claim is that a backward ``seek`` costs at most one
checkpoint interval of folding, never a refold from event zero.  This
script measures that claim on a long recorded trace:

* **Seek-to-midpoint**: ``seek(N)`` then ``seek(N/2)`` on a session with
  the default checkpoint interval, against the same pair of seeks on a
  session whose interval exceeds the trace (so every backward seek *is*
  a full refold).  The checkpointed arm folds ~interval events; the
  refold arm folds ~N/2.
* **Random walk**: a scripted ``back``-heavy cursor walk over the same
  trace, both ways.

Both numbers are **informational only — there is no gate**: the suite
runs on a single-core CI container where wall-clock ratios flake under
load, so the report records the measured speedup and the event counts,
and a human reads them.  The script merges a ``"replay"`` section into
``BENCH_report.json`` (preserving other sections) and always exits 0.
"""

from __future__ import annotations

import os
import sys
import tempfile

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.monitors import HistoryMonitor
from repro.replay import ReplaySession
from repro.runtime.config import RunConfig
from repro.tracing import record

from benchmarks.reporting import bench_arguments, interleaved, merge_section
from benchmarks.workloads import loop_with_trace_hits

from repro.languages.strict import strict

#: Every loop iteration passes through the traced helper: the trace
#: length is what we are scaling, not the program's own work.
FULL_ITERATIONS = 4_000
QUICK_ITERATIONS = 600

#: The default interval under test (mirrors RunConfig's default).
INTERVAL = 512


def _stack():
    # An ample ring: the bench measures folding, not overflow handling.
    return [HistoryMonitor(1_000_000, key="history")]


def _record_trace(iterations: int) -> str:
    handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="bench-replay-")
    os.close(handle)
    program = loop_with_trace_hits(iterations, iterations)
    record(strict, program, path, config=RunConfig(engine="codegen"))
    return path


def measure_seek_to_midpoint(path: str) -> dict:
    checkpointed = ReplaySession(path, _stack(), checkpoint_interval=INTERVAL)
    total = len(checkpointed)
    checkpointed.seek(total)  # populate the index once, outside timing

    def seek_checkpointed():
        checkpointed.seek(total)
        checkpointed.seek(total // 2)

    refolder = ReplaySession(path, _stack(), checkpoint_interval=10**9)
    refolder.seek(total)

    def seek_refold():
        refolder.seek(total)
        refolder.seek(total // 2)

    with_ckpt, without = map(min, interleaved([seek_checkpointed, seek_refold], 5))
    return {
        "events": total,
        "interval": INTERVAL,
        "checkpointed_ms": with_ckpt * 1000,
        "full_refold_ms": without * 1000,
        "speedup": without / max(with_ckpt, 1e-9),
    }


def measure_backward_walk(path: str) -> dict:
    """A back-heavy cursor walk: debugger usage, not a single seek."""

    def walk(session):
        total = len(session)
        session.seek(total)
        position = total
        while position > 0:
            position = max(0, position - max(1, total // 16))
            session.seek(position)

    checkpointed = ReplaySession(path, _stack(), checkpoint_interval=INTERVAL)
    checkpointed.seek(len(checkpointed))
    refolder = ReplaySession(path, _stack(), checkpoint_interval=10**9)
    refolder.seek(len(refolder))

    with_ckpt, without = map(
        min, interleaved([lambda: walk(checkpointed), lambda: walk(refolder)], 3)
    )
    return {
        "steps": 16,
        "checkpointed_ms": with_ckpt * 1000,
        "full_refold_ms": without * 1000,
        "speedup": without / max(with_ckpt, 1e-9),
    }


def run_matrix(quick: bool) -> dict:
    iterations = QUICK_ITERATIONS if quick else FULL_ITERATIONS
    path = _record_trace(iterations)
    try:
        return {
            "workload": f"loop_with_trace_hits({iterations}, {iterations})",
            "quick": quick,
            "seek_to_midpoint": measure_seek_to_midpoint(path),
            "backward_walk": measure_backward_walk(path),
            # Single-core CI box: wall-clock ratios are reported for a
            # human to read, never asserted (see docs/DEBUGGING.md).
            "gate": {"met": True, "informational_only": True},
        }
    finally:
        os.unlink(path)


def print_matrix(result: dict) -> None:
    seek = result["seek_to_midpoint"]
    walk = result["backward_walk"]
    print("T-REPLAY: checkpointed seek vs full refold (informational)")
    print(f"  workload           {result['workload']}")
    print(
        f"  seek-to-midpoint   ckpt {seek['checkpointed_ms']:.2f} ms vs "
        f"refold {seek['full_refold_ms']:.2f} ms "
        f"-> {seek['speedup']:.1f}x over {seek['events']} events "
        f"(interval {seek['interval']})"
    )
    print(
        f"  backward walk      ckpt {walk['checkpointed_ms']:.2f} ms vs "
        f"refold {walk['full_refold_ms']:.2f} ms -> {walk['speedup']:.1f}x"
    )


def main(argv=None) -> int:
    args = bench_arguments(__doc__.splitlines()[0]).parse_args(argv)

    result = run_matrix(args.quick)
    print_matrix(result)
    merge_section(args.output, "replay", result)
    print(f"\nmerged 'replay' section into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
