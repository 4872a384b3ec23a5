"""``python -m benchmarks.e2e {run,compare}``.

``run`` prints, as the last line of standard output for each workload,
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric (or, with ``--trace 1``, every per-layer metric) by name and
unit.  A human-readable table goes to standard error.  ``--out FILE``
appends each result, with its workload and seed, as a JSON line that
``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from benchmarks.e2e import catalog


def _trace_flag(text: str) -> int:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return int(text)


def build_parser(spec: catalog.Catalogue) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument(
        "--workload",
        choices=spec.workloads,
        help="one workload (default: all four, one after another)",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds", type=float, default=float(spec.run_seconds),
        help="measured seconds per run (default: %(default)s)",
    )
    run.add_argument(
        "--trace", type=_trace_flag, nargs="?", const=1, default=0,
        help="1: the traced run, printing per-layer metrics",
    )
    run.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply the measured time; below 1, also start each workload "
        "once and repeat paper rows less (smoke runs)",
    )
    run.add_argument("--out", help="append results to this JSON-lines file")
    run.add_argument("--trace-out", help="write the traced run's spans here (JSON lines)")

    compare = commands.add_parser(
        "compare", help="compare two result files against the BENCHMARK.json bounds"
    )
    compare.add_argument("before")
    compare.add_argument("after")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    spec = catalog.load()
    args = build_parser(spec).parse_args(argv)
    if args.command == "compare":
        from benchmarks.e2e.compare import compare

        return compare(spec, args.before, args.after)
    return _run(spec, args)


def _run(spec: catalog.Catalogue, args) -> int:
    from benchmarks.e2e import harness

    try:
        harness.check_checkout()
    except (harness.BenchmarkError, ImportError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    small = args.scale < 1.0
    workloads = [args.workload] if args.workload else spec.workloads
    for workload in workloads:
        spans_out = args.trace_out
        if spans_out and len(workloads) > 1:
            spans_out = f"{spans_out}.{workload}"
        try:
            result = harness.run_workload(
                workload,
                args.seed,
                args.seconds * args.scale,
                trace=bool(args.trace),
                cycles=1 if small else None,
                paper_repeats=2 if small else 7,
                spans_out=spans_out,
            )
        except harness.BenchmarkError as exc:
            print(f"benchmark: {workload}: {exc}", file=sys.stderr)
            return 1
        errors = result.pop("errors")
        _report(workload, args.seed, result, errors)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                entry = {
                    "workload": workload,
                    "seed": args.seed,
                    "trace": args.trace,
                    "seconds": args.seconds * args.scale,
                    "result": result,
                }
                handle.write(json.dumps(entry) + "\n")
        print(json.dumps(result), flush=True)
    return 0


def _report(workload: str, seed: int, result, errors: List[str]) -> None:
    state = "correct" if result["correct"] else "INCORRECT"
    print(
        f"{workload} seed={seed}: {state}, {result['attempted']} attempted, "
        f"{result['failed']} failed",
        file=sys.stderr,
    )
    for error in errors:
        print(f"  failure: {error}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.4f} {metric['unit']}", file=sys.stderr)
