"""The workload process: set up, report ready, measure on command, exit.

Run as ``python -m benchmarks.e2e.child INPUTS.json`` by the harness,
which times the span from process start to the ``ready`` line (set-up)
and from its ``exit`` command to process exit (tear-down).  The
protocol is one line each way on stdin/stdout; everything else the
process prints goes to stderr.

``INPUTS.json`` holds the workload name, its generated inputs and the
phase settings.  The last line before exit is ``rss KIB``: the largest
resident set of this process and every process it started and waited
for (the serve daemon and, through it, the daemon's workers).  This
process's own peak is read from ``VmHWM``: its ``ru_maxrss`` would
include the harness's resident size at the moment it was spawned.

After ``run`` the child prints one JSON line with the phase results;
with ``trace`` set it measures half the time plain and half traced,
then the paper rows, and prints per-layer metrics too.
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv) -> int:
    control = sys.stdout
    sys.stdout = sys.stderr  # keep the control channel clean
    with open(argv[0], "r", encoding="utf-8") as handle:
        inputs = json.load(handle)

    from benchmarks.e2e.workloads import WORKLOADS

    traced = bool(inputs["trace"])
    workload = WORKLOADS[inputs["workload"]](inputs["data"])
    try:
        workload.setup(traced)
        control.write("ready\n")
        control.flush()
        command = sys.stdin.readline().strip()
        if command == "run":
            result = _run(workload, inputs, traced)
            control.write(json.dumps(result) + "\n")
            control.flush()
            command = sys.stdin.readline().strip()
        if command not in ("exit", ""):
            raise SystemExit(f"unknown command {command!r}")
    finally:
        workload.close()
    peak = max(_own_peak_kib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    control.write(f"rss {peak}\n")
    control.flush()
    return 0


def _own_peak_kib() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run(workload, inputs, traced: bool):
    seconds = float(inputs["seconds"])
    if not traced:
        return {"phase": workload.measure(seconds).to_dict()}

    from benchmarks.e2e import layers, paper
    from benchmarks.e2e.spans import Spans
    from benchmarks.e2e.workloads import compile_probe

    plain = workload.measure(seconds / 2)
    spans = Spans()
    counters = {}
    with compile_probe(spans, counters):
        traced_phase = workload.measure(seconds / 2, spans)
    if inputs.get("spans_out"):
        spans.write(inputs["spans_out"])
    metrics = layers.per_layer(inputs["workload"], plain, traced_phase, spans, counters)
    metrics.update(paper.measure(repeats=int(inputs["paper_repeats"])))
    result = traced_phase.to_dict()
    result["attempted"] += plain.attempted
    result["failed"] += plain.failed
    result["errors"] = (plain.errors + traced_phase.errors)[:5]
    result["outputs"] = plain.outputs + traced_phase.outputs
    return {"phase": result, "per_layer": metrics}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
