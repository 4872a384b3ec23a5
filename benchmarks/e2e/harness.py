"""The parent side of a run: inputs, child processes, oracle, metrics.

One run of one workload:

1. generate the workload's inputs from the seed and compute the
   reference-engine oracle (untimed), into a temporary directory inside
   the checkout;
2. start the workload process several times; each start is timed to its
   ``ready`` line (``setup_s``) and each stop from the ``exit`` command
   to process exit (``client.teardown_s`` of the traced run); one start
   also measures;
3. check the measured outputs against the oracle and print one JSON
   result line.

Throughput and latency are not end-to-end metrics: the machines this
runs on slow down by 30-70% for seconds to minutes at a time, which
spreads them by 15-40% across runs, beyond any bound that would catch
a regression.  The traced run reports them per layer
(:mod:`benchmarks.e2e.layers`).

``peak_rss_mb`` is the largest resident set of any process of the
workload's tree (children, their servers and the servers' workers), as
each child reports it on exit (see :mod:`benchmarks.e2e.child`).
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import subprocess
import sys
import tempfile
import threading
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import catalog, corpus
from benchmarks.e2e.catalog import ROOT

#: Workload process starts per untraced run; ``setup_s`` is their median.
#: The start that measures is the middle one, so that the others fall
#: on both sides of the measured phase, seconds apart: a slowdown of the
#: machine then rarely covers most of them.  ``serve_open`` starts fewer:
#: every stop waits out the daemon's 5 s shutdown.
SETUP_CYCLES = 7
SERVE_SETUP_CYCLES = 3

#: Generated ``oneshot`` requests per measured second: headroom over the
#: ~70 req/s the seed commit serves, so the stream never repeats unless
#: the path gets three times faster.
ONESHOT_RATE_HEADROOM = 200


class BenchmarkError(RuntimeError):
    """The harness could not produce a result (not a failed request)."""


def check_checkout() -> None:
    """Refuse to run against anything but this checkout's ``src``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchmarkError(f"no repro package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise BenchmarkError(f"repro imported from {repro.__file__}, not {src}")


def build_inputs(workload: str, seed: int, seconds: float, workdir: str) -> Dict[str, object]:
    """The workload's generated inputs (and expectations) for the child."""
    rel = os.path.relpath(workdir, ROOT)
    if workload == "oneshot":
        from benchmarks.e2e.workloads import Oneshot

        rounds = math.ceil(seconds * ONESHOT_RATE_HEADROOM / Oneshot.round_size)
        return {
            "requests": corpus.oneshot_requests(seed, rounds * Oneshot.round_size),
            "warmup": corpus.oneshot_requests(-1 - seed, 1)[0],
        }
    if workload == "batch_hot":
        return {"chunks": corpus.batch_chunks(seed, 64), "expected": corpus.batch_oracle()}
    if workload == "serve_open":
        generated = corpus.serve_corpus(seed)
        programs, rejects = generated["programs"], generated["rejects"]
        schedule = corpus.serve_schedule(seed)
        lines = [
            '{"id": %d, "program": "letrec f = lambda n.\n' % i
            if kind == "malformed"
            else _serve_line((programs if kind == "ok" else rejects)[index], id=i)
            for i, (kind, index) in enumerate(schedule)
        ]
        with open(os.path.join(workdir, "prewarm.jsonl"), "w", encoding="utf-8") as handle:
            handle.writelines(_serve_line(item) for item in programs[: corpus.SERVE_PREWARM])
        return {
            "warmup": [_serve_line(item) for item in programs],
            "lines": lines,
            "kinds": [kind for kind, _ in schedule],
            "targets": [index for _, index in schedule],
            "expected": corpus.serve_oracle(generated),
            "socket": os.path.join(rel, "serve.sock"),
            "prewarm": os.path.join(rel, "prewarm.jsonl"),
            "server_log": os.path.join(rel, "serve.log"),
        }
    if workload == "record_replay":
        return {
            "cycles": corpus.record_cycles(seed, 4096),
            "expected": corpus.record_oracle(),
            "trace_path": os.path.join(rel, "cycle-trace.jsonl"),
        }
    raise BenchmarkError(f"unknown workload {workload!r}")


def _serve_line(item: Dict[str, str], **extra: object) -> str:
    """One ``repro serve`` request line for a generated program."""
    return json.dumps({**extra, "program": item["text"], "tools": item["tools"]}) + "\n"


class Child:
    """One workload process and its line protocol."""

    def __init__(self, inputs_path: str, log_path: str) -> None:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(log_path, "ab")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.child", inputs_path],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            start_new_session=True,  # one process group: the child and its server
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.pump = threading.Thread(target=self._pump, daemon=True)
        self.pump.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.decode("utf-8"))
        self.lines.put(None)

    def expect(self, timeout: float) -> str:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchmarkError(f"workload process silent for {timeout:.0f} s") from None
        if line is None:
            raise BenchmarkError(f"workload process exited ({self.proc.wait()})")
        return line.strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write((command + "\n").encode("utf-8"))
        self.proc.stdin.flush()

    def stop(self, timeout: float) -> Tuple[float, int]:
        """Ask the process to exit; returns seconds until it has, and the
        peak resident set (KiB) it reported.

        The wait blocks in ``waitpid`` (``Popen.wait`` with a timeout polls
        with growing sleeps, which would quantize the measurement); a timer
        kills the process group if it overstays ``timeout``.
        """
        watchdog = threading.Timer(timeout, self.kill_group)
        watchdog.start()
        try:
            start = perf_counter()
            self.send("exit")
            self.proc.stdin.close()
            code = self.proc.wait()
            elapsed = perf_counter() - start
        finally:
            watchdog.cancel()
        self.pump.join(timeout=10)
        self.log.close()
        if code != 0:
            raise BenchmarkError(f"workload process exited with {code}")
        report = self.expect(timeout=0).split()
        if len(report) != 2 or report[0] != "rss":
            raise BenchmarkError("workload process broke the protocol")
        return elapsed, int(report[1])

    def kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.kill_group()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    cycles: Optional[int] = None,
    paper_repeats: int = 7,
    spans_out: Optional[str] = None,
) -> Dict[str, object]:
    """One run: returns the result line plus the first failures seen."""
    # Inside the checkout, where a run may write.  Paths in the inputs are
    # relative to the checkout root, the cwd of the child and its server,
    # so the serve socket's address stays short whatever the root is.
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=ROOT) as workdir:
        data = build_inputs(workload, seed, seconds, workdir)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": workload,
                    "seconds": seconds,
                    "trace": trace,
                    "paper_repeats": paper_repeats,
                    "spans_out": spans_out,
                    "data": data,
                },
                handle,
            )
        log_path = os.path.join(workdir, "child.log")
        if trace:
            cycles = 1
        elif cycles is None:
            cycles = SERVE_SETUP_CYCLES if workload == "serve_open" else SETUP_CYCLES
        try:
            outcome = _drive(inputs_path, log_path, seconds, cycles)
        except BenchmarkError:
            _echo_log(log_path)
            raise
        return _result(workload, data, outcome, trace)


def _drive(inputs_path: str, log_path: str, seconds: float, cycles: int) -> Dict[str, object]:
    setups: List[float] = []
    teardowns: List[float] = []
    peak_kib = 0
    measured = None
    for cycle in range(cycles):
        child = Child(inputs_path, log_path)
        try:
            if child.expect(timeout=300) != "ready":
                raise BenchmarkError("workload process broke the protocol")
            setups.append(perf_counter() - child.started)
            if cycle == cycles // 2:
                child.send("run")
                measured = json.loads(child.expect(timeout=seconds * 2 + 150))
            elapsed, kib = child.stop(timeout=120)
            teardowns.append(elapsed)
            peak_kib = max(peak_kib, kib)
        finally:
            child.kill()
    return {
        "setups": setups,
        "teardowns": teardowns,
        "rss_mb": peak_kib / 1024.0,
        "measured": measured,
    }


def _echo_log(log_path: str) -> None:
    try:
        with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-4000:]
    except OSError:
        return
    if tail:
        print(tail, file=sys.stderr)


def _result(workload: str, data, outcome, trace: bool) -> Dict[str, object]:
    measured = outcome["measured"]
    phase = measured["phase"]
    failed, errors = phase["failed"], list(phase["errors"])
    if workload == "oneshot":
        requests = data["requests"]
        for index, digest in phase["outputs"]:
            if digest is None:
                continue  # already counted as failed by the child
            expected, findings = corpus.oneshot_oracle(requests[index % len(requests)])
            if findings or digest != expected:
                failed += 1
                if len(errors) < 5:
                    errors.append(
                        f"request {index}: lint {findings}" if findings
                        else f"request {index}: outcome differs from the reference engine"
                    )
    spec = catalog.load()
    if trace:
        values = dict(measured["per_layer"], **{"client.teardown_s": outcome["teardowns"][0]})
        metrics = spec.per_layer
    else:
        values = {"setup_s": median(outcome["setups"]), "peak_rss_mb": outcome["rss_mb"]}
        metrics = spec.end_to_end
    attempted = phase["attempted"]
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in metrics},
        "errors": errors,
    }
