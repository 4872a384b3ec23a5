"""A-COMP: ablation — the cost of cascading monitors (Section 6).

The paper argues monitors compose without interfering; this ablation
measures what a cascade *costs*: stacks of k = 0..3 monitors over the same
program, each monitor owning a disjoint annotation namespace.  The
expected shape: cost grows with the monitoring activity each added
monitor performs, not with some super-linear interaction term.
"""

from statistics import median

import pytest

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitoring.state import MonitorStateVector, SingleSlotVector
from repro.monitors import CollectingMonitor, LabelCounterMonitor, ProfilerMonitor
from repro.syntax.parser import parse

from benchmarks.reporting import interleaved

PROGRAM = parse(
    """
    letrec fib = lambda n.
        {profile: fib}: {count: fib}: {collect: fib}:
        (if n < 2 then n else fib (n - 1) + fib (n - 2))
    in fib 13
    """
)

STACKS = {
    0: [],
    1: [ProfilerMonitor(namespace="profile")],
    2: [
        ProfilerMonitor(namespace="profile"),
        LabelCounterMonitor(namespace="count"),
    ],
    3: [
        ProfilerMonitor(namespace="profile"),
        LabelCounterMonitor(namespace="count"),
        CollectingMonitor(namespace="collect"),
    ],
}


@pytest.mark.parametrize("depth", sorted(STACKS))
def test_cascade_depth(benchmark, depth):
    stack = STACKS[depth]

    if not stack:
        result = benchmark(lambda: strict.evaluate(PROGRAM))
        assert result == 233
        return

    run = benchmark(lambda: run_monitored(strict, PROGRAM, stack))
    assert run.answer == 233
    if depth >= 1:
        # fib 13's call-tree size: c(n) = c(n-1) + c(n-2) + 1, c(0)=c(1)=1.
        assert run.report("profile") == {"fib": 753}


class TestSingleSlotFastPath:
    """The depth-1 cascade rides the copy-free single-slot state vector."""

    def test_single_monitor_run_uses_single_slot_vector(self):
        run = run_monitored(strict, PROGRAM, STACKS[1])
        assert type(run.states) is SingleSlotVector
        multi = run_monitored(strict, PROGRAM, STACKS[3])
        assert type(multi.states) is MonitorStateVector

    def test_single_slot_set_beats_dict_copy(self):
        """``set`` on one slot must not pay the k-slot dict-copy cost.

        A microbenchmark guard rather than a pytest-benchmark row so it
        can assert: interleaved median-of-7 over a tight loop, with a
        generous 1.25x bound (the fast path measures ~2-3x quicker in
        practice).
        """
        single = MonitorStateVector.initial(STACKS[1])
        triple = MonitorStateVector.initial(STACKS[3])
        rounds = 20_000

        def spin(vector, key):
            def thunk():
                v = vector
                for i in range(rounds):
                    v = v.set(key, i)

            return thunk

        t_single, t_triple = map(
            median,
            interleaved([spin(single, "profile"), spin(triple, "profile")], 7),
        )
        assert t_single <= 1.25 * t_triple, (
            f"single-slot set ({t_single:.4f}s) not faster than "
            f"3-slot dict set ({t_triple:.4f}s)"
        )
