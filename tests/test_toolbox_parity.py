"""Consolidated parity battery: every toolbox monitor, every execution path.

Uses the public :mod:`repro.testing` helpers: each monitor must validate,
be sound, and produce identical reports from the reference interpreter
and the codegen engine's residual Python program.
"""

import pytest

from repro.monitors import (
    CallGraphMonitor,
    CollectingMonitor,
    CoverageMonitor,
    HistoryMonitor,
    LabelCounterMonitor,
    PairCounterMonitor,
    ProfilerMonitor,
    StatisticsMonitor,
    StepperMonitor,
    TracerMonitor,
    UnwindMonitor,
)
from repro.testing import assert_monitor_well_behaved

#: One program exercising label, header and branch annotations with real
#: recursion, lists and branches.
PROGRAM = """
letrec mul = lambda x. lambda y. {mul(x, y)}: ({mul}: (x * y))
and fac = lambda x. {fac(x)}: ({fac}:
    (if (x = 0) then {base}: 1 else {step}: (mul x (fac (x - 1)))))
and build = lambda n. {build}: (if n = 0 then [] else n :: build (n - 1))
in fac 4 + length (build 3) + hd ({pt}: [9, 1])
"""

MONITORS = [
    PairCounterMonitor("base", "step"),
    ProfilerMonitor(),
    TracerMonitor(),
    CollectingMonitor(),
    LabelCounterMonitor(),
    CoverageMonitor(),
    StepperMonitor(),
    CallGraphMonitor(),
    HistoryMonitor(),
    StatisticsMonitor(),
    UnwindMonitor(),
]


@pytest.mark.parametrize("monitor", MONITORS, ids=lambda m: type(m).__name__)
def test_toolbox_monitor_full_battery(monitor):
    assert_monitor_well_behaved(type(monitor)() if not isinstance(
        monitor, PairCounterMonitor
    ) else PairCounterMonitor("base", "step"), PROGRAM)


def test_program_answer():
    from repro.languages import strict
    from repro.syntax.parser import parse

    # fac 4 = 24, length [3,2,1] = 3, hd [9,1] = 9.
    assert strict.evaluate(parse(PROGRAM)) == 36
