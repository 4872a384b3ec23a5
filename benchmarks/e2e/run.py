"""Run one benchmark workload: the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is ``python -m benchmarks.e2e run`` with the same arguments, runnable
from the checkout root without setting ``PYTHONPATH``.
"""

import os
import sys

# Import the package from the checkout root, not this directory (whose
# module names would otherwise shadow top-level ones).
sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main(["run", *sys.argv[1:]]))
