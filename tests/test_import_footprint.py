"""``import repro`` loads only what the names a caller reads need.

The package boundaries resolve their exports on first use (PEP 562), so a
script that only parses and runs a monitored program never pays for the
process pool, the socket daemon, the partial evaluator or the other
languages.  Each check runs in a fresh interpreter: the test process has
long since imported everything.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Modules the core path must never load.
NOT_LOADED = (
    "semantics.compiled",
    "runtime.process_pool",
    "runtime.serve",
    "partial_eval.online",
    "prelude",
    "replay.debugger",
    "monitors.commands",
    "languages.imperative",
)


def _loaded_after(code):
    """The ``repro`` modules in ``sys.modules`` after running ``code``."""
    script = (
        code
        + "\nimport sys\n"
        + "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return set(out.split())


def test_core_names_load_no_heavy_modules():
    loaded = _loaded_after(
        "import repro\nfrom repro import parse, run_monitored, strict, RunConfig"
    )
    assert "repro.syntax.parser" in loaded
    assert "repro.monitoring.derive" in loaded
    leaked = sorted(m for m in NOT_LOADED if f"repro.{m}" in loaded)
    assert leaked == [], f"import repro loaded {leaked}"


def test_bare_import_loads_almost_nothing():
    loaded = _loaded_after("import repro")
    assert loaded <= {"repro", "repro._lazy"}, sorted(loaded)
