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


def test_lint_off_runs_load_no_analysis_passes():
    # A lint-off run names StaticAnalysisError (config validation, batch
    # admission) but never runs a pass, so the passes must stay unloaded.
    loaded = _loaded_after(
        "from repro import parse, run_monitored, strict, RunConfig\n"
        "from repro.monitors import ProfilerMonitor\n"
        "from repro.runtime.batch import RunRequest, execute_request\n"
        "program = parse('letrec f = lambda n. {f}: if n = 0 then 0 else f (n - 1) in f 3')\n"
        "for engine in ('reference', 'codegen'):\n"
        "    config = RunConfig(engine=engine)\n"
        "    result = run_monitored(strict, program, ProfilerMonitor(), config=config)\n"
        "    assert result.answer == 0\n"
        "    request = RunRequest(program=program, tools='profile')\n"
        "    assert execute_request(0, request, config=config).ok\n"
    )
    assert "repro.monitoring.derive" in loaded
    passes = ("repro.analysis.scope", "repro.analysis.specs", "repro.analysis.stack")
    leaked = sorted(m for m in passes if m in loaded)
    assert leaked == [], f"a lint-off run loaded {leaked}"


def test_pool_parent_imports_every_toolbox_monitor():
    # Forked workers inherit the parent's modules: a toolbox monitor the
    # parent left out costs every worker an import on its first request.
    _loaded_after(
        "import sys\n"
        "import repro.runtime.process_pool\n"
        "before = set(sys.modules)\n"
        "from repro.toolbox.registry import TOOLBOX\n"
        "for make in TOOLBOX.values():\n"
        "    make()\n"
        "assert set(sys.modules) == before, sorted(set(sys.modules) - before)\n"
    )


def test_batch_starts_no_thread_pool():
    # A batch runs in order on the calling thread, whatever ``workers`` says.
    _loaded_after(
        "import sys\n"
        "from repro.runtime import BatchRunner\n"
        "requests = [{'program': '1 + 2'}, {'program': '3 * 4'}]\n"
        "results = BatchRunner(workers=4).run(requests)\n"
        "assert [result.answer for result in results] == [3, 12]\n"
        "assert 'concurrent.futures.thread' not in sys.modules\n"
    )
