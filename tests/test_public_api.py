"""Release-sanity checks on the public API surface."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.cli",
    "repro.errors",
    "repro.languages",
    "repro.languages.exceptions",
    "repro.languages.imp_syntax",
    "repro.languages.imperative",
    "repro.languages.lazy",
    "repro.languages.strict",
    "repro.monitoring",
    "repro.monitoring.transformers",
    "repro.monitoring.validate",
    "repro.monitors",
    "repro.monitors.interactive",
    "repro.monitors.statistics",
    "repro.monitors.unwind",
    "repro.observability",
    "repro.observability.events",
    "repro.observability.instrument",
    "repro.observability.metrics",
    "repro.observability.sinks",
    "repro.partial_eval",
    "repro.partial_eval.bta",
    "repro.partial_eval.codegen",
    "repro.partial_eval.online",
    "repro.partial_eval.postprocess",
    "repro.prelude",
    "repro.runtime",
    "repro.runtime.batch",
    "repro.runtime.cache",
    "repro.runtime.config",
    "repro.runtime.process_pool",
    "repro.runtime.serve",
    "repro.semantics",
    "repro.semantics.denotational",
    "repro.semantics.monadic",
    "repro.syntax",
    "repro.testing",
    "repro.toolbox",
]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


def test_top_level_all_resolvable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


#: Packages whose exports resolve on first use (PEP 562 ``__getattr__``).
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.languages",
    "repro.monitoring",
    "repro.monitors",
    "repro.observability",
    "repro.partial_eval",
    "repro.replay",
    "repro.runtime",
    "repro.semantics",
    "repro.toolbox",
    "repro.tracing",
]


@pytest.mark.parametrize("module_name", LAZY_PACKAGES + ["repro.syntax"])
def test_package_all_resolvable(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"
        assert name in dir(module)


def test_lazy_exports_resolve_to_objects_not_modules():
    """Every lazy ``__all__`` name resolves, and never to a module.

    ``repro.tracing.record``, ``repro.monitoring.compose`` and
    ``repro.languages.strict`` each name both an export and the submodule
    defining it; importing the submodule first must not shadow the
    export.  A fresh interpreter imports every submodule before reading
    any name, which is the order that would expose the shadowing.
    """
    import os
    import subprocess
    import sys

    script = f"""
import importlib, pkgutil, types
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
bad = []
for package in {LAZY_PACKAGES!r}:
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, types.ModuleType):
            bad.append(package + "." + name)
print(bad)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out.strip() == "[]"


def test_runtime_exports_at_top_level():
    """The serving runtime's facade is part of the one-import surface."""
    for name in (
        "RunConfig",
        "RunRequest",
        "RunResult",
        "Runtime",
        "BatchRunner",
        "CompilationCache",
        "run_batch",
    ):
        assert hasattr(repro, name), f"repro.{name} missing"
        assert name in repro.__all__, f"repro.__all__ misses {name!r}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_every_module_has_docstring():
    for module_name in PACKAGES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
