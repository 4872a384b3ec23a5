"""Property tests tying the static analyzer to the dynamic semantics.

Two guarantees, over randomly generated programs:

* **scope soundness** — a program the analyzer calls clean (no ``REP101``)
  never raises an unbound-identifier error at runtime, on either engine;
  and a program with an injected free variable is always flagged.
* **disjointness fidelity** — the pure :func:`disjoint_verdict` agrees
  exactly (including the message) with the legacy raising
  :func:`check_disjoint`, and with the cache-memoized form, over random
  (program, stack) pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.errors import EvalError, MonitorError
from repro.languages import strict
from repro.monitoring.derive import check_disjoint, disjoint_verdict
from repro.runtime import CompilationCache
from repro.syntax.ast import App, Lam, Var
from repro.toolbox.registry import make_tool

from tests.generators import closed_program

MAX_STEPS = 2_000_000


def _unbound_codes(program):
    return [d.code for d in analyze(program).diagnostics if d.code == "REP101"]


@settings(max_examples=80, deadline=None)
@given(closed_program())
def test_clean_programs_never_raise_unbound(program):
    assert _unbound_codes(program) == []
    for engine in ("reference", "codegen"):
        try:
            strict.evaluate(program, max_steps=MAX_STEPS, engine=engine)
        except EvalError as exc:
            assert "unbound" not in str(exc).lower(), (
                f"analyzer-clean program raised an unbound error on {engine}"
            )


@settings(max_examples=60, deadline=None)
@given(closed_program(), st.sampled_from(["zz_free", "qq_free", "phantom"]))
def test_injected_free_variable_is_flagged(program, name):
    # Wrap the program so its value flows through an application whose
    # operator mentions an identifier bound nowhere.
    poisoned = App(Lam("it", App(App(Var("+"), Var("it")), Var(name))), program)
    codes = _unbound_codes(poisoned)
    assert codes == ["REP101"]


_STACKS = st.sampled_from(
    [
        (),
        ("profile",),
        ("count",),
        ("profile", "count"),
        ("profile", "trace"),
        ("count", "count"),
        ("trace", "collect", "profile"),
    ]
)


@settings(max_examples=60, deadline=None)
@given(closed_program(), _STACKS)
def test_disjoint_verdict_matches_legacy_check(program, names):
    monitors = [make_tool(name) for name in names]
    verdict = disjoint_verdict(monitors, program)
    if verdict is None:
        check_disjoint(monitors, program)  # must not raise
    else:
        try:
            check_disjoint(monitors, program)
        except MonitorError as exc:
            assert str(exc) == verdict
        else:
            raise AssertionError("verdict says reject, legacy check passed")


@settings(max_examples=40, deadline=None)
@given(closed_program(), _STACKS)
def test_cached_verdict_matches_legacy_check(program, names):
    monitors = [make_tool(name) for name in names]
    cache = CompilationCache()
    verdict = disjoint_verdict(monitors, program)
    for _ in range(2):  # cold then warm: memoized replay must agree
        if verdict is None:
            cache.check_disjoint(monitors, program)
        else:
            try:
                cache.check_disjoint(monitors, program)
            except MonitorError as exc:
                assert str(exc) == verdict
            else:
                raise AssertionError("memoized verdict lost the rejection")
