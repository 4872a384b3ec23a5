"""One artifact identity: a pair of settings shares a derived artifact
exactly when the two agree on everything that artifact reads.

The artifacts are the compiled program (``CompilationCache.get_or_compile``),
the Section 6 disjointness and claim-flow verdict memos, and a replay
checkpoint sidecar.  What each one reads is restated here by hand, so the
property checks the key function from outside: sharing when the declared
inputs agree, and no sharing when any of them differs.
"""

import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.languages.strict import strict
from repro.monitoring.faults import FlakyMonitor
from repro.monitors import LabelCounterMonitor
from repro.replay import ReplaySession
from repro.runtime import CompilationCache
from repro.runtime.cache import artifact_key
from repro.syntax.parser import parse
from repro.tracing.record import record

PROGRAMS = {
    "P": "letrec f = lambda n. if n = 0 then 0 "
    "else ({a}: f (n - 1)) + ({b}: 1) in f 6",
    # P with its labels swapped: another program over the same sites.
    "Q": "letrec f = lambda n. if n = 0 then 0 "
    "else ({b}: f (n - 1)) + ({a}: 1) in f 6",
}

# (identity class, factory): entries 0 and 1 are distinct objects with
# equal configuration, so they must share every artifact.
STACKS = (
    ("plain", lambda: [LabelCounterMonitor()]),
    ("plain", lambda: [LabelCounterMonitor()]),
    ("keyed", lambda: [LabelCounterMonitor(key="n")]),
    ("flaky3", lambda: [FlakyMonitor(LabelCounterMonitor(), fail_on=3)]),
    ("flaky4", lambda: [FlakyMonitor(LabelCounterMonitor(), fail_on=4)]),
)

DOMAINS = {
    "stack": tuple(range(len(STACKS))),
    "program": tuple(PROGRAMS),
    "optimize": ("none", "flow"),
    "fault_policy": ("log", "quarantine"),
    "metrics": (False, True),
    "interval": (3, 5),
    # The sites the trace was recorded over (None = all of them).
    "trace": (None, ("b",)),
}

PROGRAM_READS = ("stack", "program", "optimize")
VERDICT_READS = ("stack", "program")
CHECKPOINT_READS = (
    "stack", "program", "fault_policy", "metrics", "interval", "trace"
)


@st.composite
def setting_pairs(draw):
    """Two settings, the second mostly copied from the first, so that
    pairs agreeing on all of an artifact's inputs are common."""
    first = {
        name: draw(st.sampled_from(domain)) for name, domain in DOMAINS.items()
    }
    second = {
        name: first[name]
        if draw(st.integers(0, 3))
        else draw(st.sampled_from(domain))
        for name, domain in DOMAINS.items()
    }
    return first, second, draw(st.booleans())


def agree(first, second, reads):
    def same(name):
        if name == "stack":
            return STACKS[first[name]][0] == STACKS[second[name]][0]
        return first[name] == second[name]

    return all(same(name) for name in reads)


def stack_of(setting):
    return STACKS[setting["stack"]][1]()


def program_of(setting):
    return parse(PROGRAMS[setting["program"]])


def session_of(path, setting):
    return ReplaySession(
        path,
        stack_of(setting),
        program=program_of(setting),
        fault_policy=setting["fault_policy"],
        metrics=setting["metrics"],
        checkpoint_interval=setting["interval"],
        use_sidecar=True,
    )


SAME = dict(
    stack=0, program="P", optimize="none", fault_policy="log",
    metrics=True, interval=3, trace=None,
)


@settings(max_examples=60, deadline=None)
@given(setting_pairs())
@example((SAME, dict(SAME, stack=1), True))
@example((SAME, dict(SAME, trace=("b",)), True))
@example((SAME, dict(SAME, program="Q"), False))
def test_artifacts_shared_exactly_when_declared_inputs_agree(pair):
    first, second, rerecord = pair

    programs = CompilationCache()
    compiled = programs.get_or_compile(
        strict, program_of(first), stack_of(first), optimize=first["optimize"]
    )
    again = programs.get_or_compile(
        strict, program_of(second), stack_of(second), optimize=second["optimize"]
    )
    assert (again is compiled) == agree(first, second, PROGRAM_READS)

    verdicts = CompilationCache()
    verdicts.check_disjoint(stack_of(first), program_of(first))
    verdicts.flow_verdict(stack_of(first), program_of(first))
    verdicts.check_disjoint(stack_of(second), program_of(second))
    verdicts.flow_verdict(stack_of(second), program_of(second))
    shared = agree(first, second, VERDICT_READS)
    assert verdicts.disjoint_stats()["hits"] == int(shared)
    assert verdicts.flow_stats()["hits"] == int(shared)

    with tempfile.TemporaryDirectory(prefix="identity-") as directory:
        path = os.path.join(directory, "t.jsonl")
        record(strict, parse(PROGRAMS["P"]), path, sites=first["trace"])
        saved = session_of(path, first)
        saved.seek(len(saved))
        assert saved.save_checkpoints()
        if rerecord or second["trace"] != first["trace"]:
            record(strict, parse(PROGRAMS["P"]), path, sites=second["trace"])
        loaded = session_of(path, second)
        if agree(first, second, CHECKPOINT_READS):
            assert len(loaded.checkpoints) > 0
            assert loaded.checkpoints.positions == saved.checkpoints.positions
        else:
            assert len(loaded.checkpoints) == 0


class TestArtifactKey:
    def test_inputs_must_match_the_declaration(self):
        program, stack = parse(PROGRAMS["P"]), [LabelCounterMonitor()]
        assert artifact_key("flow", program, stack) != artifact_key(
            "disjoint", program, stack
        )
        with pytest.raises(TypeError, match="reads"):
            artifact_key("flow", program, stack, optimize="none")
        with pytest.raises(TypeError, match="reads"):
            artifact_key("program", program, stack, optimize="none")
