"""Tests for the trampoline driver."""

import pytest

from repro.errors import EvaluationTimeout, StepLimitExceeded
from repro.semantics.trampoline import STEP_BATCH, Bounce, Done, trampoline


def countdown(n):
    if n == 0:
        return Done("done")
    return Bounce(countdown, (n - 1,))


class TestTrampoline:
    def test_immediate_done(self):
        assert trampoline(Done(42)) == 42

    def test_bounce_chain(self):
        assert trampoline(countdown(1000)) == "done"

    def test_very_deep_chain_constant_stack(self):
        assert trampoline(countdown(1_000_000)) == "done"

    def test_non_step_rejected(self):
        with pytest.raises(TypeError):
            trampoline("not a step")

    def test_exception_propagates(self):
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            trampoline(Bounce(boom, ()))

    def test_repr(self):
        assert "countdown" in repr(Bounce(countdown, (1,)))
        assert "Done" in repr(Done(1))


class TestBatchedDeadline:
    """The deadline is read once per batch of bounces, never in between."""

    def test_batch_finishes_before_the_clock_is_read(self):
        assert trampoline(countdown(STEP_BATCH), deadline=0.0) == "done"

    def test_past_deadline_stops_at_the_batch_boundary(self):
        with pytest.raises(EvaluationTimeout):
            trampoline(countdown(STEP_BATCH + 1), deadline=0.0)


class TestBatchedStepLimit:
    """The error a step budget raises.  The budget counts expression-node
    evaluations outside the trampoline (``tests/test_step_tally.py``)."""

    def test_consumed_defaults_to_limit(self):
        exc = StepLimitExceeded(50)
        assert exc.limit == 50
        assert exc.consumed == 50
