"""Tests for the trampoline driver."""

import pytest

from repro.errors import StepLimitExceeded
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

    def test_step_limit_exceeded(self):
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(100), max_steps=50)
        assert exc.value.limit == 50

    def test_step_limit_sufficient(self):
        assert trampoline(countdown(100), max_steps=100) == "done"

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


class TestBatchedStepLimit:
    """Limits are exact even though the driver checks them in batches."""

    def test_limit_exactly_at_batch_boundary(self):
        assert trampoline(countdown(STEP_BATCH), max_steps=STEP_BATCH + 1) == "done"

    def test_limit_one_below_needed_at_boundary(self):
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(STEP_BATCH + 1), max_steps=STEP_BATCH)
        assert exc.value.limit == STEP_BATCH
        assert exc.value.consumed == STEP_BATCH

    def test_limit_spanning_multiple_batches(self):
        n = 3 * STEP_BATCH + 17
        assert trampoline(countdown(n), max_steps=n + 1) == "done"
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(n + 100), max_steps=n)
        assert exc.value.consumed == n

    def test_consumed_reported_on_small_limit(self):
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(100), max_steps=7)
        assert exc.value.limit == 7
        assert exc.value.consumed == 7
        assert "7" in str(exc.value)

    def test_consumed_defaults_to_limit(self):
        exc = StepLimitExceeded(50)
        assert exc.limit == 50
        assert exc.consumed == 50
