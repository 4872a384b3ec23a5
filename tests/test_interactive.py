"""Tests for the interactive debugger front end."""

from repro.monitors.interactive import ConsoleSource, IteratorSource, debug
from repro.runtime import RunConfig
from repro.syntax.parser import parse

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 3"


class TestSources:
    def test_iterator_source(self):
        source = IteratorSource(["a", "b"])
        assert source() == "a"
        assert source() == "b"
        assert source() is None

    def test_console_source_reads(self):
        prompts = []

        def fake_input(prompt):
            prompts.append(prompt)
            return "continue"

        source = ConsoleSource(input_fn=fake_input)
        assert source() == "continue"
        assert prompts == ["(mdb) "]

    def test_console_source_eof(self):
        def raising_input(prompt):
            raise EOFError

        assert ConsoleSource(input_fn=raising_input)() is None


class TestLiveDebugging:
    def test_live_session_with_iterator(self):
        lines = []
        result = debug(
            parse(FAC),
            breakpoints=["fac"],
            source=IteratorSource(["print x", "continue", "quit"]),
            output=lines.append,
        )
        assert result.answer == 6
        assert any("x = 3" in line for line in lines)
        # The live echo and the recorded transcript agree.
        assert "\n".join(lines) + "\n" == result.report()

    def test_script_then_source(self):
        lines = []
        result = debug(
            parse(FAC),
            breakpoints=["fac"],
            script=["print x"],
            source=IteratorSource(["continue", "quit"]),
            output=lines.append,
        )
        assert result.answer == 6
        assert any("stopped at fac (stop #2)" in line for line in lines)

    def test_eof_runs_to_completion(self):
        lines = []
        result = debug(
            parse(FAC),
            breakpoints=["fac"],
            source=IteratorSource([]),
            output=lines.append,
        )
        assert result.answer == 6

    def test_max_steps_threads_through(self):
        import pytest

        from repro.errors import StepLimitExceeded

        with pytest.raises(StepLimitExceeded) as exc:
            debug(
                parse("letrec loop = lambda x. loop x in loop 1"),
                source=IteratorSource([]),
                output=lambda line: None,
                config=RunConfig(max_steps=400),
            )
        assert exc.value.limit == 400

    def test_generous_max_steps_is_harmless(self):
        result = debug(
            parse(FAC),
            breakpoints=["fac"],
            source=IteratorSource([]),
            output=lambda line: None,
            config=RunConfig(max_steps=1_000_000),
        )
        assert result.answer == 6
