"""Figure 7: the fancy tracer."""

import gc
import tracemalloc

import pytest

from repro.languages import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import TracerMonitor
from repro.monitors.streams import init_stream
from repro.monitors.tracer import init_state, print_chan
from repro.runtime import RunConfig
from repro.syntax.parser import parse

EXPECTED_TRACE = """\
[FAC receives (3)]
|    [FAC receives (2)]
|    |    [FAC receives (1)]
|    |    |    [FAC receives (0)]
|    |    |    [FAC returns 1]
|    |    |    [MUL receives (1 1)]
|    |    |    [MUL returns 1]
|    |    [FAC returns 1]
|    |    [MUL receives (2 1)]
|    |    [MUL returns 2]
|    [FAC returns 2]
|    [MUL receives (3 2)]
|    [MUL returns 6]
[FAC returns 6]
"""


class TestPaperExample:
    def test_section8_trace(self, paper_tracer_program):
        result = run_monitored(strict, paper_tracer_program, TracerMonitor())
        assert result.answer == 6
        assert result.report() == EXPECTED_TRACE

    def test_level_returns_to_zero(self, paper_tracer_program):
        result = run_monitored(strict, paper_tracer_program, TracerMonitor())
        _, level = result.state_of("trace")
        assert level == 0


class TestStateAlgebra:
    def test_init_state(self):
        channel, level = init_state()
        assert level == 0
        assert channel.render() == ""

    def test_print_chan_indents(self):
        channel = print_chan("[X]", 2, init_stream())
        assert channel.render() == "|    |    [X]\n"

    def test_print_chan_pure(self):
        base = init_stream()
        print_chan("a", 0, base)
        assert base.render() == ""


class TestRendering:
    def test_list_arguments(self):
        program = parse(
            "letrec f = lambda l. {f(l)}: (length l) in f [1, 2]"
        )
        result = run_monitored(strict, program, TracerMonitor())
        assert "[F receives ([1, 2])]" in result.report()
        assert "[F returns 2]" in result.report()

    def test_lowercase_option(self, paper_tracer_program):
        result = run_monitored(
            strict, paper_tracer_program, TracerMonitor(uppercase=False)
        )
        assert "[fac receives (3)]" in result.report()

    def test_unbound_parameter_shows_question_mark(self):
        program = parse("{f(zz)}: 1")
        result = run_monitored(strict, program, TracerMonitor())
        assert "[F receives (?)]" in result.report()

    def test_boolean_rendering(self):
        program = parse("letrec f = lambda b. {f(b)}: b in f true")
        result = run_monitored(strict, program, TracerMonitor())
        assert "[F receives (True)]" in result.report()
        assert "[F returns True]" in result.report()

    def test_zero_arg_header(self):
        program = parse("letrec f = lambda x. {f()}: 7 in f 0")
        result = run_monitored(strict, program, TracerMonitor())
        assert "[F receives ()]" in result.report()


class TestSelectivity:
    def test_labels_not_traced(self):
        program = parse("{plain}: 1 + {f(x)}: 2")
        result = run_monitored(strict, program, TracerMonitor())
        assert "plain" not in result.report()
        assert "[F receives" in result.report()

    def test_no_annotations_no_output(self):
        result = run_monitored(strict, parse("1 + 1"), TracerMonitor())
        assert result.report() == ""


FIB_TRACED = (
    "letrec fib = lambda n. {fib(n)}: "
    "if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 12"
)


class TestFootprint:
    """The tracer's live state: one stream node per trace line.

    Byte counts come from tracemalloc, so they do not depend on the
    machine's core count or load.
    """

    @pytest.mark.parametrize("engine", ["reference", "codegen"])
    def test_retained_bytes_per_trace_line(self, engine):
        program = parse(FIB_TRACED)
        config = RunConfig(engine=engine)
        run_monitored(strict, program, TracerMonitor(), config=config)  # warm
        gc.collect()
        tracemalloc.start()
        try:
            result = run_monitored(strict, program, TracerMonitor(), config=config)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        channel, _ = result.state_of("trace")
        lines = len(channel.lines())
        assert lines == 930  # 465 calls, one receives and one returns line each
        assert retained / lines <= 200

    def test_one_chunk_per_line(self, paper_tracer_program):
        result = run_monitored(strict, paper_tracer_program, TracerMonitor())
        channel, _ = result.state_of("trace")
        assert len(channel) == len(channel.lines()) == 14
        assert channel.chunks()[1] == "|    [FAC receives (2)]\n"
