"""The ``codegen`` engine tier wired through the runtime stack.

Parity proper lives in tests/test_engine_parity.py (two-way hypothesis
properties against the reference oracle) and the golden suite; this file
covers the plumbing the engine rides on: the capability matrix, the
compilation cache's ``engine=`` keyword, warm cache hits under a
concurrent batch, resource guards, and the ``repro compile`` subcommand.
"""

import threading
from time import perf_counter

import pytest

from repro.errors import EvaluationTimeout, ReproError, StepLimitExceeded
from repro.languages.base import (
    ENGINE_LANGUAGES,
    ENGINES,
    check_engine_support,
    engine_help,
    engine_supports,
)
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import LabelCounterMonitor, ProfilerMonitor
from repro.observability import RunMetrics
from repro.partial_eval.codegen import generate_program
from repro.runtime import BatchRunner, CompilationCache, RunConfig, RunRequest
from repro.runtime.cache import cache_key
from repro.syntax.parser import parse

FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac 6"
PLAIN_FIB = (
    "letrec fib = lambda n. if n < 2 then n else fib (n - 1) + fib (n - 2) "
    "in fib 10"
)


# -- the capability matrix --------------------------------------------------------


class TestCapabilityMatrix:
    def test_every_engine_has_a_row(self):
        assert set(ENGINE_LANGUAGES) == set(ENGINES)

    def test_reference_supports_everything(self):
        assert engine_supports("reference", "strict")
        assert engine_supports("reference", "lazy")
        assert engine_supports("reference", "anything")

    @pytest.mark.parametrize("engine", ["codegen"])
    def test_fast_engines_are_strict_only(self, engine):
        assert engine_supports(engine, "strict")
        assert not engine_supports(engine, "lazy")

    def test_unsupported_pair_error_names_both_sides(self):
        with pytest.raises(ReproError) as exc:
            check_engine_support("codegen", "lazy")
        message = str(exc.value)
        assert "codegen" in message and "'lazy'" in message
        assert "engine='reference'" in message

    def test_unknown_engine_rejected_first(self):
        with pytest.raises(ReproError) as exc:
            check_engine_support("warp", "strict")
        assert "unknown engine" in str(exc.value)

    def test_run_monitored_consults_the_matrix(self):
        from repro.languages.lazy import lazy

        with pytest.raises(ReproError) as exc:
            run_monitored(lazy, parse("1 + 2"), [], config=RunConfig(engine="codegen"))
        assert "engine='codegen'" in str(exc.value)

    def test_run_config_validates_engine_names(self):
        with pytest.raises(ReproError):
            RunConfig(engine="warp").validate()
        assert RunConfig(engine="codegen").validate().engine == "codegen"

    def test_engine_help_mentions_every_engine(self):
        text = engine_help()
        for engine in ENGINES:
            assert engine in text


# -- the cache's engine keyword ---------------------------------------------------


class TestCacheEngineDimension:
    def test_key_has_no_engine_component(self):
        program = parse("1 + 2")
        with pytest.raises(TypeError):
            cache_key(strict, program, [], engine="codegen")
        assert "codegen" not in cache_key(strict, program, [])

    def test_same_program_compiles_once_per_engine(self):
        cache = CompilationCache()
        program = parse(FAC)
        monitors = [ProfilerMonitor()]
        first = cache.get_or_compile(strict, program, monitors)
        second = cache.get_or_compile(strict, program, monitors, engine="codegen")
        assert first is second
        with pytest.raises(ValueError, match="'compiled'.*expected 'codegen'"):
            cache.get_or_compile(strict, program, monitors, engine="compiled")
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_codegen_artifact_runs_from_cache(self):
        cache = CompilationCache()
        program = parse(FAC)
        generated = cache.get_or_compile(strict, program, [], engine="codegen")
        answer, _ = generated.run()
        assert answer == 720

    def test_unknown_engine_rejected(self):
        cache = CompilationCache()
        with pytest.raises(ValueError):
            cache.get_or_compile(strict, parse("1"), [], engine="warp")

    def test_warm_codegen_runs_through_run_monitored(self):
        cache = CompilationCache()
        program = parse(FAC)
        cold = run_monitored(
            strict,
            program,
            ProfilerMonitor(),
            config=RunConfig(engine="codegen"),
            cache=cache,
        )
        warm = run_monitored(
            strict,
            program,
            ProfilerMonitor(),
            config=RunConfig(engine="codegen"),
            cache=cache,
        )
        assert cold.answer == warm.answer == 720
        assert dict(cold.report()) == dict(warm.report()) == {"fac": 7}
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1


# -- warm cache hits across concurrent batches (the acceptance scenario) ----------


class TestConcurrentBatch:
    def test_eight_thread_batch_with_warm_cache_matches_reference(self):
        # A batch runs in order on its caller's thread; eight callers
        # share one cache, as the threads of one service would.
        cache = CompilationCache()
        requests = [
            RunRequest(
                program=FAC,
                tools="profile",
                config=RunConfig(engine="codegen"),
                tag=f"r{i}",
            )
            for i in range(24)
        ]
        results = []

        def caller(share):
            results.extend(BatchRunner(cache=cache).run(share))

        threads = [
            threading.Thread(target=caller, args=(requests[i::8],)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == len(requests)
        oracle = run_monitored(
            strict, parse(FAC), ProfilerMonitor(), config=RunConfig(engine="reference")
        )
        assert all(r.ok for r in results)
        for result in results:
            assert result.answer == oracle.answer == 720
            assert result.reports == {"profile": dict(oracle.report())}
        stats = cache.stats()
        # One codegen compilation total; every other request was a warm hit.
        assert stats.misses == 1
        assert stats.hits == len(requests) - 1

    def test_one_generated_program_is_thread_reusable(self):
        generated = generate_program(parse(PLAIN_FIB))
        answers = []
        errors = []

        def worker():
            try:
                answer, _ = generated.run()
                answers.append(answer)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert answers == [55] * 8


# -- resource guards --------------------------------------------------------------


LOOP = "letrec loop = lambda n. if n = 0 then 0 else loop (n - 1) in loop {n}"


class TestResourceGuards:
    def test_timeout_raises_evaluation_timeout(self):
        # Exponential work at bounded stack depth, so the cooperative
        # deadline trips long before the host recursion limit matters.
        program = parse(
            "letrec fib = lambda n. if n < 2 then n "
            "else fib (n - 1) + fib (n - 2) in fib 34"
        )
        with pytest.raises(EvaluationTimeout):
            run_monitored(
                strict, program, [], config=RunConfig(engine="codegen", timeout=0.05)
            )

    def test_step_limit_through_run_monitored(self):
        program = parse(LOOP.format(n=100_000))
        with pytest.raises(StepLimitExceeded):
            run_monitored(
                strict, program, [], config=RunConfig(engine="codegen", max_steps=100)
            )

    def test_guarded_variant_reuses_the_artifact(self):
        # One GeneratedProgram serves both plain and budgeted runs.
        generated = generate_program(parse(LOOP.format(n=50)))
        answer, _ = generated.run()
        assert answer == 0
        answer, _ = generated.run(max_steps=1_000)
        assert answer == 0
        with pytest.raises(StepLimitExceeded):
            generated.run(max_steps=10)
        answer, _ = generated.run()  # the plain path still intact
        assert answer == 0

    def test_each_variant_is_built_once(self, monkeypatch):
        # Plain runs and counted runs (a step budget, a deadline, metrics)
        # from many threads share one artifact; each of its two variants
        # is exec'd on first use.
        from repro.partial_eval import codegen

        built = []
        real = codegen._exec_variant

        def counting(generator, counted):
            built.append(counted)
            return real(generator, counted)

        monkeypatch.setattr(codegen, "_exec_variant", counting)
        generated = generate_program(parse(LOOP.format(n=50)))
        options = [
            lambda: {},
            lambda: {"max_steps": 1_000},
            lambda: {"deadline": perf_counter() + 60},
            lambda: {"metrics": RunMetrics()},
        ]
        barrier = threading.Barrier(8)
        answers = []

        def worker(make_options):
            barrier.wait()
            answers.append(generated.run(**make_options())[0])

        threads = [
            threading.Thread(target=worker, args=(options[i % 4],)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert answers == [0] * 8
        assert sorted(built) == [False, True]
        metrics = RunMetrics()
        with pytest.raises(StepLimitExceeded):
            generated.run(max_steps=10, metrics=metrics)
        assert metrics.steps > 10

    def test_host_stack_exhaustion_is_a_clean_eval_error(self):
        # The codegen engine runs on the native Python stack (no
        # trampoline), so recursion past the raised host limit must
        # surface as a ReproError naming the engine trade-off — never
        # as a raw RecursionError traceback.
        generated = generate_program(parse(LOOP.format(n=50_000)))
        with pytest.raises(
            ReproError, match="host recursion depth.*use engine='reference'"
        ):
            generated.run(recursion_limit=5_000)


# -- the repro compile subcommand -------------------------------------------------


class TestCompileCommand:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_summary_output(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "compile", "-e", FAC, "--tools", "profile"
        )
        assert code == 0
        assert "engine: codegen" in out
        assert "monitors: 1 (profile)" in out
        assert "instrumented sites: 1" in out
        assert "--emit-source" in out

    def test_emit_source_prints_residual_python(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "compile", "-e", FAC, "--tools", "profile", "--emit-source"
        )
        assert code == 0
        assert "def _program(_rt):" in out
        assert "_pre(0, " in out and "_post(0, " in out
        # The printed source is the exact artifact the engine runs.
        assert out == generate_program(parse(FAC), [ProfilerMonitor()]).source

    def test_emit_source_to_file(self, capsys, tmp_path):
        target = tmp_path / "residual.py"
        code, out, _ = self.run_cli(
            capsys, "compile", "-e", "1 + 2", "--emit-source",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert "def _program(_rt):" in target.read_text()

    def test_unclaimed_annotations_are_erased(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "compile", "-e", FAC, "--emit-source"
        )
        assert code == 0
        assert "_pre(" not in out  # no stack claims the label: erased

    def test_rejects_unsupported_language(self, capsys):
        code, _, err = self.run_cli(
            capsys, "compile", "-e", "1 + 2", "--language", "lazy"
        )
        assert code == 1
        assert "engine='codegen'" in err


# -- engine flag end to end -------------------------------------------------------


class TestEngineFlag:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_subcommand_accepts_every_engine(self, capsys, engine):
        from repro.cli import main

        code = main(["run", "-e", FAC, "--tools", "profile", "--engine", engine])
        out = capsys.readouterr().out
        assert code == 0
        assert "720" in out
