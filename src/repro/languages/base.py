"""Common scaffolding for language modules."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ReproError
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.machine import Functional, final_kont
from repro.semantics.trampoline import trampoline

#: The execution engines a language may support.  ``reference`` is the
#: direct transliteration of the paper's semantics (the oracle);
#: ``codegen`` specializes the monitored program to native Python source
#: (:mod:`repro.partial_eval.codegen`).
ENGINES: Tuple[str, ...] = ("reference", "codegen")

#: The engine × language capability matrix — the single source of truth
#: consulted by :class:`~repro.runtime.config.RunConfig` validation,
#: ``run_monitored``'s dispatch, and the CLI's ``--engine`` help.  ``None``
#: means the engine supports every language.
ENGINE_LANGUAGES: dict = {
    "reference": None,
    "codegen": ("strict",),
}

#: One-line descriptions, surfaced in CLI help text.
ENGINE_DESCRIPTIONS: dict = {
    "reference": "paper-faithful trampolined interpreter (all languages)",
    "codegen": "specialized native Python source, fastest tier",
}


def check_engine(engine: str) -> None:
    """Reject unknown engine names with an actionable error."""
    if engine not in ENGINES:
        raise ReproError(
            f"unknown engine {engine!r}; choose one of {', '.join(map(repr, ENGINES))}"
        )


def engine_supports(engine: str, language_name: str) -> bool:
    """Whether ``engine`` can run programs of the named language."""
    supported = ENGINE_LANGUAGES.get(engine)
    return supported is None or language_name in supported


def check_engine_support(engine: str, language_name: str) -> None:
    """Reject engine/language pairs outside the capability matrix."""
    check_engine(engine)
    if not engine_supports(engine, language_name):
        supported = ENGINE_LANGUAGES[engine]
        names = " or ".join(supported)
        raise ReproError(
            f"engine={engine!r} currently supports the {names} language only, "
            f"not {language_name!r}; use engine='reference'"
        )


def engine_help() -> str:
    """The ``--engine`` flag's help text, derived from the matrix."""
    parts = []
    for engine in ENGINES:
        desc = ENGINE_DESCRIPTIONS[engine]
        supported = ENGINE_LANGUAGES[engine]
        if supported is not None:
            desc += f"; {' / '.join(supported)} language only"
        parts.append(f"{engine} = {desc}")
    return "execution engine: " + "; ".join(parts)


class BaseLanguage:
    """Shared driver logic for languages whose programs are single expressions.

    Subclasses provide ``name``, :meth:`functional` and
    :meth:`initial_context`; programs are evaluated in that context with
    the standard initial continuation ``{\\v. phi v}``.  Which engines run
    a language is :data:`ENGINE_LANGUAGES`.
    """

    name = "base"

    def functional(self) -> Functional:
        raise NotImplementedError

    def initial_context(self):
        raise NotImplementedError

    def run_program(
        self,
        program,
        eval_fn,
        *,
        answers: AnswerAlgebra = STANDARD_ANSWERS,
        ms=None,
        deadline: Optional[float] = None,
    ):
        """Drive ``eval_fn`` over ``program`` and return ``(answer, ms)``.

        ``deadline`` is an optional ``perf_counter`` timestamp enforced
        cooperatively by the trampoline (per-request timeouts in the batch
        runtime).
        """
        ctx = self.initial_context()
        step = eval_fn(program, ctx, final_kont(answers), ms)
        return trampoline(step, deadline=deadline)

    def evaluate(self, program, *, config=None):
        """The program's answer under this language's *standard* semantics.

        This is :func:`~repro.monitoring.derive.run_monitored` over the
        empty stack, which derives nothing (Definition 4.2), so its engine,
        its limits and its re-run of a too-deep codegen run on the
        reference engine are the ones every monitored run gets.  Run
        options come from ``config`` (a :class:`repro.runtime.RunConfig`;
        ``None`` means the defaults).
        """
        from repro.monitoring.derive import run_monitored

        return run_monitored(self, program, (), config=config).answer

    def __repr__(self) -> str:
        return f"<language {self.name}>"
