"""Common scaffolding for language modules."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import HostRecursionError, ReproError
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.machine import Functional, final_kont, fix
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
    the standard initial continuation ``{\\v. phi v}``.  Languages whose
    context is a plain environment may additionally support the codegen
    engine by overriding :meth:`evaluate_codegen`.
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
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        """Drive ``eval_fn`` over ``program`` and return ``(answer, ms)``.

        ``deadline`` is an optional ``perf_counter`` timestamp enforced
        cooperatively by the trampoline (per-request timeouts in the batch
        runtime).
        """
        ctx = self.initial_context()
        step = eval_fn(program, ctx, final_kont(answers), ms)
        return trampoline(step, max_steps=max_steps, deadline=deadline)

    def evaluate(
        self,
        program,
        *,
        answers: AnswerAlgebra = STANDARD_ANSWERS,
        max_steps: Optional[int] = None,
        engine: str = "reference",
        deadline: Optional[float] = None,
    ):
        """Evaluate under this language's *standard* semantics.

        ``engine`` selects the implementation: ``"reference"`` runs the
        paper-faithful interpreter; ``"codegen"`` runs the program
        specialized to native Python source (where the language supports
        it, per :data:`ENGINE_LANGUAGES`).  Both produce identical answers
        and raise identical errors.  A codegen run too deep for the host
        stack is re-run on the reference interpreter, which has no depth
        limit.
        """
        check_engine(engine)
        if engine == "codegen":
            try:
                return self.evaluate_codegen(
                    program, answers=answers, max_steps=max_steps, deadline=deadline
                )
            except HostRecursionError:
                pass
        eval_fn = fix(self.functional())
        answer, _ = self.run_program(
            program, eval_fn, answers=answers, max_steps=max_steps, deadline=deadline
        )
        return answer

    def evaluate_codegen(
        self,
        program,
        *,
        answers: AnswerAlgebra = STANDARD_ANSWERS,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        """Evaluate on the codegen engine; overridden by supporting languages."""
        check_engine_support("codegen", self.name)
        raise ReproError(
            f"language {self.name!r} has no codegen engine; use engine='reference'"
        )

    def __repr__(self) -> str:
        return f"<language {self.name}>"
