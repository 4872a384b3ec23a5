"""The strict (call-by-value) ``L_lambda`` language module.

This is the language of Figure 2, the one the paper's examples and
benchmarks use.  The valuation functional itself lives in
:mod:`repro.semantics.standard`; this module packages it behind the
uniform :class:`~repro.semantics.machine.Language` protocol.

The strict language supports both execution engines: the reference
interpreter (the oracle) and the specializing code generator of
:mod:`repro.partial_eval.codegen` (``engine="codegen"``).
"""

from __future__ import annotations

from typing import Optional

from repro.languages.base import BaseLanguage
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.machine import Functional
from repro.semantics.primitives import initial_environment
from repro.semantics.standard import standard_functional


class StrictLanguage(BaseLanguage):
    name = "strict"

    def functional(self) -> Functional:
        return standard_functional

    def initial_context(self):
        return initial_environment()

    def evaluate_codegen(
        self,
        program,
        *,
        answers: AnswerAlgebra = STANDARD_ANSWERS,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        from repro.partial_eval.codegen import generate_program

        generated = generate_program(program)
        answer, _ = generated.run(
            answers=answers, max_steps=max_steps, deadline=deadline
        )
        return answer


#: The shared strict-language instance (language modules are stateless).
strict = StrictLanguage()
