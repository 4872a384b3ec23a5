"""The generic valuation machinery: fixpoints of valuation functionals.

The paper's central technical device is that a semantics is given as a
*functional* ``G : T -> T`` whose fixpoint ``V = fix G`` is the valuation
function (Definition 3.1).  Explicitly identifying the functional is what
lets a derived semantics "inherit" the behavior of the base semantics at
all levels of recursion (Definition 4.2, and the inheritance analogy of
Section 4.4).

Operationally a valuation function here has the shape::

    eval(term, ctx, kont, ms) -> Step

* ``term`` — a syntax-tree node of the language.
* ``ctx`` — the language's semantic context, the paper's ``A*_i``
  (for ``L_lambda``: the environment; for ``L_imp``: environment + store).
* ``kont`` — the continuation, called as ``kont(result, ms)``; ``result``
  is the intermediate result the paper writes ``A*'_i``.
* ``ms`` — the monitor state threaded through the whole evaluation
  (Section 4.2).  The standard semantics merely passes it along, which is
  precisely what makes it "parameterized with the answer domain": with an
  empty state the machine computes the standard answer.

Every call is a tail call returned as a
:class:`~repro.semantics.trampoline.Bounce`.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Tuple

from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.trampoline import Bounce, Done, Step, trampoline

#: A valuation function (the fixpoint of a functional).
Valuation = Callable[..., Step]

#: A functional ``G : T -> T`` over valuation functions.
Functional = Callable[[Valuation], Valuation]


def fix(functional: Functional) -> Valuation:
    """Compute ``fix G`` by Landin's knot.

    ``recur`` forwards to the value being defined, so the functional's body
    calls re-enter the *derived* semantics even from inherited equations —
    the property Lemma 7.6's induction relies on.
    """

    def recur(*args) -> Step:
        return valuation(*args)

    valuation = functional(recur)
    return valuation


class Language(Protocol):
    """A language module: syntax plus continuation semantics.

    Implementations live in :mod:`repro.languages`.  ``functional`` must be
    *oblivious* to monitor annotations it does not own (Definition 7.1):
    given an :class:`~repro.syntax.ast.Annotated` node it simply evaluates
    the body.  The monitoring derivation relies on this to fall through.
    """

    #: Human-readable name ("strict", "lazy", "imperative", ...).
    name: str

    def functional(self) -> Functional:
        """The valuation functional ``G`` of this language."""
        ...

    def initial_context(self):
        """The initial semantic context ``A*`` (e.g. the primitive env)."""
        ...

    def run_program(self, program, eval_fn, answers, ms, deadline=None):
        """Drive ``eval_fn`` over ``program`` and return ``(answer, ms)``."""
        ...


def run_machine(
    language: "Language",
    program,
    *,
    functional: Optional[Functional] = None,
    answers: AnswerAlgebra = STANDARD_ANSWERS,
    initial_ms=None,
) -> Tuple[object, object]:
    """Evaluate ``program`` under ``language``, returning ``(answer, ms)``.

    ``functional`` defaults to the language's own (standard) functional;
    the monitoring subsystem passes a derived functional here.  The result
    is the pair the monitoring semantics assigns to the program: the
    original answer and the final monitor state (Section 2).  With the
    default empty monitor state the answer is the standard one.
    """
    if functional is None:
        functional = language.functional()
    eval_fn = fix(functional)
    return language.run_program(program, eval_fn, answers=answers, ms=initial_ms)


def final_kont(answers: AnswerAlgebra):
    """The initial continuation ``kappa_init = {\\v. phi v}`` (Section 3.1).

    In the machine the monitoring answer pairing ``theta`` is realized by
    ``Done`` carrying ``(phi(v), ms)``.
    """

    def kont(value, ms) -> Step:
        return Done((answers.phi(value), ms))

    return kont


__all__ = [
    "Bounce",
    "Done",
    "Functional",
    "Language",
    "Step",
    "Valuation",
    "final_kont",
    "fix",
    "run_machine",
    "trampoline",
]
