"""Continuation-semantics framework (the paper's ``Den = (Syn, Alg, Val)``).

* :mod:`repro.semantics.values` — the denotable-value domain ``V``.
* :mod:`repro.semantics.env` — environments ``Env = Ide -> V``.
* :mod:`repro.semantics.answers` — answer algebras (Definition 3.2/3.3)
  including the monitoring answer algebra (Definition 4.1).
* :mod:`repro.semantics.trampoline` — bounce steps and the driver loop; the
  operational realization of tail calls in continuation style.
* :mod:`repro.semantics.standard` — the standard continuation semantics of
  ``L_lambda`` (Figure 2) as a *functional*, so monitoring semantics can be
  derived from it (Definition 4.2).
* :mod:`repro.semantics.machine` — the generic fixpoint/run machinery shared
  by every language module and every derived monitoring semantics.
* :mod:`repro.semantics.compiled` — the staged fast-path engine: lexical
  addressing plus an AST-to-closure pass specializing the (possibly
  monitored) semantics with respect to the program (``engine="compiled"``).
* :mod:`repro.semantics.denotational` — a literal higher-order reference
  implementation whose answers really are ``MS -> (Ans x MS)`` closures,
  used to cross-check the trampolined machine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "fix": "repro.semantics.machine",
        "run_machine": "repro.semantics.machine",
        "evaluate": "repro.semantics.standard",
        "standard_functional": "repro.semantics.standard",
        "compile_to_closures": "repro.semantics.compiled:compile_program",
        "evaluate_compiled": "repro.semantics.compiled",
    },
)
