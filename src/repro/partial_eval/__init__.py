"""Partial evaluation and specialization (Section 9.1, Figure 10).

The paper optimizes the monitored definitional interpreter
``P_bar : Mon* x Prog x Input* -> (Ans x MS)`` by three levels of
specialization:

1. **Monitor instantiation** — specializing the parameterized interpreter
   with respect to a fixed set of monitor specifications yields a concrete
   instrumented *interpreter*.  In this reproduction that is
   :func:`repro.monitoring.derive.derive_all` followed by the fixpoint:
   annotation recognition still happens per annotated node, but the
   monitor dispatch itself is resolved.
2. **Program specialization** — specializing the instrumented interpreter
   with respect to a *source program* yields an instrumented *program*:
   all interpretive overhead that depends only on the program text
   (syntax dispatch, environment search, annotation recognition, monitor
   lookup) is performed once, at specialization time.
   :mod:`repro.partial_eval.codegen` realizes this level for ``L_lambda``:
   it *prints* the instrumented program as Python source, making the
   specialization result inspectable exactly like the paper's
   Schism-produced residual Scheme, and it is the program the
   ``codegen`` engine runs.
3. **Input specialization** — specializing the (instrumented) program with
   respect to partial input yields a specialized program:
   :mod:`repro.partial_eval.online` is an online partial evaluator for
   ``L_lambda`` with constant folding, unfolding, and polyvariant
   function specialization; :mod:`repro.partial_eval.bta` provides the
   accompanying binding-time analysis.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "specialize": "repro.partial_eval.online",
        "analyze_binding_times": "repro.partial_eval.bta",
        "simplify": "repro.partial_eval.postprocess",
        "specialize_and_simplify": "repro.partial_eval.postprocess",
    },
)
