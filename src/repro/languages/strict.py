"""The strict (call-by-value) ``L_lambda`` language module.

This is the language of Figure 2, the one the paper's examples and
benchmarks use.  The valuation functional itself lives in
:mod:`repro.semantics.standard`; this module packages it behind the
uniform :class:`~repro.semantics.machine.Language` protocol.

The strict language supports both execution engines: the reference
interpreter (the oracle) and the specializing code generator of
:mod:`repro.partial_eval.codegen` (``RunConfig(engine="codegen")``), which
:func:`~repro.monitoring.derive.run_monitored` picks between.
"""

from __future__ import annotations

from repro.languages.base import BaseLanguage
from repro.semantics.machine import Functional
from repro.semantics.primitives import initial_environment
from repro.semantics.standard import standard_functional


class StrictLanguage(BaseLanguage):
    name = "strict"

    def functional(self) -> Functional:
        return standard_functional

    def initial_context(self):
        return initial_environment()


#: The shared strict-language instance (language modules are stateless).
strict = StrictLanguage()
