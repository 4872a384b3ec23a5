"""Language modules (Section 9.2).

The Haskell implementation the paper describes "allows automatic
integration of monitoring tools with several language modules (lazy,
strict and imperative languages)".  We reproduce all three:

* :mod:`repro.languages.strict` — call-by-value ``L_lambda`` (Figure 2).
* :mod:`repro.languages.lazy` — call-by-need ``L_lambda``; same syntax,
  thunks in the environment, monitors observe forced values.
* :mod:`repro.languages.imperative` — ``L_imp``: a small imperative
  language (assignment, sequencing, while) with a store threaded through
  expression and command continuations.

Each module exposes a ``Language`` object whose ``functional`` is a
standard continuation semantics in the shape the monitoring derivation
expects, so ``run_monitored(language, program, monitors)`` works uniformly.

:data:`LANGUAGE_NAMES` is the one table of the names the CLI and request
records use; :func:`by_name` imports only the language it selects, and
:func:`parse_source` only the grammar it parses with.
"""

import sys

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "BaseLanguage": "repro.languages.base",
        "StrictLanguage": "repro.languages.strict",
        "strict": "repro.languages.strict",
        "LazyLanguage": "repro.languages.lazy",
        "lazy": "repro.languages.lazy",
        "lazy_data": "repro.languages.lazy",
        "ImperativeLanguage": "repro.languages.imperative",
        "imperative": "repro.languages.imperative",
        "parse_imp": "repro.languages.imp_syntax",
        "pretty_imp": "repro.languages.imp_syntax",
        "ExceptionsLanguage": "repro.languages.exceptions",
        "exceptions_language": "repro.languages.exceptions",
        "parse_exc": "repro.languages.exceptions",
    },
)

#: Language name (``--language``, a request's ``"language"``) -> the
#: exported language object it selects.
LANGUAGE_NAMES = {
    "strict": "strict",
    "lazy": "lazy",
    "lazy-data": "lazy_data",
    "imperative": "imperative",
    "exceptions": "exceptions_language",
}


def by_name(name: str):
    """The language called ``name`` in :data:`LANGUAGE_NAMES`."""
    try:
        export = LANGUAGE_NAMES[name]
    except KeyError:
        from repro.errors import ReproError

        known = ", ".join(sorted(LANGUAGE_NAMES))
        raise ReproError(f"unknown language {name!r}; choose one of {known}") from None
    return getattr(sys.modules[__name__], export)


def parse_source(name: str, source: str):
    """Parse ``source`` under the grammar of the language called ``name``.

    ``imperative`` reads ``L_imp`` and ``exceptions`` reads ``L_exc``;
    every other language (strict, lazy, lazy-data, or a custom language
    object's name) reads ``L_lambda``.  The CLI, batch and serve records
    and the trace fold all parse program text through here.
    """
    if name == "imperative":
        from repro.languages.imp_syntax import parse_imp

        return parse_imp(source)
    if name == "exceptions":
        from repro.languages.exceptions import parse_exc

        return parse_exc(source)
    from repro.syntax.parser import parse

    return parse(source)
