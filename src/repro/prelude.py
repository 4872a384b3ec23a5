"""A standard prelude for ``L_lambda``.

The paper's programs lean on a handful of classic list functions; this
module ships them as ordinary ``L_lambda`` source, so examples, tests and
user sessions don't re-derive ``map`` every time.  Everything is defined
in one mutually recursive ``letrec`` group wrapped around the user's
expression — there is no host-level magic, and every prelude function is
itself monitorable (annotate it like any other code).

    >>> from repro.prelude import with_prelude
    >>> from repro.languages import strict
    >>> strict.evaluate(with_prelude("sum (map (lambda x. x * x) (fromTo 1 4))"))
    30
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple, Union

from repro.syntax.ast import Expr, Letrec
from repro.syntax.parser import parse
from repro.toolbox.session import Session

#: name -> L_lambda source of a lambda abstraction.
PRELUDE_DEFINITIONS: Dict[str, str] = {
    # combinators
    "id": "lambda x. x",
    "const": "lambda x. lambda y. x",
    "compose": "lambda f. lambda g. lambda x. f (g x)",
    "flip": "lambda f. lambda x. lambda y. f y x",
    "twice": "lambda f. lambda x. f (f x)",
    # list basics
    "append": (
        "lambda xs. lambda ys. "
        "if null? xs then ys else (hd xs) :: (append (tl xs) ys)"
    ),
    "reverse": (
        "lambda xs. "
        "letrec go = lambda rest. lambda acc. "
        "  if null? rest then acc else go (tl rest) ((hd rest) :: acc) "
        "in go xs []"
    ),
    "last": "lambda xs. if null? (tl xs) then hd xs else last (tl xs)",
    "nth": "lambda k. lambda xs. if k = 0 then hd xs else nth (k - 1) (tl xs)",
    "take": (
        "lambda k. lambda xs. "
        "if k = 0 then [] "
        "else if null? xs then [] "
        "else (hd xs) :: (take (k - 1) (tl xs))"
    ),
    "drop": (
        "lambda k. lambda xs. "
        "if k = 0 then xs else if null? xs then [] else drop (k - 1) (tl xs)"
    ),
    # higher-order staples
    "map": (
        "lambda f. lambda xs. "
        "if null? xs then [] else (f (hd xs)) :: (map f (tl xs))"
    ),
    "filter": (
        "lambda p. lambda xs. "
        "if null? xs then [] "
        "else if p (hd xs) then (hd xs) :: (filter p (tl xs)) "
        "else filter p (tl xs)"
    ),
    "foldr": (
        "lambda f. lambda z. lambda xs. "
        "if null? xs then z else f (hd xs) (foldr f z (tl xs))"
    ),
    "foldl": (
        "lambda f. lambda z. lambda xs. "
        "if null? xs then z else foldl f (f z (hd xs)) (tl xs)"
    ),
    "zipWith": (
        "lambda f. lambda xs. lambda ys. "
        "if null? xs then [] "
        "else if null? ys then [] "
        "else (f (hd xs) (hd ys)) :: (zipWith f (tl xs) (tl ys))"
    ),
    # numeric helpers
    "fromTo": (
        "lambda lo. lambda hi. "
        "if lo > hi then [] else lo :: (fromTo (lo + 1) hi)"
    ),
    "sum": "lambda xs. foldl (lambda a. lambda b. a + b) 0 xs",
    "product": "lambda xs. foldl (lambda a. lambda b. a * b) 1 xs",
    "maximum": (
        "lambda xs. foldl (lambda a. lambda b. max a b) (hd xs) (tl xs)"
    ),
    "minimum": (
        "lambda xs. foldl (lambda a. lambda b. min a b) (hd xs) (tl xs)"
    ),
    # predicates
    "all?": (
        "lambda p. lambda xs. "
        "if null? xs then true else if p (hd xs) then all? p (tl xs) else false"
    ),
    "any?": (
        "lambda p. lambda xs. "
        "if null? xs then false else if p (hd xs) then true else any? p (tl xs)"
    ),
    "member?": "lambda x. lambda xs. any? (lambda y. y = x) xs",
    # sorting
    "insert": (
        "lambda x. lambda xs. "
        "if null? xs then [x] "
        "else if x <= hd xs then x :: xs "
        "else (hd xs) :: (insert x (tl xs))"
    ),
    "isort": "lambda xs. foldr insert [] xs",
    "qsort": (
        "lambda xs. "
        "if null? xs then [] "
        "else append "
        "  (qsort (filter (lambda y. y < hd xs) (tl xs))) "
        "  ((hd xs) :: (qsort (filter (lambda y. y >= hd xs) (tl xs))))"
    ),
    "sorted?": (
        "lambda xs. "
        "if null? xs then true "
        "else if null? (tl xs) then true "
        "else if hd xs <= hd (tl xs) then sorted? (tl xs) else false"
    ),
}


@lru_cache(maxsize=None)
def _parsed() -> Tuple[Tuple[str, Expr], ...]:
    """Every definition, parsed once on first use."""
    return tuple(
        (name, parse(source)) for name, source in PRELUDE_DEFINITIONS.items()
    )


def with_prelude(expression: Union[str, Expr]) -> Expr:
    """Wrap ``expression`` in the prelude's ``letrec`` group."""
    body = parse(expression) if isinstance(expression, str) else expression
    return Letrec(_parsed(), body)


def prelude_session(language=None) -> Session:
    """A :class:`~repro.toolbox.session.Session` preloaded with the prelude."""
    session = Session() if language is None else Session(language=language)
    for name, definition in _parsed():
        session.define(name, definition)
    return session
