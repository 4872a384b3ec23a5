"""Lexer for the ``L_lambda`` surface syntax.

The concrete syntax follows the paper's examples as closely as ASCII
allows::

    letrec mul = lambda x. lambda y. {mul(x, y)}:(x*y) in
    letrec fac = lambda x. {fac(x)}:if (x=0) then 1 else mul x (fac (x-1))
    in fac 3

Notable points:

* Monitor annotations ``{ ... }:`` are lexed as a single :data:`ANNOT`
  token holding the raw text between the braces; the parser hands that text
  to :func:`repro.syntax.annotations.parse_annotation_text`.
* ``--`` and ``#`` start line comments.
* ``::`` is the infix list constructor (the paper writes ``:``, which would
  be ambiguous with the annotation separator).

The whole lexical grammar is :data:`TOKEN_TABLE`: one regular expression
per token kind, tried in order at the cursor as one compiled pattern.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import LexError, SourceLocation

# Token kinds ---------------------------------------------------------------

INT = "INT"
FLOAT = "FLOAT"
STRING = "STRING"
IDENT = "IDENT"
KEYWORD = "KEYWORD"
OP = "OP"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
LBRACKET = "LBRACKET"
RBRACKET = "RBRACKET"
COMMA = "COMMA"
DOT = "DOT"
SEMI = "SEMI"
ANNOT = "ANNOT"  # the raw text between { and }
COLON = "COLON"
EOF = "EOF"

KEYWORDS = frozenset(
    {
        "lambda",
        "if",
        "then",
        "else",
        "let",
        "letrec",
        "in",
        "and",
        "true",
        "false",
    }
)

#: Whitespace and comments: no token, but their newlines count lines.
_TRIVIA = "TRIVIA"

_STRING_BODY = r'"(?:[^"\\\n]|\\[nt"\\])*'
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

#: ``(kind, pattern)`` in the order the alternatives are tried: the first
#: that matches at the cursor wins, so a float beats an int, a comment
#: beats ``-``, and ``::``/``:=`` beat ``:``.  Digits are Unicode decimals
#: (``\d``), exactly what ``int()`` and ``float()`` accept.
TOKEN_TABLE = (
    (_TRIVIA, r"(?:[ \t\r\n]+|(?:\#|--)[^\n]*)+"),
    (FLOAT, r"\d+\.\d+"),
    (INT, r"\d+"),
    (IDENT, r"[A-Za-z_][A-Za-z0-9_'!?]*"),
    (STRING, _STRING_BODY + '"'),
    (ANNOT, r"\{[^{}]*\}"),
    (OP, r"::|:=|\+\+|/=|<=|>=|->|&&|\|\||[-+*/%=<>]"),
    (COLON, ":"),
    (LPAREN, r"\("),
    (RPAREN, r"\)"),
    (LBRACKET, r"\["),
    (RBRACKET, r"\]"),
    (COMMA, ","),
    (SEMI, ";"),
    (DOT, r"\."),
)

#: One group per row; ``match.lastindex`` indexes :data:`_KINDS`.
_MASTER = re.compile("|".join(f"({pattern})" for _, pattern in TOKEN_TABLE))
_KINDS = (None,) + tuple(kind for kind, _ in TOKEN_TABLE)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_ANNOT_PREFIX = re.compile(r"\{[^{}]*")


class Token(NamedTuple):
    kind: str
    value: str
    location: SourceLocation

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r} @ {self.location})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely (including the trailing EOF token)."""
    tokens: List[Token] = []
    match = _MASTER.match
    line = 1
    pos = line_start = 0
    end = len(source)
    while pos < end:
        found = match(source, pos)
        if found is None:
            raise _lex_error(source, pos, line, line_start)
        kind = _KINDS[found.lastindex]
        start, pos = pos, found.end()
        if kind is not _TRIVIA:
            text = found.group()
            if kind is IDENT:
                if text in KEYWORDS:
                    kind = KEYWORD
            elif kind is STRING:
                text = _ESCAPE.sub(lambda escape: _ESCAPES[escape.group(1)], text[1:-1])
            elif kind is ANNOT:
                text = text[1:-1]
            tokens.append(Token(kind, text, SourceLocation(line, start - line_start + 1, start)))
            if kind is not ANNOT:
                continue
        newlines = source.count("\n", start, pos)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", start, pos) + 1
    tokens.append(Token(EOF, "", SourceLocation(line, pos - line_start + 1, pos)))
    return tokens


def _lex_error(source: str, pos: int, line: int, line_start: int) -> LexError:
    """Why no token starts at ``pos``: a bad string, annotation or character."""
    start = SourceLocation(line, pos - line_start + 1, pos)
    char = source[pos]
    if char == '"':
        stop = _STRING_PREFIX.match(source, pos).end()
        if stop + 1 < len(source) and source[stop] == "\\":
            escape = source[stop + 1]
            where = SourceLocation(line, stop + 1 - line_start + 1, stop + 1)
            return LexError(f"unknown escape: \\{escape}", where)
        if stop < len(source) and source[stop] == "\\":
            return LexError("unterminated escape sequence", start)
        return LexError("unterminated string literal", start)
    if char == "{":
        stop = _ANNOT_PREFIX.match(source, pos).end()
        if stop == len(source):
            return LexError("unterminated annotation (missing '}')", start)
        line += source.count("\n", pos, stop)
        column = stop - source.rfind("\n", 0, stop)
        return LexError("nested '{' inside annotation", SourceLocation(line, column, stop))
    return LexError(f"unexpected character {char!r}", start)
