"""Recursive-descent parser for the ``L_lambda`` surface syntax.

Grammar::

    expr    := 'lambda' IDENT+ '.' expr
             | 'if' expr 'then' expr 'else' expr
             | 'let' IDENT '=' expr 'in' expr
             | 'letrec' binding ('and' binding)* 'in' expr
             | binary
    binding := IDENT '=' expr                 -- must bind a lambda
    binary  := unary (OP unary)*              -- BINARY_OPERATORS, loosest first:
               '::' (right) < '&&' '||' (left, and/or) < one comparison
               < '+' '-' '++' (left) < '*' '/' '%' (left)
    unary   := '-' unary | appl
    appl    := atom atom*                     -- application, left associative
    atom    := INT | FLOAT | STRING | 'true' | 'false' | IDENT
             | '(' expr ')' | '[' (expr (',' expr)*)? ']'
             | '{' annotation '}' ':' annbody
    annbody := atom | lambda | if | let | letrec   -- annotation binds tightly

The annotation body rule matches the paper's examples: ``{n}: n * e``
annotates just ``n``; ``{fac}: if ... else ...`` annotates the whole
conditional; compound bodies are parenthesized (``{B}:(x * fac(x-1))``).

Infix operators desugar to curried applications of the correspondingly
named primitive (e.g. ``x * y`` becomes ``App(App(Var('*'), x), y)``), and
list literals desugar to ``cons``/``nil`` chains, so the abstract syntax
stays exactly the paper's six-production language plus annotations.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import NO_LOCATION, ParseError
from repro.syntax import lexer
from repro.syntax.annotations import parse_annotation_text
from repro.syntax.ast import (
    Annotated,
    App,
    Const,
    Expr,
    If,
    Lam,
    Let,
    Letrec,
    Var,
    strip_annotations_shallow,
)
from repro.syntax.lexer import Token, tokenize

#: Infix operator -> ``(level, associativity, primitive)``, loosest level
#: first.  A ``None`` associativity allows one operator of that level per
#: operand chain: ``a < b < c`` leaves the second ``<`` unparsed.
BINARY_OPERATORS = {
    "::": (1, "right", "cons"),
    "&&": (2, "left", "and"),
    "||": (2, "left", "or"),
    **{op: (3, None, op) for op in ("=", "/=", "<", "<=", ">", ">=")},
    **{op: (4, "left", op) for op in ("+", "-", "++")},
    **{op: (5, "left", op) for op in ("*", "/", "%")},
}
_TIGHTEST = max(level for level, _, _ in BINARY_OPERATORS.values())

#: Token kinds that may begin an ``atom`` — used to detect application
#: arguments during juxtaposition parsing.
_ATOM_STARTERS = frozenset(
    {
        lexer.INT,
        lexer.FLOAT,
        lexer.STRING,
        lexer.IDENT,
        lexer.LPAREN,
        lexer.LBRACKET,
        lexer.ANNOT,
    }
)


class Parser:
    #: Identifier words that terminate application juxtaposition.  Empty
    #: for L_lambda; language extensions with contextual keywords (e.g.
    #: L_imp's ``do``/``begin``/``end``) override this so expressions stop
    #: before command syntax.
    application_stop_words: frozenset = frozenset()

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    # Token-stream helpers ---------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != lexer.EOF:
            self.index += 1
        return token

    def _check(self, kind: str, value: str | None = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def _match(self, kind: str, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if not self._check(kind, value):
            expected = value if value is not None else kind.lower()
            raise ParseError(
                f"expected {expected!r}, found {token.value or token.kind!r}",
                token.location,
            )
        return self._advance()

    # Productions ------------------------------------------------------------

    def parse_program(self) -> Expr:
        expr = self.parse_expr()
        token = self._peek()
        if token.kind != lexer.EOF:
            raise ParseError(
                f"unexpected trailing input: {token.value!r}", token.location
            )
        return expr

    def parse_expr(self) -> Expr:
        token = self._peek()
        if token.kind == lexer.KEYWORD and token.value == "lambda":
            return self._parse_lambda()
        if token.kind == lexer.KEYWORD and token.value == "if":
            return self._parse_if()
        if token.kind == lexer.KEYWORD and token.value == "let":
            return self._parse_let()
        if token.kind == lexer.KEYWORD and token.value == "letrec":
            return self._parse_letrec()
        return self._parse_binary()

    def _parse_lambda(self) -> Expr:
        start = self._expect(lexer.KEYWORD, "lambda")
        params = [self._expect(lexer.IDENT).value]
        while self._check(lexer.IDENT):
            params.append(self._advance().value)
        self._expect(lexer.DOT)
        body = self.parse_expr()
        result = body
        for param in reversed(params):
            result = Lam(param, result)
        return result.at(start.location)

    def _parse_if(self) -> Expr:
        start = self._expect(lexer.KEYWORD, "if")
        cond = self.parse_expr()
        self._expect(lexer.KEYWORD, "then")
        then_branch = self.parse_expr()
        self._expect(lexer.KEYWORD, "else")
        else_branch = self.parse_expr()
        return If(cond, then_branch, else_branch).at(start.location)

    def _parse_let(self) -> Expr:
        start = self._expect(lexer.KEYWORD, "let")
        name = self._expect(lexer.IDENT).value
        self._expect(lexer.OP, "=")
        bound = self.parse_expr()
        self._expect(lexer.KEYWORD, "in")
        body = self.parse_expr()
        return Let(name, bound, body).at(start.location)

    def _parse_letrec(self) -> Expr:
        start = self._expect(lexer.KEYWORD, "letrec")
        bindings: List[Tuple[str, Expr]] = [self._parse_binding()]
        while self._match(lexer.KEYWORD, "and"):
            bindings.append(self._parse_binding())
        self._expect(lexer.KEYWORD, "in")
        body = self.parse_expr()
        try:
            node = Letrec(tuple(bindings), body)
        except ValueError as exc:
            raise ParseError(str(exc), start.location) from None
        return node.at(start.location)

    def _parse_binding(self) -> Tuple[str, Expr]:
        name_token = self._expect(lexer.IDENT)
        self._expect(lexer.OP, "=")
        bound = self.parse_expr()
        # Enforce the paper's syntactic restriction here, where we still
        # know where the offending expression sits: the Letrec constructor
        # would raise the same complaint, but without a source location.
        stripped = strip_annotations_shallow(bound)
        if not isinstance(stripped, Lam):
            where = bound.location
            if where is NO_LOCATION:
                where = name_token.location
            raise ParseError(
                f"letrec binding {name_token.value!r} must bind a lambda "
                f"abstraction, got {type(stripped).__name__}",
                where,
            )
        return name_token.value, bound

    def _parse_annotated(self) -> Expr:
        """``{mu}: body`` — the annotation binds to the next *atom*, or to a
        whole special form when one follows the colon.

        This matches the paper's examples: ``{n}: n * (fac (n-1))``
        annotates just ``n`` (Figure 9's collecting monitor observes
        ``{1, 2, 3}``), while ``{fac}: if (x=0) then ... else ...``
        annotates the entire conditional and ``{B}:(x * fac(x-1))`` uses
        parentheses to annotate a compound expression.
        """
        token = self._expect(lexer.ANNOT)
        annotation = parse_annotation_text(token.value, token.location)
        self._expect(lexer.COLON)
        next_token = self._peek()
        if next_token.kind == lexer.KEYWORD and next_token.value in (
            "lambda",
            "if",
            "let",
            "letrec",
        ):
            body = self.parse_expr()
        elif next_token.kind == lexer.ANNOT:
            body = self._parse_annotated()
        else:
            body = self._parse_atom()
        return Annotated(annotation, body).at(token.location)

    def _parse_binary(self, min_level: int = 1) -> Expr:
        """Precedence climbing over :data:`BINARY_OPERATORS`.

        Each infix operator becomes a curried application of its primitive
        located at the operator.  After combining at a level, the loop only
        takes operators no tighter than it (``max_level``): tighter ones
        were the right operand's, or were refused by a ``None`` level.
        """
        left = self._parse_unary()
        max_level = _TIGHTEST
        while True:
            op = self._peek()
            entry = BINARY_OPERATORS.get(op.value) if op.kind == lexer.OP else None
            if entry is None or not min_level <= entry[0] <= max_level:
                return left
            level, associativity, primitive = entry
            self._advance()
            right = self._parse_binary(level if associativity == "right" else level + 1)
            left = App(App(Var(primitive).at(op.location), left), right).at(op.location)
            max_level = level if associativity else level - 1

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.kind == lexer.OP and token.value == "-":
            op = self._advance()
            operand = self._parse_unary()
            if isinstance(operand, Const) and isinstance(operand.value, (int, float)):
                return Const(-operand.value).at(op.location)
            return App(Var("neg").at(op.location), operand).at(op.location)
        return self._parse_application()

    def _parse_application(self) -> Expr:
        result = self._parse_atom()
        while True:
            token = self._peek()
            starts_atom = token.kind in _ATOM_STARTERS or (
                token.kind == lexer.KEYWORD and token.value in ("true", "false")
            )
            if token.kind == lexer.IDENT and token.value in self.application_stop_words:
                starts_atom = False
            if starts_atom:
                argument = self._parse_atom()
                result = App(result, argument).at(token.location)
                continue
            return result

    def _parse_atom(self) -> Expr:
        token = self._peek()
        if token.kind == lexer.ANNOT:
            return self._parse_annotated()
        if token.kind == lexer.INT:
            self._advance()
            return Const(int(token.value)).at(token.location)
        if token.kind == lexer.FLOAT:
            self._advance()
            return Const(float(token.value)).at(token.location)
        if token.kind == lexer.STRING:
            self._advance()
            return Const(token.value).at(token.location)
        if token.kind == lexer.KEYWORD and token.value in ("true", "false"):
            self._advance()
            return Const(token.value == "true").at(token.location)
        if token.kind == lexer.IDENT:
            self._advance()
            return Var(token.value).at(token.location)
        if token.kind == lexer.LPAREN:
            self._advance()
            # Operator section: (+) denotes the primitive itself.
            if (
                self._peek().kind == lexer.OP
                and self.tokens[self.index + 1].kind == lexer.RPAREN
            ):
                op = self._advance()
                self._expect(lexer.RPAREN)
                return Var(op.value).at(op.location)
            inner = self.parse_expr()
            self._expect(lexer.RPAREN)
            return inner
        if token.kind == lexer.LBRACKET:
            return self._parse_list_literal()
        raise ParseError(
            f"unexpected token {token.value or token.kind!r}", token.location
        )

    def _parse_list_literal(self) -> Expr:
        start = self._expect(lexer.LBRACKET)
        elements: List[Expr] = []
        if not self._check(lexer.RBRACKET):
            elements.append(self.parse_expr())
            while self._match(lexer.COMMA):
                elements.append(self.parse_expr())
        self._expect(lexer.RBRACKET)
        result: Expr = Var("nil").at(start.location)
        for element in reversed(elements):
            result = App(
                App(Var("cons").at(start.location), element), result
            ).at(start.location)
        return result


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    >>> parse("fac 3")
    App(Var('fac'), Const(3))
    """
    return Parser(tokenize(source)).parse_program()
