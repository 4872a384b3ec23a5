"""Unit tests for the lexer."""

import pytest

from repro.errors import LexError
from repro.syntax import lexer
from repro.syntax.lexer import Token, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.kind != lexer.EOF]


class TestBasicTokens:
    def test_integer(self):
        tokens = tokenize("42")
        assert tokens[0].kind == lexer.INT
        assert tokens[0].value == "42"

    def test_float(self):
        tokens = tokenize("3.14")
        assert tokens[0].kind == lexer.FLOAT
        assert tokens[0].value == "3.14"

    def test_integer_then_dot_is_not_float(self):
        # "1." is INT followed by DOT (lambda-body dots must not glue).
        assert kinds("1.")[:2] == [lexer.INT, lexer.DOT]

    def test_identifier(self):
        tokens = tokenize("foo")
        assert tokens[0].kind == lexer.IDENT

    def test_identifier_with_primes_and_marks(self):
        assert values("f' g! h?") == ["f'", "g!", "h?"]

    def test_keywords(self):
        for word in ("lambda", "if", "then", "else", "let", "letrec", "in", "and"):
            assert tokenize(word)[0].kind == lexer.KEYWORD

    def test_true_false_are_keywords(self):
        assert tokenize("true")[0].kind == lexer.KEYWORD
        assert tokenize("false")[0].kind == lexer.KEYWORD

    def test_eof_always_present(self):
        assert tokenize("")[-1].kind == lexer.EOF
        assert tokenize("x")[-1].kind == lexer.EOF


class TestOperators:
    @pytest.mark.parametrize(
        "op", ["+", "-", "*", "/", "%", "=", "/=", "<", "<=", ">", ">=", "++", "::"]
    )
    def test_single_operator(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].kind == lexer.OP
        assert tokens[1].value == op

    def test_cons_vs_colon(self):
        tokens = tokenize("a :: b")
        assert tokens[1].value == "::"
        tokens = tokenize("{x}: e")
        assert [t.kind for t in tokens[:2]] == [lexer.ANNOT, lexer.COLON]

    def test_le_vs_lt(self):
        assert values("a <= b") == ["a", "<=", "b"]
        assert values("a < b") == ["a", "<", "b"]


class TestStrings:
    def test_simple_string(self):
        tokens = tokenize('"hello"')
        assert tokens[0].kind == lexer.STRING
        assert tokens[0].value == "hello"

    def test_escapes(self):
        tokens = tokenize(r'"a\nb\tc\"d\\e"')
        assert tokens[0].value == 'a\nb\tc"d\\e'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unknown_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\x"')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')


class TestAnnotations:
    def test_annotation_captures_raw_text(self):
        tokens = tokenize("{fac(x, y)}: body")
        assert tokens[0].kind == lexer.ANNOT
        assert tokens[0].value == "fac(x, y)"

    def test_unterminated_annotation(self):
        with pytest.raises(LexError):
            tokenize("{abc")

    def test_nested_brace_rejected(self):
        with pytest.raises(LexError):
            tokenize("{a{b}}: x")


class TestTrivia:
    def test_whitespace_ignored(self):
        assert values("  a \t b \n c ") == ["a", "b", "c"]

    def test_hash_comment(self):
        assert values("a # comment here\nb") == ["a", "b"]

    def test_dashdash_comment(self):
        assert values("a -- comment\nb") == ["a", "b"]

    def test_minus_not_comment(self):
        assert values("a - b") == ["a", "-", "b"]

    def test_comment_to_eof(self):
        assert values("a -- trailing") == ["a"]


class TestLocations:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)

    def test_offset(self):
        tokens = tokenize("ab cd")
        assert tokens[1].location.offset == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("a @ b")
        assert "@" in str(exc.value)


class TestDigits:
    """Numbers are Unicode decimal digits: exactly what ``int()`` accepts."""

    @pytest.mark.parametrize("source", ["x²", "1²", "²"])
    def test_superscript_is_an_unexpected_character(self, source):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        where = source.index("²")
        assert exc.value.location.offset == where
        assert str(exc.value) == (
            f"lexical error at 1:{where + 1}: unexpected character '²'"
        )

    def test_other_decimal_digits_are_numbers(self):
        from repro.syntax.parser import parse

        tokens = tokenize("٣ + 1")
        assert (tokens[0].kind, tokens[0].value) == (lexer.INT, "٣")
        assert parse("٣ + 1") == parse("3 + 1")


class TestPunctuation:
    def test_brackets_and_parens(self):
        assert kinds("([,])")[:5] == [
            lexer.LPAREN,
            lexer.LBRACKET,
            lexer.COMMA,
            lexer.RBRACKET,
            lexer.RPAREN,
        ]

    def test_token_repr(self):
        token = tokenize("x")[0]
        assert "IDENT" in repr(token)
        assert isinstance(token, Token)
