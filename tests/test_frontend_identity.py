"""Front-end identity: token streams, trees and errors pinned by one golden.

Every string constant in ``examples/*.py`` and in the Python blocks of
``docs/MONITOR_COOKBOOK.md``, a list of hand-picked edge cases, and
seeded generated ``L_lambda``, ``L_imp`` and ``L_exc`` programs (a third
of them mutated into malformed text) each get one SHA-256.  It covers
the token stream (kind, value, line, column, offset) or the lexical
error, and, under each of the three grammars, the tree with every
node's location or the error's message and location.

The golden ``tests/goldens/frontend_identity.txt`` was written before
the lexer became a token table and the parser an operator table, and
both must reproduce it; refresh it with ``pytest --update-goldens`` only
for an intended change of the front end.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import random
import re
import textwrap
from pathlib import Path

from repro.errors import SourceLocation
from repro.languages.exceptions import parse_exc
from repro.languages.imp_syntax import parse_imp
from repro.syntax.lexer import tokenize
from repro.syntax.parser import parse

ROOT = Path(__file__).resolve().parent.parent
GRAMMARS = (("lambda", parse), ("imp", parse_imp), ("exc", parse_exc))
SEED = 20251019
PROGRAMS_PER_LANGUAGE = 110

EDGE_CASES = [
    "",
    "   \t\r\n",
    "-- only a comment",
    "# only a comment\n",
    "٣ + 1",
    "٣.٥ * 2",
    "1.",
    "1.5.2",
    ".5",
    "f' g! h? _x",
    '"a\\nb\\tc\\"d\\\\e"',
    '"abc',
    '"ab\\',
    '"a\\qb"',
    '"a\\\nb"',
    '"a\nb"',
    "{abc",
    "{a{b}}: x",
    "{a\n  b}: x\n  + y",
    "{f(x, y)}: lambda x y. x",
    "}",
    "a @ b",
    "a & b | c",
    "a -> b",
    "x := 1",
    "a--b",
    "a - -b",
    "- - 3",
    "-(3)",
    "f -x",
    "(+) 1 2",
    "(::)",
    "(:=)",
    "a < b < c",
    "x && a < b < c",
    "a < b && c < d || e",
    "a :: b :: c < d",
    "a && b :: c",
    "a < b :: c :: []",
    "a + b * c - d / e % f ++ g",
    "a * b + c * d = e",
    "1 + 2 +",
    "(a = b = c)",
    "[1, 2, 3 :: []]",
    "[1, 2,]",
    "letrec f = 3 in f",
    "letrec f = {p}: lambda x. x and g = lambda y. y in f g",
    "if true then 1 else",
    "raise 1 + 2",
    "1 + raise x * 2",
    "try f x catch e. e + 1",
    "try f x with e. e",
    "x := 1; emit x; while x < 3 do begin x := x + 1 end",
    "local y = 2 in begin emit y; end",
    "{p}: begin skip; skip end",
    "if x then skip else emit (lambda y. y)",
    "while x do",
]


# Fingerprints ---------------------------------------------------------------


def _shape(node):
    """A JSON-able picture of a tree, with every node's location."""
    if isinstance(node, SourceLocation):
        return [node.line, node.column, node.offset]
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        location = getattr(node, "location", None)
        return [
            type(node).__name__,
            _shape(location) if isinstance(location, SourceLocation) else None,
            [[f.name, _shape(getattr(node, f.name))] for f in dataclasses.fields(node)],
        ]
    if isinstance(node, (tuple, list)):
        return [_shape(item) for item in node]
    return repr(node)


def _failure(exc: Exception):
    location = getattr(exc, "location", None)
    return [type(exc).__name__, str(exc), _shape(location) if location else None]


def fingerprint(source: str) -> str:
    try:
        tokens = [
            [t.kind, t.value, t.location.line, t.location.column, t.location.offset]
            for t in tokenize(source)
        ]
    except Exception as exc:  # noqa: BLE001 - the failure is what is pinned
        tokens = _failure(exc)
    trees = []
    for _, grammar in GRAMMARS:
        try:
            trees.append(_shape(grammar(source)))
        except Exception as exc:  # noqa: BLE001
            trees.append(_failure(exc))
    text = json.dumps([tokens, trees], ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Corpus ---------------------------------------------------------------------


def _string_constants(python_source: str):
    tree = ast.parse(python_source)
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def _documented_strings():
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield path.relative_to(ROOT).as_posix(), _string_constants(path.read_text())
    cookbook = ROOT / "docs" / "MONITOR_COOKBOOK.md"
    blocks = re.findall(r"```python\n(.*?)```", cookbook.read_text(), re.S)
    strings = []
    for block in blocks:
        strings.extend(_string_constants(textwrap.dedent(block)))
    yield cookbook.relative_to(ROOT).as_posix(), strings


class _Generator:
    """Random program text over the whole surface syntax of one language."""

    NAMES = ["x", "y", "n", "acc", "f'", "go!", "ok?", "_t", "fac", "xs"]
    BINARY = ["::", "&&", "||", "=", "/=", "<", "<=", ">", ">=", "+", "-",
              "++", "*", "/", "%"]
    STRINGS = ['"hi"', '""', '"a\\nb"', '"q\\"x\\\\"', '"tab\\there"']
    LABELS = ["p", "fac", "A", "f(x)", "g(x, y)", "trace: f(n)", "n"]
    NOISE = list("@\"{}\\|&!'.):;([,=-") + ["->", ":=", "lambda", "in"]

    def __init__(self, rng: random.Random, language: str) -> None:
        self.rng = rng
        self.language = language

    def ws(self) -> str:
        if self.rng.random() < 0.8:
            return " "
        return self.rng.choice(["\n", "\t", "  \n    ", " -- c\n", " # c\n", "\r\n  "])

    def join(self, *parts: str) -> str:
        return self.ws().join(parts)

    def name(self) -> str:
        return self.rng.choice(self.NAMES)

    def leaf(self) -> str:
        pick = self.rng.randrange(8)
        if pick == 0:
            return str(self.rng.randrange(1000))
        if pick == 1:
            return f"{self.rng.randrange(100)}.{self.rng.randrange(100)}"
        if pick == 2:
            return self.rng.choice(self.STRINGS + ["true", "false", "[]", "٣"])
        if pick == 3:
            return "(" + self.rng.choice(self.BINARY) + ")"
        return self.name()

    def atom(self, depth: int) -> str:
        if depth <= 0 or self.rng.random() < 0.5:
            return self.leaf()
        pick = self.rng.randrange(3)
        if pick == 0:
            return "(" + self.expr(depth - 1) + ")"
        if pick == 1:
            items = [self.expr(depth - 1) for _ in range(self.rng.randrange(4))]
            return "[" + ("," + self.ws()).join(items) + "]"
        body = self.expr(depth - 1) if self.rng.random() < 0.3 else self.atom(depth - 1)
        return "{" + self.rng.choice(self.LABELS) + "}:" + self.ws() + body

    def operand(self, depth: int) -> str:
        """An expression that may stand next to an infix operator."""
        if depth <= 0:
            return self.leaf()
        pick = self.rng.randrange(20)
        sub = depth - 1
        if pick == 0:
            return self.expr(depth)  # a special form here is a parse error
        if pick < 6:
            return self.atom(depth)
        if pick < 14:
            return self.join(self.operand(sub), self.rng.choice(self.BINARY),
                             self.operand(sub))
        if pick < 16:
            return "-" + self.atom(sub)
        if pick < 18 and self.language == "exc":
            return self.join("raise", self.atom(sub))
        return self.join(*[self.atom(sub) for _ in range(self.rng.randrange(2, 4))])

    def expr(self, depth: int) -> str:
        if depth <= 0:
            return self.leaf()
        pick = self.rng.randrange(11 if self.language == "exc" else 9)
        sub = depth - 1
        if pick < 5:
            return self.operand(depth)
        if pick == 5:
            params = " ".join(self.name() for _ in range(self.rng.randrange(1, 3)))
            return self.join("lambda", params + ".", self.expr(sub))
        if pick == 6:
            return self.join("if", self.expr(sub), "then", self.expr(sub),
                             "else", self.expr(sub))
        if pick == 7:
            return self.join("let", self.name(), "=", self.expr(sub), "in", self.expr(sub))
        if pick == 8:
            bindings = [self._binding(sub) for _ in range(self.rng.randrange(1, 3))]
            return self.join("letrec", self.join(*bindings[:1]),
                             *[self.join("and", b) for b in bindings[1:]],
                             "in", self.expr(sub))
        if pick == 9:
            return self.join("raise", self.atom(sub))
        return self.join("try", self.expr(sub), "catch", self.name() + ".", self.expr(sub))

    def _binding(self, depth: int) -> str:
        bound = self.join("lambda", self.name() + ".", self.expr(depth))
        if self.rng.random() < 0.1:
            bound = self.expr(depth)
        elif self.rng.random() < 0.2:
            bound = "{" + self.rng.choice(self.LABELS) + "}: " + bound
        return self.join(self.name(), "=", bound)

    def first_order(self, depth: int) -> str:
        if depth <= 0 or self.rng.random() < 0.3:
            return self.leaf() if self.rng.random() < 0.95 else self.expr(1)
        operators = self.BINARY if self.rng.random() < 0.2 else self.BINARY[9:]
        return self.join(self.first_order(depth - 1), self.rng.choice(operators),
                         self.first_order(depth - 1))

    def block(self, depth: int) -> str:
        if self.rng.random() < 0.5:
            return self.command(depth)
        commands = [self.command(depth - 1) for _ in range(self.rng.randrange(1, 4))]
        trailing = ";" if self.rng.random() < 0.2 else ""
        return self.join("begin", (";" + self.ws()).join(commands) + trailing, "end")

    def command(self, depth: int) -> str:
        pick = self.rng.randrange(8) if depth > 0 else self.rng.randrange(3)
        sub = depth - 1
        if pick == 0:
            return self.join(self.name(), ":=", self.first_order(2))
        if pick == 1:
            return "skip"
        if pick == 2:
            return self.join("emit", self.first_order(2))
        if pick == 3:
            return self.join("while", self.first_order(2), "do", self.block(sub))
        if pick == 4:
            return self.join("local", self.name(), "=", self.first_order(1), "in",
                             self.block(sub))
        if pick == 5:
            return self.join("if", self.first_order(2), "then", self.block(sub),
                             "else", self.block(sub))
        if pick == 6:
            return "{" + self.rng.choice(self.LABELS) + "}:" + self.ws() + self.command(sub)
        return self.block(sub)

    def program(self) -> str:
        if self.language == "imp":
            commands = [self.command(3) for _ in range(self.rng.randrange(1, 5))]
            text = (";" + self.ws()).join(commands)
        else:
            text = self.expr(self.rng.randrange(2, 6))
        return self.mutate(text) if self.rng.random() < 0.33 else text

    def mutate(self, text: str) -> str:
        at = self.rng.randrange(len(text) + 1)
        pick = self.rng.randrange(3)
        if pick == 0:
            return text[:at] + text[at + 1 :]
        if pick == 1:
            return text[:at] + self.rng.choice(self.NOISE) + text[at:]
        return text[:at]


def corpus():
    """``(origin, source)`` for every program the golden covers."""
    items = []
    for origin, strings in _documented_strings():
        for text in dict.fromkeys(strings):
            digest = hashlib.sha256(text.encode()).hexdigest()[:12]
            items.append((f"{origin}#{digest}", text))
    items.extend((f"edge/{i:02d}", text) for i, text in enumerate(EDGE_CASES))
    rng = random.Random(SEED)
    for language, _ in GRAMMARS:
        generator = _Generator(rng, language)
        for i in range(PROGRAMS_PER_LANGUAGE):
            items.append((f"generated/{language}/{i:03d}", generator.program()))
    return items


def test_corpus_covers_examples_cookbook_and_generated_programs():
    origins = [origin for origin, _ in corpus()]
    assert len(origins) == len(set(origins))
    assert sum(o.startswith("generated/") for o in origins) >= 300
    assert any(o.startswith("docs/MONITOR_COOKBOOK.md#") for o in origins)
    for script in (ROOT / "examples").glob("*.py"):
        assert any(o.startswith(f"examples/{script.name}#") for o in origins)


def test_front_end_matches_golden(golden):
    lines = [f"{origin} {fingerprint(text)}" for origin, text in corpus()]
    golden("frontend_identity.txt", "\n".join(lines))
