"""Monitor annotation values — the ``MSyn`` component of a monitor spec.

The paper leaves the annotation syntax entirely to each monitor
specification (Definition 5.1): a profiler annotates function bodies with
the function's *name*, a tracer with a *function header* ``f(x1, ..., xn)``,
a demon or collecting monitor with a *program-point label*.  The only global
requirement, needed for safe composition (Section 6), is that cascaded
monitors use *disjoint* annotation syntaxes.

We realize this with a small family of annotation value classes.  The
surface syntax of an annotation — the text between ``{`` and ``}`` — is
parsed by :func:`parse_annotation_text` into the most specific class:

* ``f(x, y)``       -> :class:`FnHeader` (the tracer's ``Fh`` domain, Fig 7)
* ``name``          -> :class:`Label` (profiler/demon/collecting monitors)
* ``tool: payload`` -> :class:`Tagged` (namespaced annotations, used to keep
  cascaded monitors' syntaxes disjoint, e.g. ``{trace: f(x)}: e``)

A monitor specification *recognizes* a subset of annotation values; the
derived semantics consults the spec for each :class:`~repro.syntax.ast.Annotated`
node it encounters and falls through to the underlying semantics for
annotations belonging to other monitors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ParseError, NO_LOCATION, SourceLocation


@dataclass(frozen=True)
class Annotation:
    """Base class for annotation payloads carried by ``Annotated`` nodes."""

    def render(self) -> str:
        """Surface text of the annotation (without the braces)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Label(Annotation):
    """A bare identifier label such as ``{fac}`` or ``{A}``.

    Used by the Figure 4 counting profiler (labels ``A``/``B``), the
    Figure 6 profiler (function names), the Figure 8 demon (program points)
    and the Figure 9 collecting monitor (name tags).
    """

    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class FnHeader(Annotation):
    """A function header ``{f(x1, ..., xn)}`` — the tracer's ``Fh`` domain."""

    name: str
    params: Tuple[str, ...]

    def render(self) -> str:
        return f"{self.name}({', '.join(self.params)})"


@dataclass(frozen=True)
class Tagged(Annotation):
    """A namespaced annotation ``{tool: payload}``.

    The ``tool`` prefix keeps annotation syntaxes disjoint when several
    monitors are cascaded: ``{trace: f(x)}: e`` is only visible to a monitor
    that claims the ``trace`` namespace, and is skipped by all others.
    ``payload`` is itself an :class:`Annotation`.
    """

    tool: str
    payload: Annotation

    def render(self) -> str:
        return f"{self.tool}: {self.payload.render()}"


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'!?-]*")
_HEADER_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_'!?-]*)\s*\(\s*(?P<params>[^)]*)\)\s*$"
)
_TAGGED_RE = re.compile(r"^(?P<tool>[A-Za-z_][A-Za-z0-9_'!?-]*)\s*:\s*(?P<rest>.+)$")


def _location_at(base: SourceLocation, text: str, index: int) -> SourceLocation:
    """The source location of ``text[index]``.

    ``base`` is the location of the opening ``{``; the annotation text
    starts one character after it.  Annotations may span lines, so the
    walk re-counts line/column rather than adding to the column.  A
    ``NO_LOCATION`` base stays ``NO_LOCATION`` (direct API calls).
    """
    if base is NO_LOCATION or base == NO_LOCATION:
        return NO_LOCATION
    line, column = base.line, base.column + 1
    for char in text[:index]:
        if char == "\n":
            line += 1
            column = 1
        else:
            column += 1
    offset = base.offset + 1 + index if base.offset >= 0 else -1
    return SourceLocation(line, column, offset)


def parse_annotation_text(text: str, location=NO_LOCATION) -> Annotation:
    """Parse the text between ``{`` and ``}`` into an annotation value.

    ``location`` is the source position of the opening brace; parse
    errors carry the location of the offending token *within* the
    annotation, not just the brace.

    >>> parse_annotation_text("fac")
    Label(name='fac')
    >>> parse_annotation_text("fac(x)")
    FnHeader(name='fac', params=('x',))
    >>> parse_annotation_text("trace: mul(x, y)")
    Tagged(tool='trace', payload=FnHeader(name='mul', params=('x', 'y')))
    """
    return _parse_annotation(text, location, 0)


def _parse_annotation(text: str, location: SourceLocation, start: int) -> Annotation:
    """Parse ``text[start:]``; ``text`` is the full between-braces string."""
    segment = text[start:]
    stripped = segment.strip()
    base = start + (len(segment) - len(segment.lstrip()))
    if not stripped:
        raise ParseError("empty annotation", _location_at(location, text, start))

    tagged = _TAGGED_RE.match(stripped)
    if tagged and "(" not in tagged.group("tool"):
        payload = _parse_annotation(text, location, base + tagged.start("rest"))
        return Tagged(tagged.group("tool"), payload)

    header = _HEADER_RE.match(stripped)
    if header:
        raw = header.group("params")
        if not raw.strip():
            return FnHeader(header.group("name"), ())
        params = []
        cursor = header.start("params")
        for piece in raw.split(","):
            param = piece.strip()
            if not _IDENT_RE.fullmatch(param):
                lead = len(piece) - len(piece.lstrip())
                raise ParseError(
                    f"invalid parameter {param!r} in annotation {stripped!r}",
                    _location_at(location, text, base + cursor + lead),
                )
            params.append(param)
            cursor += len(piece) + 1
        return FnHeader(header.group("name"), tuple(params))

    if _IDENT_RE.fullmatch(stripped):
        return Label(stripped)

    raise ParseError(
        f"unrecognized annotation syntax: {stripped!r}",
        _location_at(location, text, base),
    )


def label(name: str) -> Label:
    """Convenience constructor used heavily in tests and examples."""
    return Label(name)


def header(name: str, *params: str) -> FnHeader:
    return FnHeader(name, tuple(params))


def tagged(tool: str, payload: "Annotation | str") -> Tagged:
    if isinstance(payload, str):
        payload = parse_annotation_text(payload)
    return Tagged(tool, payload)


def render_annotation(annotation: object) -> str:
    """An annotation's surface text without its braces (``p0``,
    ``trace: f(n)``), falling back to ``str`` for a value that cannot
    render itself.

    The one rendering: trace headers, ``--sites`` selectors and the
    analyzer's flow verdict all carry this text; the analyzer adds the
    braces where it shows a site in a message.
    """
    render = getattr(annotation, "render", None)
    if callable(render):
        try:
            return render()
        except Exception:
            pass
    return str(annotation)


def untag(annotation: Annotation, tool: Optional[str] = None) -> Optional[Annotation]:
    """Return the payload of a :class:`Tagged` annotation for ``tool``.

    With ``tool=None`` any un-tagged annotation is returned unchanged and
    tagged annotations yield ``None``; with a tool name, only matching
    tagged annotations yield their payload.  This is the standard helper a
    monitor spec uses to implement its ``recognizes`` test.
    """
    if tool is None:
        return None if isinstance(annotation, Tagged) else annotation
    if isinstance(annotation, Tagged) and annotation.tool == tool:
        return annotation.payload
    return None
