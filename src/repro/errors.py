"""Exception hierarchy and source locations for the monitoring-semantics system.

Every user-facing failure in the library is an instance of :class:`ReproError`
so callers can catch one type.  Errors raised while *evaluating* an object
language program carry the source location of the offending term when the
term was produced by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in an object-language source text.

    ``line`` and ``column`` are 1-based.  ``offset`` is the 0-based character
    offset into the source string, which is convenient for slicing out
    context when reporting errors.
    """

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


#: Location used for synthesized terms that have no source text.
NO_LOCATION = SourceLocation(line=0, column=0, offset=-1)


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class LexError(ReproError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, location: SourceLocation) -> None:
        super().__init__(f"lexical error at {location}: {message}")
        self.location = location


class ParseError(ReproError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, location: SourceLocation) -> None:
        super().__init__(f"parse error at {location}: {message}")
        self.location = location


class EvalError(ReproError):
    """Raised when evaluation of an object-language program goes wrong.

    This covers unbound identifiers, applying non-functions, type errors in
    primitives, and so on.  The standard semantics and every derived
    monitoring semantics raise the same errors for the same programs — a
    monitor cannot introduce or mask an evaluation error.
    """

    def __init__(self, message: str, location: SourceLocation = NO_LOCATION) -> None:
        if location is not NO_LOCATION:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


class UnboundIdentifierError(EvalError):
    """An identifier was referenced that is not bound in the environment."""

    def __init__(self, name: str, location: SourceLocation = NO_LOCATION) -> None:
        super().__init__(f"unbound identifier: {name!r}", location)
        self.name = name


class NotAFunctionError(EvalError):
    """A non-function value appeared in operator position."""


class PrimitiveError(EvalError):
    """A primitive operation was applied to values outside its domain."""


class StepLimitExceeded(EvalError):
    """Evaluation exceeded its ``max_steps`` budget.

    The budget counts expression-node evaluations, the unit of
    ``RunMetrics.steps``, on every engine.  ``consumed`` is the count
    that crossed ``limit``: ``limit + 1`` on the reference engine, and
    up to one straight-line region more on codegen, which charges a
    region's nodes on entry.
    """

    def __init__(self, limit: int, consumed: "int | None" = None) -> None:
        consumed = limit if consumed is None else consumed
        super().__init__(
            f"evaluation exceeded step limit of {limit} "
            f"({consumed} steps consumed)"
        )
        self.limit = limit
        self.consumed = consumed


class EvaluationTimeout(EvalError):
    """Evaluation ran past its wall-clock deadline.

    Both engines read the deadline once per step batch, so the overshoot
    is bounded by the cost of :data:`~repro.semantics.trampoline.
    STEP_BATCH` steps.  ``timeout`` is the requested budget
    in seconds (``None`` when the caller supplied a raw deadline).
    """

    def __init__(self, timeout: "float | None" = None) -> None:
        if timeout is None:
            message = "evaluation exceeded its wall-clock deadline"
        else:
            message = f"evaluation exceeded its wall-clock timeout of {timeout:g}s"
        super().__init__(message)
        self.timeout = timeout


class HostRecursionError(EvalError):
    """A codegen run recursed deeper than the host stack allows.

    Residual programs run on the native Python stack, so unlike the
    trampolined reference interpreter they have a depth limit.  Callers
    that can repeat the run unobserved re-run it on the reference engine
    instead of raising this.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"residual program exceeded the host recursion depth (limit "
            f"{limit:,}): the codegen engine runs on the native Python stack; "
            "use engine='reference' for unbounded recursion depth"
        )
        self.limit = limit


class MonitorError(ReproError):
    """Raised when a monitor specification is malformed or misused.

    Note that this is *not* raised for programs the monitor observes — a
    well-formed monitor can never change or abort program evaluation — but
    for configuration mistakes such as composing two monitors whose
    annotation syntaxes overlap.
    """


class SpecializationError(ReproError):
    """Raised by the partial-evaluation subsystem for unspecializable input."""


def format_source_context(source: str, location: SourceLocation, width: int = 60) -> str:
    """Render the source line at ``location`` with a caret under the column.

    Used by the CLI (and available to any embedder) to turn a
    :class:`LexError`/:class:`ParseError` into a friendly diagnostic::

        let x = = 1 in x
                ^
    """
    if location is NO_LOCATION or location.line < 1:
        return ""
    lines = source.splitlines()
    if location.line > len(lines):
        return ""
    line = lines[location.line - 1]
    column = max(1, location.column)
    start = 0
    if column > width:
        start = column - width // 2
        line = "..." + line[start:]
        column = column - start + 3
    if len(line) > width + 6:
        line = line[: width + 6] + "..."
    caret = " " * (column - 1) + "^"
    return f"{line}\n{caret}"
