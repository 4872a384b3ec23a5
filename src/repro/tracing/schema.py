"""The versioned trace format: records, value codec, and the reader.

A trace is JSON lines.  The first record is the **header** (``"t":
"header"``) carrying :data:`TRACE_VERSION`, the language/engine, the
program's surface syntax and fingerprint, the annotated-site table, and
the sampling parameters.  Then come **events** — ``"t": "pre"`` /
``"t": "post"``, one per monitoring hook the run would have fired — and
finally an **end** record (``"t": "end"``) with the program's answer and
the run's step counters.  A trace whose process died mid-write simply
stops early: the reader reports the truncation as a located diagnostic
(and can be told to keep the readable prefix with ``allow_truncated``).

Events are minimal on purpose: a site id into the header's site table, a
per-site activation ordinal, the annotation's ``FnHeader`` parameter
bindings (``pre``) or the produced value (``post``).  Everything else a
monitor hook receives — the annotation payload, the body term — is
reconstructed from the program, which is why the header embeds it.

The value codec keeps base values exact (ints, bools, floats, strings,
lists) and degrades function values and anything else opaque to their
``ToStr`` rendering, which is exactly what a monitor is allowed to
observe of them (:class:`OpaqueValue` renders the same string inline
monitors would have shown).  ``json.dumps`` with sorted keys and no
wall-clock fields makes a trace a *pure function* of (program, config,
seed) — byte-identical across runs, threads and processes, which the
sampling-determinism regression tests pin down.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

#: Bump when a record's shape changes incompatibly.  The reader refuses
#: versions outside :data:`READ_VERSIONS` with :class:`TraceVersionError`
#: — a silent mis-fold of an old trace would fabricate monitoring
#: results.  Version 2 extends version 1 with the nondeterministic-input
#: records replay needs (``input``: a debugger command consumed from a
#: live source; ``deadline``: the run's timeout fired) — every version-1
#: record reads unchanged, so v1 traces stay readable.
TRACE_VERSION = 2

#: The versions this reader accepts (v2 is a strict superset of v1).
READ_VERSIONS = (1, 2)

#: The record types a version-2 trace may contain (version 1 lacks
#: ``input`` and ``deadline``).
RECORD_TYPES = ("header", "pre", "post", "input", "deadline", "end")


class TraceError(ReproError):
    """Base class for trace recording/analysis failures."""


class TraceVersionError(TraceError):
    """The trace was written by an incompatible format version."""


class TraceFormatError(TraceError):
    """The trace file is malformed (bad JSON, unknown record, truncation)."""


# -- values --------------------------------------------------------------------


class OpaqueValue:
    """A value the trace kept only the rendering of (functions, thunks).

    Carries ``function_display`` so :func:`repro.semantics.values.
    value_to_string` shows the exact string the original value would have
    shown inline — a tracer folded over the trace prints ``<fun fac>``
    just like the live tracer did.
    """

    __slots__ = ("function_display",)

    def __init__(self, display: str) -> None:
        self.function_display = display

    def __repr__(self) -> str:
        return f"<opaque {self.function_display}>"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OpaqueValue):
            return self.function_display == other.function_display
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("opaque", self.function_display))


def encode_value(value: object) -> object:
    """Project a semantic value onto JSON.

    Base values stay themselves; proper lists become tagged item arrays;
    an ``L_imp`` store becomes its bindings; functions (and anything the
    codec does not model structurally) degrade to their ``ToStr``
    rendering under an ``"opaque"`` tag.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    from repro.semantics.values import Cons, Thunk, _Nil, value_to_string

    if isinstance(value, _Nil):
        return {"%": "list", "items": []}
    if isinstance(value, Cons):
        items: List[object] = []
        cursor: object = value
        while isinstance(cursor, Cons):
            items.append(encode_value(cursor.head))
            cursor = cursor.tail
        if isinstance(cursor, _Nil):
            return {"%": "list", "items": items}
        return {"%": "improper", "items": items, "tail": encode_value(cursor)}
    if isinstance(value, Thunk) and value.forced:
        return encode_value(value.value)
    as_dict = getattr(value, "as_dict", None)
    if as_dict is not None and hasattr(value, "update"):  # an L_imp store
        return {
            "%": "store",
            "bindings": {k: encode_value(v) for k, v in sorted(as_dict().items())},
        }
    if isinstance(value, tuple):
        return {"%": "pytuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"%": "pylist", "items": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "%": "pydict",
            "items": [[str(k), encode_value(v)] for k, v in sorted(value.items())],
        }
    try:
        shown = value_to_string(value)
    except Exception:
        shown = repr(value)
    return {"%": "opaque", "show": shown}


def decode_value(data: object) -> object:
    """The inverse of :func:`encode_value` (opaques come back as such)."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if not isinstance(data, dict):
        raise TraceError(f"undecodable trace value: {data!r}")
    tag = data.get("%")
    if tag in ("list", "improper"):
        from repro.semantics.values import NIL, Cons

        tail = decode_value(data["tail"]) if tag == "improper" else NIL
        for item in reversed(data.get("items", [])):
            tail = Cons(decode_value(item), tail)
        return tail
    if tag == "store":
        from repro.languages.imperative import Store

        return Store(
            {k: decode_value(v) for k, v in data.get("bindings", {}).items()}
        )
    if tag == "pytuple":
        return tuple(decode_value(v) for v in data.get("items", []))
    if tag == "pylist":
        return [decode_value(v) for v in data.get("items", [])]
    if tag == "pydict":
        return {k: decode_value(v) for k, v in data.get("items", [])}
    if tag == "opaque":
        return OpaqueValue(str(data.get("show", "<opaque>")))
    if tag == "fp":
        return OpaqueValue(f"<value #{data.get('h', '?')}>")
    raise TraceError(f"unknown trace value tag {tag!r}")


def canonical_json(record: object) -> str:
    """The one serialization every trace writer uses (byte-determinism)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def value_fingerprint(value: object) -> str:
    """A short content hash of a value's canonical encoding."""
    payload = canonical_json(encode_value(value)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


# -- sampling ------------------------------------------------------------------


def sample_includes(seed: int, site: int, occurrence: int, rate: float) -> bool:
    """The deterministic per-activation sampling decision.

    Keyed on ``(seed, site, occurrence)`` — never on wall clock, thread
    identity or process id — so the same seed and program always sample
    the same activations, whatever executor ran the recording.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    key = f"{seed}:{site}:{occurrence}".encode("ascii")
    return (zlib.crc32(key) & 0xFFFFFFFF) < int(rate * 4294967296.0)


# -- the site table ------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One annotated node of the program, in pre-order ``walk()`` position.

    ``params`` are the names the recorder captures from the context at
    ``pre`` (the annotation's ``FnHeader`` parameters — the only context
    reads the toolbox monitors perform).
    """

    site_id: int
    annotation: object
    body: object
    params: Tuple[str, ...]
    rendered: str


def _annotation_params(payload: object) -> Tuple[str, ...]:
    params = getattr(payload, "params", None)
    if isinstance(params, tuple):
        return params
    inner = getattr(payload, "payload", None)  # Tagged
    if inner is not None:
        return _annotation_params(inner)
    return ()


def _render_annotation(payload: object) -> str:
    render = getattr(payload, "render", None)
    if render is not None:
        try:
            return render()
        except Exception:
            pass
    return str(payload)


def build_site_table(program) -> List[Site]:
    """Enumerate the program's annotated nodes in deterministic pre-order.

    The one site numbering: trace events, the flow verdict and codegen's
    ``_pre``/``_post`` calls (through
    :class:`~repro.monitoring.sites.SiteTable`) all use these ids.
    """
    sites: List[Site] = []
    for node in program.walk():
        payload = getattr(node, "annotation", None)
        if payload is None:
            continue
        sites.append(
            Site(
                site_id=len(sites),
                annotation=payload,
                body=node.body,
                params=_annotation_params(payload),
                rendered=_render_annotation(payload),
            )
        )
    return sites


def site_matches(site: Site, selector: str) -> bool:
    """Does a ``--sites`` selector pick this site?

    Selectors match the rendered annotation, its bare name, or the site
    id as a decimal string.
    """
    if selector == site.rendered or selector == str(site.site_id):
        return True
    payload = site.annotation
    while payload is not None:
        if getattr(payload, "name", None) == selector:
            return True
        payload = getattr(payload, "payload", None)
    return False


# -- the reader ----------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    """One monitoring hook firing: ``phase`` at ``site``, activation ``occ``."""

    phase: str
    site: int
    occ: int
    bindings: Optional[Dict[str, object]] = None
    value: object = None


@dataclass(frozen=True)
class TraceInput:
    """One nondeterministic input the recorded run consumed (v2).

    ``kind`` names the input channel (currently ``"command"`` — a
    debugger command drawn from a live source); ``value`` is the input
    itself; ``pos`` is the number of ``pre``/``post`` events already in
    the trace when it was consumed, which is how a replay knows *where*
    in the run the input arrived.
    """

    kind: str
    value: str
    pos: int


@dataclass
class Trace:
    """A parsed trace: header + events + (unless truncated) the end record.

    ``inputs`` holds the v2 nondeterministic-input records in consumption
    order; ``deadline`` is the v2 timeout marker (the run was killed by
    its wall-clock budget after ``deadline["events"]`` events — the trace
    is *complete as a record of that truncated run*, which is different
    from ``truncated``, where the recorder itself died mid-write).
    """

    header: Dict[str, object]
    events: List[TraceEvent] = field(default_factory=list)
    footer: Optional[Dict[str, object]] = None
    path: str = "<trace>"
    truncated: bool = False
    inputs: List[TraceInput] = field(default_factory=list)
    deadline: Optional[Dict[str, object]] = None

    @property
    def version(self) -> int:
        return int(self.header.get("trace_version", 0))

    @property
    def language(self) -> str:
        return str(self.header.get("language", "strict"))

    @property
    def program_source(self) -> Optional[str]:
        source = self.header.get("program")
        return source if isinstance(source, str) else None

    @property
    def site_count(self) -> int:
        return int(self.header.get("sites", 0))

    @property
    def site_annotations(self) -> Tuple[str, ...]:
        return tuple(self.header.get("site_annotations", ()))

    @property
    def timed_out(self) -> bool:
        """Did the recorded run die on its wall-clock deadline?"""
        return self.deadline is not None

    def commands(self) -> List[str]:
        """The recorded debugger commands, in consumption order."""
        return [i.value for i in self.inputs if i.kind == "command"]

    def answer(self) -> object:
        """The recorded standard answer (``None`` on a truncated trace)."""
        if self.footer is None:
            return None
        return decode_value(self.footer.get("answer"))


def _located(path: str, lineno: int, message: str) -> TraceFormatError:
    return TraceFormatError(f"{path}:{lineno}: {message}")


def _parse_header(record: object, path: str) -> Dict[str, object]:
    if not isinstance(record, dict) or record.get("t") != "header":
        raise _located(
            path,
            1,
            "not a trace: the first record must be the header "
            '({"t": "header", "trace_version": ...})',
        )
    version = record.get("trace_version")
    if not isinstance(version, int):
        raise _located(path, 1, "header is missing its 'trace_version'")
    if version not in READ_VERSIONS:
        raise TraceVersionError(
            f"{path}: trace format version {version} is not supported "
            f"(this build reads versions "
            f"{', '.join(map(str, READ_VERSIONS))}); re-record the "
            "trace with the matching repro version"
        )
    if not isinstance(record.get("sites"), int):
        raise _located(path, 1, "header is missing its 'sites' count")
    return record


def _parse_event(
    record: Dict[str, object], path: str, lineno: int, site_count: int
) -> TraceEvent:
    kind = record.get("t")
    site = record.get("s")
    if not isinstance(site, int) or not 0 <= site < site_count:
        raise _located(
            path,
            lineno,
            f"event site {site!r} is not a valid site id "
            f"(trace has {site_count} sites)",
        )
    occ = record.get("o")
    if not isinstance(occ, int) or occ < 0:
        raise _located(path, lineno, f"event occurrence {occ!r} is not valid")
    if kind == "pre":
        bindings = record.get("b", {})
        if not isinstance(bindings, dict):
            raise _located(path, lineno, "pre event bindings must be an object")
        return TraceEvent(phase="pre", site=site, occ=occ, bindings=bindings)
    return TraceEvent(phase="post", site=site, occ=occ, value=record.get("v"))


def read_trace(path: str, *, allow_truncated: bool = False) -> Trace:
    """Parse a trace file, with every failure a located diagnostic.

    * an empty file, a non-header first record, or a missing version
      field → :class:`TraceFormatError` naming the file;
    * a version mismatch → :class:`TraceVersionError`;
    * an unknown record type or malformed event → :class:`TraceFormatError`
      with ``path:line``;
    * a half-written final line or a missing end record (the recorder
      crashed mid-write) → :class:`TraceFormatError`, unless
      ``allow_truncated=True``, which keeps the readable prefix and sets
      ``trace.truncated``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    numbered = [(i, line) for i, line in enumerate(lines, 1) if line.strip()]
    if not numbered:
        raise TraceFormatError(f"{path}: empty trace file (no header record)")

    records: List[Tuple[int, object]] = []
    truncated = False
    for position, (lineno, line) in enumerate(numbered):
        try:
            records.append((lineno, json.loads(line)))
        except ValueError:
            if position == len(numbered) - 1:
                # A half-written last line: the classic crash-mid-write.
                if allow_truncated:
                    truncated = True
                    break
                raise _located(
                    path,
                    lineno,
                    "truncated record (recorder crashed mid-write?); "
                    "pass allow_truncated / --allow-truncated to analyze "
                    "the readable prefix",
                ) from None
            raise _located(path, lineno, "malformed JSON record") from None

    header = _parse_header(records[0][1], path)
    trace = Trace(header=header, path=path, truncated=truncated)
    site_count = trace.site_count
    for lineno, record in records[1:]:
        if not isinstance(record, dict):
            raise _located(path, lineno, "trace records must be JSON objects")
        if trace.footer is not None:
            raise _located(path, lineno, "record after the end-of-trace record")
        if trace.deadline is not None:
            raise _located(path, lineno, "record after the deadline record")
        kind = record.get("t")
        if kind in ("pre", "post"):
            trace.events.append(_parse_event(record, path, lineno, site_count))
        elif kind == "input":
            if trace.version < 2:
                raise _located(
                    path, lineno, "input records need trace version 2"
                )
            input_kind, value = record.get("k"), record.get("v")
            if not isinstance(input_kind, str) or not isinstance(value, str):
                raise _located(
                    path, lineno, "input record needs string 'k' and 'v' fields"
                )
            trace.inputs.append(
                TraceInput(kind=input_kind, value=value, pos=len(trace.events))
            )
        elif kind == "deadline":
            if trace.version < 2:
                raise _located(
                    path, lineno, "deadline records need trace version 2"
                )
            trace.deadline = record
        elif kind == "end":
            trace.footer = record
        elif kind == "header":
            raise _located(path, lineno, "duplicate header record")
        else:
            raise _located(
                path,
                lineno,
                f"unknown event type {kind!r} (this version knows "
                f"{', '.join(RECORD_TYPES)})",
            )
    if trace.footer is None and not trace.truncated and not trace.timed_out:
        # A trace ending with a deadline record is *complete*: it is the
        # honest record of a run the timeout killed, and replays as such.
        if not allow_truncated:
            raise TraceFormatError(
                f"{path}: trace ends without an end record (recorder "
                "crashed?); pass allow_truncated / --allow-truncated to "
                "analyze the readable prefix"
            )
        trace.truncated = True
    return trace


__all__ = [
    "OpaqueValue",
    "READ_VERSIONS",
    "RECORD_TYPES",
    "Site",
    "TRACE_VERSION",
    "Trace",
    "TraceError",
    "TraceEvent",
    "TraceInput",
    "TraceFormatError",
    "TraceVersionError",
    "build_site_table",
    "canonical_json",
    "decode_value",
    "encode_value",
    "read_trace",
    "sample_includes",
    "site_matches",
    "value_fingerprint",
]
