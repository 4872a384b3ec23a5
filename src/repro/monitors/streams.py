"""Persistent output streams — the tracer's ``OutChan``/``Stream`` algebra.

The paper treats the output channel "as an abstract datatype with
operations ``addStream`` to add a new string to a given stream, and
``initStream``" (Figure 7).  Monitoring functions are pure, so the stream
is a persistent value living inside the monitor state: ``add`` returns a
*new* stream sharing the old one.  Internally it is a reversed linked list
(O(1) add); rendering reverses once.

Writers add one chunk per emitted line (the tracer's ``printChan`` and the
debugger's ``_emit`` each build their whole line first), so a node is the
only per-line cost.  Nodes carry no length: ``len`` walks the chain and is
O(n), while truthiness (``bool``) stays O(1).
"""

from __future__ import annotations

from typing import Iterator, List, Optional


class Stream:
    """An immutable output stream of strings."""

    __slots__ = ("_text", "_rest")

    def __init__(
        self, text: Optional[str] = None, rest: Optional["Stream"] = None
    ) -> None:
        self._text = text
        self._rest = rest

    def add(self, text: str) -> "Stream":
        """``addStream``: a new stream with ``text`` appended."""
        return Stream(text, self)

    def __len__(self) -> int:
        """The number of added chunks; O(n), walks the chain."""
        count = 0
        node = self._rest
        while node is not None:
            count += 1
            node = node._rest
        return count

    def __bool__(self) -> bool:
        return self._rest is not None

    def chunks(self) -> List[str]:
        """All added chunks, oldest first."""
        out: List[str] = []
        node: Optional[Stream] = self
        while node is not None and node._rest is not None:
            out.append(node._text)  # type: ignore[arg-type]
            node = node._rest
        out.reverse()
        return out

    def render(self) -> str:
        """The stream's contents as one string."""
        return "".join(self.chunks())

    def lines(self) -> List[str]:
        """The rendered contents split into lines (no trailing empty line)."""
        text = self.render()
        if not text:
            return []
        return text.rstrip("\n").split("\n")

    def __iter__(self) -> Iterator[str]:
        return iter(self.chunks())

    def __repr__(self) -> str:
        return f"<stream {len(self)} chunks>"


#: ``initStream``.
def init_stream() -> Stream:
    return Stream()
