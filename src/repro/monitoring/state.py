"""Monitor-state vectors: the operational form of cascaded monitor states.

The paper nests answer domains per cascade level
(``MS2 -> ((Ans x MS1) x MS2)``, Section 6).  The machine instead threads a
single immutable *vector* with one slot per monitor, which is isomorphic to
the nested pairs: projecting a level of the nest corresponds to reading a
slot.  Immutability gives the same guarantee the types give in the paper —
a monitor's update produces a *new* vector and can only replace its own
slot (the derivation performs the write; monitor code never sees the
vector, only its own state).

Two representations share the interface:

* :class:`MonitorStateVector` — the general dict-backed vector for stacks
  of any depth.
* :class:`SingleSlotVector` — the fast path for the overwhelmingly common
  one-monitor case.  ``set``/``get`` touch two attribute slots and never
  build or copy a mapping, so every annotation hit costs one small object
  allocation instead of a dict copy.

:meth:`MonitorStateVector.initial` picks the representation, so every
caller (the derivation, the residual runtime, the specializer) gets the
fast path for free.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple


class MonitorStateVector:
    """An immutable mapping from monitor key to that monitor's state."""

    __slots__ = ("_slots",)

    def __init__(self, slots: Dict[str, object]) -> None:
        self._slots = slots

    @classmethod
    def initial(cls, monitors: Iterable) -> "MonitorStateVector":
        """Build the vector of ``sigma_0`` states for ``monitors``.

        A one-monitor stack gets the copy-free :class:`SingleSlotVector`
        representation.
        """
        monitor_list = list(monitors)
        if len(monitor_list) == 1:
            only = monitor_list[0]
            return SingleSlotVector(only.key, only.initial_state())
        return cls({monitor.key: monitor.initial_state() for monitor in monitor_list})

    def get(self, key: str):
        return self._slots[key]

    def set(self, key: str, state) -> "MonitorStateVector":
        """A new vector with ``key``'s slot replaced."""
        slots = dict(self._slots)
        slots[key] = state
        return MonitorStateVector(slots)

    def view(self, keys: Tuple[str, ...]) -> Mapping[str, object]:
        """A read-only view of selected slots, for cascade observation."""
        return MappingProxyType({key: self._slots[key] for key in keys})

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._slots)

    def as_dict(self) -> Dict[str, object]:
        return dict(self._slots)

    def __contains__(self, key: str) -> bool:
        return key in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:
        return f"MonitorStateVector({self._slots!r})"


class SingleSlotVector(MonitorStateVector):
    """A one-monitor state vector with copy-free ``get``/``set``.

    Replacing the only slot allocates a new two-field object and nothing
    else — no dict is built, copied, or hashed.  Setting a *different* key
    (which the derivation never does, but the public API permits) upgrades
    to the general dict-backed representation.
    """

    __slots__ = ("_key", "_state")

    def __init__(self, key: str, state) -> None:  # noqa: D401 - no super init
        self._key = key
        self._state = state

    def get(self, key: str):
        if key == self._key:
            return self._state
        raise KeyError(key)

    def set(self, key: str, state) -> "MonitorStateVector":
        if key == self._key:
            return SingleSlotVector(key, state)
        return MonitorStateVector({self._key: self._state, key: state})

    def view(self, keys: Tuple[str, ...]) -> Mapping[str, object]:
        return MappingProxyType({key: self.get(key) for key in keys})

    def keys(self) -> Tuple[str, ...]:
        return (self._key,)

    def as_dict(self) -> Dict[str, object]:
        return {self._key: self._state}

    def __contains__(self, key: str) -> bool:
        return key == self._key

    def __len__(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"SingleSlotVector({self._key!r}: {self._state!r})"
