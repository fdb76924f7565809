"""Lightweight structured tracing for simulations.

A :class:`TraceLog` records timestamped events emitted by the engine and
by protocols (joins, leaves, message sends, swaps, ...).  Tracing is off
by default — the hot paths only pay a single attribute check — and can
be enabled selectively per category, so full-scale runs stay fast while
tests and debugging sessions can capture everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["TraceEvent", "TraceLog", "NULL_TRACE"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded simulation event.

    Attributes
    ----------
    time:
        Cycle number the event happened in.
    category:
        Short machine-readable category, e.g. ``"swap"``, ``"join"``.
    node:
        Identifier of the node the event concerns, if any.
    details:
        Free-form payload (kept small; tuples of primitives preferred).
        ``None`` means "no payload" and allocates nothing per event.
    """

    time: int
    category: str
    node: Optional[int] = None
    details: Optional[Tuple] = None


class TraceLog:
    """A filterable in-memory event log.

    Parameters
    ----------
    enabled:
        Master switch.  When ``False`` every :meth:`record` call is a
        no-op, making the log safe to leave plumbed into hot paths.
    categories:
        When given, only events whose category is in this set are kept.
    capacity:
        Optional bound on the number of retained events; the oldest
        events are dropped first (simple ring behaviour).
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Optional[Iterable[str]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        self._categories = frozenset(categories) if categories is not None else None
        self._capacity = capacity
        self._events: List[TraceEvent] = []
        self._counts: Dict[str, int] = {}

    def record(
        self,
        time: int,
        category: str,
        node: Optional[int] = None,
        details: Optional[Tuple] = None,
    ) -> None:
        """Record one event (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self._categories is not None and category not in self._categories:
            return
        self._counts[category] = self._counts.get(category, 0) + 1
        self._events.append(TraceEvent(time, category, node, details))
        if self._capacity is not None and len(self._events) > self._capacity:
            del self._events[0]

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        """All retained events, optionally restricted to one category."""
        if category is None:
            return list(self._events)
        return [event for event in self._events if event.category == category]

    def count(self, category: str) -> int:
        """How many events of ``category`` were *recorded* (incl. dropped)."""
        return self._counts.get(category, 0)

    def counts(self) -> Dict[str, int]:
        """Snapshot of recorded-event counts per category (telemetry
        bridges read deltas of this between cycles)."""
        return dict(self._counts)

    def clear(self) -> None:
        """Drop all retained events and counters."""
        self._events.clear()
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceLog(enabled={self.enabled}, events={len(self._events)})"


#: Shared disabled log: protocols default to this so tracing costs one
#: boolean check unless a real log is injected.
NULL_TRACE = TraceLog(enabled=False)
