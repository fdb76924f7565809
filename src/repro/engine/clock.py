"""The simulation clock.

Time is the PeerSim-style cycle the paper uses: it advances in
discrete cycles, and within a cycle every live node runs its active
thread once.  :class:`CycleClock` tracks it.
"""

from __future__ import annotations

__all__ = ["CycleClock"]


class CycleClock:
    """Discrete cycle counter starting at 0.

    >>> clock = CycleClock()
    >>> clock.now
    0
    >>> clock.advance()
    1
    """

    __slots__ = ("_cycle",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("cycle time cannot be negative")
        self._cycle = start

    @property
    def now(self) -> int:
        """Current cycle number."""
        return self._cycle

    def advance(self, cycles: int = 1) -> int:
        """Advance the clock by ``cycles`` (default 1) and return it."""
        if cycles < 0:
            raise ValueError("cannot advance a clock backwards")
        self._cycle += cycles
        return self._cycle

    def reset(self) -> None:
        """Reset the clock to cycle 0."""
        self._cycle = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CycleClock(now={self._cycle})"
