"""Time-series collection during simulation runs.

A *collector* is called by the engine at the end of every cycle and
appends one observation to a :class:`TimeSeries`.  Collectors are how every figure
of the paper is regenerated: e.g. Figure 6(a) is one
:class:`SliceDisorderCollector` per algorithm.
"""

from __future__ import annotations

from typing import Callable, List, Optional

__all__ = [
    "TimeSeries",
    "Collector",
    "SliceDisorderCollector",
    "GlobalDisorderCollector",
    "UnsuccessfulSwapCollector",
    "PopulationCollector",
    "MessageCountCollector",
    "DistinctValueCollector",
    "FunctionCollector",
]


class TimeSeries:
    """An append-only ``(time, value)`` series with a name."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    @property
    def final(self) -> float:
        """Last recorded value."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return self.values[-1]

    @property
    def minimum(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return min(self.values)

    @property
    def maximum(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return max(self.values)

    def at(self, time: float) -> float:
        """Value recorded at ``time`` (exact match required)."""
        try:
            return self.values[self.times.index(time)]
        except ValueError:
            raise KeyError(f"no observation at time {time} in {self.name!r}") from None

    def value_at_or_before(self, time: float) -> float:
        """Most recent value recorded at or before ``time``."""
        best: Optional[float] = None
        for t, v in zip(self.times, self.values):
            if t <= time:
                best = v
            else:
                break
        if best is None:
            raise KeyError(f"no observation at or before {time} in {self.name!r}")
        return best

    def first_time_below(self, threshold: float) -> Optional[float]:
        """Earliest time the series drops (weakly) below ``threshold``.

        The convergence-speed comparisons (e.g. mod-JK vs JK in Figure
        4(b)) are phrased as "cycles until SDM reaches X".
        """
        for t, v in zip(self.times, self.values):
            if v <= threshold:
                return t
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, points={len(self.values)})"


class Collector:
    """Base collector: owns a series and samples every ``every`` cycles."""

    def __init__(self, name: str, every: int = 1) -> None:
        if every <= 0:
            raise ValueError("sampling interval must be positive")
        self.series = TimeSeries(name)
        self.every = every

    def collect(self, sim) -> None:
        """Called by the engine after each cycle."""
        time = sim.now
        if time % self.every == 0:
            self.series.append(time, self.measure(sim))

    def measure(self, sim) -> float:
        raise NotImplementedError


class SliceDisorderCollector(Collector):
    """Samples the slice disorder measure (SDM) over the engine's own
    partition."""

    def __init__(self, name: str = "sdm", every: int = 1):
        super().__init__(name, every)

    def measure(self, sim) -> float:
        return sim.slice_disorder()


class GlobalDisorderCollector(Collector):
    """Samples the global disorder measure (GDM)."""

    def __init__(self, name: str = "gdm", every: int = 1):
        super().__init__(name, every)

    def measure(self, sim) -> float:
        return sim.global_disorder()


class UnsuccessfulSwapCollector(Collector):
    """Per-cycle percentage of intended swaps that failed (Figure 4(c))."""

    def __init__(self, name: str = "unsuccessful_pct", every: int = 1):
        super().__init__(name, every)

    def measure(self, sim) -> float:
        return 100.0 * sim.bus_stats.cycle_unsuccessful_ratio()


class PopulationCollector(Collector):
    """Samples the live-node count (visualizes churn schedules)."""

    def __init__(self, name: str = "population", every: int = 1):
        super().__init__(name, every)

    def measure(self, sim) -> float:
        return float(sim.live_count)


class MessageCountCollector(Collector):
    """Cumulative messages sent (communication cost accounting)."""

    def __init__(self, name: str = "messages", every: int = 1):
        super().__init__(name, every)

    def measure(self, sim) -> float:
        return float(sim.bus_stats.sent)


class DistinctValueCollector(Collector):
    """Number of distinct ``r`` values among live nodes.

    For the ordering algorithms this is a conservation diagnostic: with
    atomic exchanges the multiset of random values is invariant; under
    concurrency one-sided swaps can duplicate values — one mechanism
    behind the residual slice error.
    """

    def __init__(self, name: str = "distinct_values", every: int = 1):
        super().__init__(name, every)

    def measure(self, sim) -> float:
        return float(len({node.value for node in sim.live_nodes()}))


class FunctionCollector(Collector):
    """Wrap an arbitrary ``measure(sim) -> float`` callable."""

    def __init__(self, name: str, fn: Callable, every: int = 1):
        super().__init__(name, every)
        self._fn = fn

    def measure(self, sim) -> float:
        return float(self._fn(sim))
