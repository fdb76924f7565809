"""Churn schedules (Section 3.3, Section 5.3.3).

A churn model decides, at the start of each cycle, how many nodes
leave and join; *which* nodes leave and what attribute the joiners
carry is delegated to policies (see :mod:`repro.churn.correlated`),
because the paper's key experiments use churn *correlated* with the
attribute value.

The paper's two schedules:

* Figure 6(c): a **burst** — 0.1% of nodes leave and 0.1% join in
  *each* cycle during the first 200 cycles, then churn stops.
* Figure 6(d): **regular** churn — 0.1% leave and join every 10 cycles
  for the whole run.

Rates are fractional: at the paper's n = 10^4 a 0.1% step is 10 nodes,
but scaled-down runs would round 0.001 * 2000 = 2 exactly; in general
we accumulate the fractional remainder so the long-run rate is exact
at any system size.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.churn.correlated import (
    ArrivalAttributePolicy,
    AvailabilityTrace,
    CorrelatedArrivals,
    DeparturePolicy,
    LowestAttributeDepartures,
)

__all__ = [
    "ChurnEvent",
    "ChurnModel",
    "NoChurn",
    "BurstChurn",
    "RegularChurn",
    "TraceChurn",
    "AvailabilityChurn",
]


@dataclass(frozen=True)
class ChurnEvent:
    """What one cycle's churn did."""

    cycle: int
    departed: Tuple[int, ...]
    joined: Tuple[int, ...]

    @property
    def total(self) -> int:
        return len(self.departed) + len(self.joined)


class ChurnModel(ABC):
    """Per-cycle churn driver."""

    @abstractmethod
    def apply(self, sim) -> ChurnEvent:
        """Apply this cycle's churn to ``sim``; return what happened."""


class NoChurn(ChurnModel):
    """Static system (Figures 4 and 6(a)/6(b))."""

    def apply(self, sim) -> ChurnEvent:
        return ChurnEvent(sim.now, (), ())


class _RateChurn(ChurnModel):
    """Shared machinery: fractional-rate churn with pluggable policies."""

    def __init__(
        self,
        rate: float,
        departures: Optional[DeparturePolicy] = None,
        arrivals: Optional[ArrivalAttributePolicy] = None,
    ) -> None:
        if rate < 0:
            raise ValueError("churn rate cannot be negative")
        self.rate = rate
        self.departures = departures if departures is not None else LowestAttributeDepartures()
        self.arrivals = arrivals if arrivals is not None else CorrelatedArrivals()
        self._leave_carry = 0.0
        self._join_carry = 0.0

    def _active(self, cycle: int) -> bool:
        raise NotImplementedError

    def apply(self, sim) -> ChurnEvent:
        cycle = sim.now
        if not self._active(cycle):
            return ChurnEvent(cycle, (), ())
        n = sim.live_count
        self._leave_carry += self.rate * n
        self._join_carry += self.rate * n
        leave_count = int(self._leave_carry)
        join_count = int(self._join_carry)
        self._leave_carry -= leave_count
        self._join_carry -= join_count

        departed: List[int] = []
        if leave_count > 0:
            # Never depopulate the system entirely.
            leave_count = min(leave_count, max(0, sim.live_count - 2))
            for node_id in self.departures.select(sim, leave_count):
                sim.remove_node(node_id)
                departed.append(node_id)

        joined: List[int] = []
        for attribute in self.arrivals.attributes(sim, join_count):
            node = sim.add_node(attribute)
            joined.append(node.node_id)

        event = ChurnEvent(cycle, tuple(departed), tuple(joined))
        if event.total:
            sim.trace.record(cycle, "churn", None, (len(departed), len(joined)))
        return event


class BurstChurn(_RateChurn):
    """Churn active on every cycle of ``[start, end)`` (Figure 6(c):
    ``rate=0.001, start=0, end=200``)."""

    def __init__(
        self,
        rate: float = 0.001,
        start: int = 0,
        end: int = 200,
        departures: Optional[DeparturePolicy] = None,
        arrivals: Optional[ArrivalAttributePolicy] = None,
    ) -> None:
        super().__init__(rate, departures, arrivals)
        if end < start:
            raise ValueError("end must be >= start")
        self.start = start
        self.end = end

    def _active(self, cycle: int) -> bool:
        return self.start <= cycle < self.end


class RegularChurn(_RateChurn):
    """Churn every ``period`` cycles for the whole run (Figure 6(d):
    ``rate=0.001, period=10``)."""

    def __init__(
        self,
        rate: float = 0.001,
        period: int = 10,
        departures: Optional[DeparturePolicy] = None,
        arrivals: Optional[ArrivalAttributePolicy] = None,
    ) -> None:
        super().__init__(rate, departures, arrivals)
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period

    def _active(self, cycle: int) -> bool:
        return cycle % self.period == 0


class AvailabilityChurn(ChurnModel):
    """Replay an :class:`~repro.churn.correlated.AvailabilityTrace`.

    The trace's signed per-cycle rates (fractions of the current live
    population; positive = joins, negative = departures) go through the
    same fractional-carry accounting as the rate-based models, so the
    long-run rate is exact at any system size and the bulk twin
    (:class:`~repro.vectorized.churn.BulkAvailabilityChurn`) produces
    the same per-cycle counts.
    """

    def __init__(
        self,
        trace: AvailabilityTrace,
        departures: Optional[DeparturePolicy] = None,
        arrivals: Optional[ArrivalAttributePolicy] = None,
    ) -> None:
        self.trace = trace
        self.departures = (
            departures if departures is not None else LowestAttributeDepartures()
        )
        self.arrivals = arrivals if arrivals is not None else CorrelatedArrivals()
        self._leave_carry = 0.0
        self._join_carry = 0.0

    def apply(self, sim) -> ChurnEvent:
        cycle = sim.now
        rate = self.trace.rate(cycle)
        n = sim.live_count
        if rate > 0:
            self._join_carry += rate * n
        elif rate < 0:
            self._leave_carry += -rate * n
        leave_count = int(self._leave_carry)
        join_count = int(self._join_carry)
        self._leave_carry -= leave_count
        self._join_carry -= join_count
        if not leave_count and not join_count:
            return ChurnEvent(cycle, (), ())

        departed: List[int] = []
        if leave_count > 0:
            leave_count = min(leave_count, max(0, sim.live_count - 2))
            for node_id in self.departures.select(sim, leave_count):
                sim.remove_node(node_id)
                departed.append(node_id)

        joined: List[int] = []
        for attribute in self.arrivals.attributes(sim, join_count):
            node = sim.add_node(attribute)
            joined.append(node.node_id)

        event = ChurnEvent(cycle, tuple(departed), tuple(joined))
        if event.total:
            sim.trace.record(cycle, "churn", None, (len(departed), len(joined)))
        return event


class TraceChurn(ChurnModel):
    """Replay an explicit schedule of joins and leaves.

    ``events`` maps a cycle to ``(leave_count, join_attributes)``.
    """

    def __init__(
        self,
        events,
        departures: Optional[DeparturePolicy] = None,
    ) -> None:
        self.events = dict(events)
        self.departures = departures if departures is not None else LowestAttributeDepartures()

    def apply(self, sim) -> ChurnEvent:
        cycle = sim.now
        if cycle not in self.events:
            return ChurnEvent(cycle, (), ())
        leave_count, join_attributes = self.events[cycle]
        departed: List[int] = []
        leave_count = min(leave_count, max(0, sim.live_count - 2))
        for node_id in self.departures.select(sim, leave_count):
            sim.remove_node(node_id)
            departed.append(node_id)
        joined = [sim.add_node(attribute).node_id for attribute in join_attributes]
        return ChurnEvent(cycle, tuple(departed), tuple(joined))
