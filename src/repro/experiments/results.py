"""Experiment result containers.

A :class:`FigureResult` holds everything a regenerated paper figure
consists of: the named time series (one per curve), scalar findings
(convergence cycles, plateaus, ratios), the run parameters, free-form
notes, and the verdict of each of the paper's :class:`Claim` s on
this run.  :mod:`repro.experiments.report` renders it as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.metrics.collectors import TimeSeries

__all__ = ["Claim", "FigureResult"]


class Claim(NamedTuple):
    """One claim of the paper, stated once: its id, the paper section,
    the statement, and a predicate over a result's scalars and series."""

    name: str
    section: str
    statement: str
    holds: Callable[[Dict[str, float], Dict[str, TimeSeries]], bool]


@dataclass
class FigureResult:
    """One regenerated figure (or table)."""

    figure: str
    title: str
    params: Dict[str, object] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    verdicts: List[Tuple[Claim, bool]] = field(default_factory=list)

    def add_series(self, series: TimeSeries, name: Optional[str] = None) -> None:
        self.series[name if name is not None else series.name] = series

    def add_scalar(self, name: str, value: float) -> None:
        self.scalars[name] = value

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def judge(self, claims) -> "FigureResult":
        """Record whether each of ``claims`` holds on this result."""
        for claim in claims:
            self.verdicts.append((claim, bool(claim.holds(self.scalars, self.series))))
        return self

    # ------------------------------------------------------------------
    # Tabulation
    # ------------------------------------------------------------------

    def sample_times(self, max_rows: int = 20) -> List[float]:
        """A subsampled, merged time grid across all series."""
        all_times = sorted({t for s in self.series.values() for t in s.times})
        if len(all_times) <= max_rows:
            return all_times
        step = (len(all_times) - 1) / (max_rows - 1)
        indices = sorted({int(round(i * step)) for i in range(max_rows)})
        return [all_times[i] for i in indices]

    def rows(self, max_rows: int = 20) -> List[List[str]]:
        """Header + data rows: time column then one column per series."""
        names = list(self.series)
        header = ["time"] + names
        body: List[List[str]] = []
        for time in self.sample_times(max_rows):
            row = [f"{time:g}"]
            for name in names:
                try:
                    value = self.series[name].value_at_or_before(time)
                    row.append(f"{value:.4g}")
                except KeyError:
                    row.append("-")
            body.append(row)
        return [header] + body
