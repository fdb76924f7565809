"""Aggregate telemetry records into a readable cycle report.

:class:`CycleReport` consumes the per-cycle records a
:class:`~repro.obs.telemetry.Telemetry` produced (in memory or from an
NDJSON profile file) and answers the question the ROADMAP's top item
asks: *where does a cycle's time go?*  For every span path it reports
total, per-cycle p50/p95/max, and **self time** — total minus the time
attributed to its direct children — so a fat parent with thin children
is visible as serial spine rather than hidden overhead.  Counters are
reported as totals and per-cycle rates, and :attr:`coverage` states
what fraction of measured wall time the top-level spans account for
(the acceptance bar for the instrumentation itself).

Worker sub-spans (the ``"workers"`` bucket sharded/distributed
replies are merged into) are grafted into the span tree as
``<dispatch>/w<i>/<sub>`` paths and rolled up into a per-worker
utilization table (:meth:`CycleReport.worker_table`) — the straggler
view.  Worker paths are *parallel* time, so they are excluded from
self-time subtraction (the dispatch span's self time stays its serial
driver-side cost) and from the serial spine.  When the records carry a
``{"kind": "metrics"}`` convergence stream, :meth:`render` appends the
:mod:`repro.obs.health` summary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.health import health_summary, render_health
from repro.obs.sink import read_ndjson
from repro.obs.telemetry import merge_counter

__all__ = ["CycleReport", "SpanStat"]


def _percentile(sorted_values: List[int], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return float(sorted_values[index])


def _is_worker_path(path: str) -> bool:
    """True when any segment is a worker track (``w0``, ``w13``, ...)."""
    return any(
        part[0] == "w" and part[1:].isdigit()
        for part in path.split("/")
        if len(part) > 1
    )


class SpanStat:
    """Aggregated timing for one span path."""

    __slots__ = (
        "path", "total_ns", "count", "cycles", "self_ns", "samples",
        "is_worker",
    )

    def __init__(self, path: str) -> None:
        self.path = path
        self.total_ns = 0
        self.count = 0
        self.cycles = 0
        self.self_ns = 0
        self.samples: List[int] = []  # per-record totals, for percentiles
        self.is_worker = _is_worker_path(path)

    @property
    def depth(self) -> int:
        return self.path.count("/")

    def p50_ns(self) -> float:
        return _percentile(sorted(self.samples), 0.50)

    def p95_ns(self) -> float:
        return _percentile(sorted(self.samples), 0.95)

    def max_ns(self) -> float:
        return float(max(self.samples)) if self.samples else 0.0


class CycleReport:
    """Span/counter aggregation over a set of telemetry records."""

    def __init__(self, records: List[dict], engine: Optional[str] = None) -> None:
        if engine is not None:
            records = [r for r in records if r.get("engine") == engine]
        self.records = records
        self.cycle_records = [r for r in records if r.get("kind") == "cycle"]
        self.ambient_records = [r for r in records if r.get("kind") == "ambient"]
        self.metrics_records = [r for r in records if r.get("kind") == "metrics"]
        self.engines = sorted(
            {r.get("engine", "") for r in records if r.get("kind") != "metrics"}
            or {r.get("engine", "") for r in records}
        )

        self.wall_ns = sum(r.get("wall_ns", 0) for r in self.cycle_records)
        self.spans: Dict[str, SpanStat] = {}
        for record in self.cycle_records:
            for path, (elapsed, count) in record.get("spans", {}).items():
                self._add_span_sample(path, elapsed, count)
            self._merge_workers(record)
        # Per-worker busy/wait rollup over *all* records (cycle and
        # ambient), for the straggler table.
        self.worker_totals: Dict[str, Dict[str, int]] = {}
        for record in records:
            for worker, spans in record.get("workers", {}).items():
                totals = self.worker_totals.setdefault(
                    worker, {"busy_ns": 0, "wait_ns": 0, "commands": 0}
                )
                for path, (elapsed, count) in spans.items():
                    if path.rsplit("/", 1)[-1] == "wait":
                        totals["wait_ns"] += elapsed
                        totals["commands"] += count
                    else:
                        totals["busy_ns"] += elapsed
        # Self time: total minus direct children.  Worker sub-trees
        # are parallel time and must not eat the dispatch span's self
        # time, so worker-tagged children are excluded.
        for path, stat in self.spans.items():
            child_total = sum(
                other.total_ns
                for other_path, other in self.spans.items()
                if other_path.startswith(path + "/")
                and other_path.count("/") == stat.depth + 1
                and (stat.is_worker or not other.is_worker)
            )
            stat.self_ns = stat.total_ns - child_total

        self.counters: Dict[str, float] = {}
        for record in records:
            for name, value in record.get("counters", {}).items():
                merge_counter(self.counters, name, value)

    def _add_span_sample(self, path: str, elapsed: int, count: int) -> None:
        stat = self.spans.get(path)
        if stat is None:
            stat = self.spans[path] = SpanStat(path)
        stat.total_ns += elapsed
        stat.count += count
        stat.cycles += 1
        stat.samples.append(elapsed)

    def _merge_workers(self, record: dict) -> None:
        """Graft one record's ``"workers"`` bucket into the span tree
        as ``<dispatch>/w<i>/<sub>`` paths, synthesizing the
        intermediate ``<dispatch>/w<i>`` span so the tree stays
        parent-closed."""
        for worker, spans in record.get("workers", {}).items():
            parents: Dict[str, Tuple[int, int]] = {}
            for path, (elapsed, count) in spans.items():
                head, sub = path.rsplit("/", 1)
                merged = f"{head}/w{worker}/{sub}"
                self._add_span_sample(merged, elapsed, count)
                parent = f"{head}/w{worker}"
                total, calls = parents.get(parent, (0, 0))
                # The intermediate worker span covers busy + wait =
                # the worker's share of the dispatch; its call count
                # is the dispatch count (taken from the wait entry,
                # one per dispatch).
                parents[parent] = (
                    total + elapsed,
                    calls + (count if sub == "wait" else 0),
                )
            for parent, (total, calls) in parents.items():
                self._add_span_sample(parent, total, max(calls, 1))

    @classmethod
    def from_ndjson(cls, path: str, engine: Optional[str] = None) -> "CycleReport":
        return cls(read_ndjson(path), engine=engine)

    # -- derived ------------------------------------------------------

    @property
    def cycles(self) -> int:
        return len(self.cycle_records)

    @property
    def top_level_ns(self) -> int:
        """Nanoseconds accounted to depth-0 spans."""
        return sum(s.total_ns for s in self.spans.values() if s.depth == 0)

    @property
    def coverage(self) -> float:
        """Fraction of cycle wall time the top-level spans explain."""
        if self.wall_ns == 0:
            return 0.0
        return self.top_level_ns / self.wall_ns

    def counter_rates(self) -> Dict[str, float]:
        """Counters normalized per cycle."""
        cycles = max(self.cycles, 1)
        return {name: value / cycles for name, value in self.counters.items()}

    def serial_spine(self) -> Optional[str]:
        """The span path with the largest *self* time — the first
        target for any serial-bottleneck work.  Worker paths are
        parallel time, never the serial spine."""
        candidates = [s for s in self.spans.values() if not s.is_worker]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.self_ns).path

    def phase_seconds(self) -> Dict[str, float]:
        """Top-level span totals in seconds (benchmark log format)."""
        return {
            s.path: s.total_ns / 1e9
            for s in self.spans.values()
            if s.depth == 0
        }

    def worker_table(self) -> List[dict]:
        """Per-worker utilization rows sorted by worker index:
        ``{"worker", "busy_ns", "wait_ns", "commands", "utilization"}``
        where utilization is busy / (busy + wait)."""
        rows = []
        for worker in sorted(
            self.worker_totals, key=lambda w: (len(w), w)
        ):
            totals = self.worker_totals[worker]
            dispatched = totals["busy_ns"] + totals["wait_ns"]
            rows.append({
                "worker": worker,
                "busy_ns": totals["busy_ns"],
                "wait_ns": totals["wait_ns"],
                "commands": totals["commands"],
                "utilization": (
                    totals["busy_ns"] / dispatched if dispatched else 0.0
                ),
            })
        return rows

    def health(self, **kwargs) -> Optional[dict]:
        """Health summary over the metrics stream (``None`` if no
        stream was recorded); kwargs forward to
        :func:`repro.obs.health.health_summary`."""
        return health_summary(self.metrics_records, **kwargs)

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """A fixed-width text table of the whole report."""
        lines = []
        engines = ", ".join(e for e in self.engines if e) or "?"
        lines.append(
            f"cycle report: engine={engines} cycles={self.cycles} "
            f"wall={self.wall_ns / 1e9:.3f}s "
            f"coverage={self.coverage * 100.0:.1f}%"
        )
        if self.spans:
            # Size the name column to the deepest indented name so
            # worker-merged paths (…/cmd:rank_fold/w3/kernel) never
            # overflow into the numbers.
            name_width = 34
            rendered = []
            for stat in sorted(
                self.spans.values(), key=lambda s: (s.path.split("/"),)
            ):
                name = "  " * stat.depth + stat.path.rsplit("/", 1)[-1]
                rendered.append((name, stat))
                name_width = max(name_width, len(name))
            lines.append(
                f"  {'span':<{name_width}} {'total_s':>9} {'self_s':>9} "
                f"{'p50_ms':>8} {'p95_ms':>8} {'max_ms':>8} {'calls':>7}"
            )
            for name, stat in rendered:
                lines.append(
                    f"  {name:<{name_width}} {stat.total_ns / 1e9:>9.3f} "
                    f"{stat.self_ns / 1e9:>9.3f} "
                    f"{stat.p50_ns() / 1e6:>8.2f} {stat.p95_ns() / 1e6:>8.2f} "
                    f"{stat.max_ns() / 1e6:>8.2f} {stat.count:>7}"
                )
        spine = self.serial_spine()
        if spine is not None:
            lines.append(f"  serial spine (max self time): {spine}")
        worker_rows = self.worker_table()
        if worker_rows:
            lines.append(
                f"  {'worker':<8} {'busy_s':>9} {'wait_s':>9} "
                f"{'util%':>7} {'cmds':>7}"
            )
            for row in worker_rows:
                lines.append(
                    f"  {'w' + row['worker']:<8} {row['busy_ns'] / 1e9:>9.3f} "
                    f"{row['wait_ns'] / 1e9:>9.3f} "
                    f"{row['utilization'] * 100.0:>7.1f} {row['commands']:>7}"
                )
        levels = sorted(name for name in self.counters if name.startswith("mem."))
        if levels:
            # Driver RSS and scratch bytes per cycle, its peak after each
            # whole-column phase, every worker's own peak: where the peak was.
            lines.append("  memory (largest value, MB):")
            for name in levels:
                lines.append(f"    {name:<40} {self.counters[name]:>10.1f}")
        if len(self.counters) > len(levels):
            name_width = max(
                [40] + [len(name) for name in self.counters]
            )
            lines.append("  counters (total / per-cycle):")
            rates = self.counter_rates()
            for name in sorted(set(self.counters).difference(levels)):
                total = self.counters[name]
                lines.append(
                    f"    {name:<{name_width}} {total:>16,.0f} "
                    f"{rates[name]:>14,.1f}"
                )
        if self.ambient_records:
            ambient_ns = sum(r.get("wall_ns", 0) for r in self.ambient_records)
            lines.append(
                f"  ambient (inter-cycle metrics/collectors): "
                f"{ambient_ns / 1e9:.3f}s over {len(self.ambient_records)} record(s)"
            )
        if self.metrics_records:
            lines.append("  " + render_health(self.health()).replace("\n", "\n  "))
        return "\n".join(lines)
