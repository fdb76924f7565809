"""High-level slicing service facade.

The paper motivates slicing as a *middleware service* on a
service-oriented P2P platform: applications ask for "the top 20% of
peers by bandwidth" and get a self-maintaining group.
:class:`SlicingService` packages the whole stack — partition,
protocol, sampler, engine — behind the API such a platform would
expose:

* declare the partition once (equal slices, explicit proportions, or
  named application quotas);
* query any node's current slice, or enumerate a slice's members;
* subscribe to slice-change events (e.g. to re-register a peer with a
  different application when it crosses a boundary);
* inspect convergence (current SDM, fraction of confident nodes per
  Theorem 5.1).

It is a *simulation* facade — the underlying nodes are simulated — but
its surface is what a deployment would offer, and the examples and
tests use it as the integration point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.core.backends import SimulationBackend, create_simulation
from repro.core.slices import SlicePartition
from repro.workloads.attributes import AttributeDistribution

__all__ = ["SliceChange", "SlicingService"]


@dataclass(frozen=True)
class SliceChange:
    """One node's slice assignment changing."""

    cycle: int
    node_id: int
    old_slice: Optional[int]
    new_slice: int


class SlicingService:
    """A self-organizing ordered-slicing service.

    Parameters
    ----------
    size:
        Number of (simulated) member nodes.
    slices:
        Either an integer (that many equal slices), a sequence of
        proportions summing to 1 (e.g. ``[0.5, 0.3, 0.2]``), or a
        ready :class:`~repro.core.slices.SlicePartition`.
    algorithm:
        ``"ranking"`` (default — the paper's recommendation),
        ``"ranking-window"``, or ``"ordering"`` (mod-JK).
    window:
        Sliding-window length for ``"ranking-window"``.
    backend:
        Name of a registered :class:`~repro.core.backends.BackendSpec`:
        ``"reference"`` (default) runs the object-per-node
        :class:`~repro.engine.simulator.CycleSimulation`;
        ``"vectorized"`` runs the numpy bulk engine
        (:class:`~repro.vectorized.simulation.VectorSimulation`),
        which serves the same API at million-node scale;
        ``"sharded"`` runs the same engine on worker threads
        (:class:`~repro.sharded.ShardedSimulation`) for 10^7-node runs;
        ``"distributed"`` runs the same cycle over a message transport
        (:class:`~repro.distributed.DistributedSimulation`) — spawned
        localhost-TCP workers by default, or pre-started remote workers
        via ``hosts``.
    workers:
        Worker count for the parallel backends (``None`` = all
        CPU cores there; the single-process backends accept only
        ``None``/``1``).
    hosts:
        ``backend="distributed"`` only: ``["host:port", ...]`` of
        pre-started standalone workers (``python -m
        repro.distributed.worker --listen HOST:PORT``); ``None``
        spawns local workers.
    concurrency:
        The paper's artificial message-overlap model
        (``"none"``/``"half"``/``"full"`` or an overlap probability) —
        supported by every backend; the bulk backends run it in
        batched form (:mod:`repro.bulk.concurrency`).
    rebalance_every, rebalance_threshold:
        Bulk backends only — plan-driven dead-row compaction
        (:mod:`repro.bulk.rebalance`): compact every
        ``rebalance_every`` cycles and/or when the max/min live-load
        ratio over the occupancy probe exceeds
        ``rebalance_threshold``.  Keeps long correlated-churn runs
        compact (and, on ``backend="sharded"``, keeps the worker
        loads even).  A compaction relabels node ids, so ids obtained
        from :meth:`join`/:meth:`members` are not stable across one.
    loss, delay, partition:
        Network fault model (:mod:`repro.bulk.faults`).  ``loss`` is
        the per-message drop probability; ``delay`` is either a
        probability or ``"P:D"`` — each surviving message is delayed
        with probability ``P`` by 1..``D`` cycles (default ``D=1``);
        ``partition`` schedules transient partitions that heal, as
        ``"start:duration[:groups]"`` windows (comma-separated).  The
        bulk backends draw fault fates from the shared cycle plan, so
        results stay bitwise identical across backends and worker
        counts under every fault regime; the reference backend serves
        ``loss < 1.0`` only (its message bus models per-message loss)
        and rejects ``delay``/``partition``.
    attributes, view_size, seed, churn:
        Forwarded to the underlying simulation.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` receiving
        per-cycle phase spans and counters from the engine (attach an
        :class:`~repro.obs.sink.NdjsonSink` for on-disk profiles).
        Profiling never changes simulation results.
    watchdog:
        Check the telemetry layer's accounting invariants every cycle
        (:class:`~repro.obs.watchdog.Watchdog`); a violation raises
        :class:`~repro.obs.watchdog.WatchdogViolation` naming the
        cycle.  Creates a telemetry object if none was passed.
    metrics_every:
        Stream a ``{"kind": "metrics"}`` convergence record
        (SDM/GDM/accuracy/live count) every this many cycles into the
        telemetry stream.  Creates a telemetry object if none was
        passed.
    """

    def __init__(
        self,
        size: int,
        slices: Union[int, Sequence[float], SlicePartition] = 10,
        algorithm: str = "ranking",
        window: Optional[int] = None,
        backend: str = "reference",
        workers: Optional[int] = None,
        hosts: Optional[Sequence[str]] = None,
        concurrency: Union[str, float] = "none",
        rebalance_every: Optional[int] = None,
        rebalance_threshold: Optional[float] = None,
        loss: float = 0.0,
        delay=None,
        partition=None,
        attributes: Union[AttributeDistribution, Sequence[float], None] = None,
        view_size: int = 10,
        seed: int = 0,
        churn=None,
        telemetry=None,
        watchdog: bool = False,
        metrics_every: Optional[int] = None,
    ) -> None:
        self.partition = self._build_partition(slices)
        self.algorithm = algorithm
        self.backend = backend
        self._sim = create_simulation(
            backend,
            size=size,
            partition=self.partition,
            protocol="mod-jk" if algorithm == "ordering" else algorithm,
            partitions=partition,
            window=window,
            workers=workers,
            hosts=hosts,
            concurrency=concurrency,
            rebalance_every=rebalance_every,
            rebalance_threshold=rebalance_threshold,
            loss=loss,
            delay=delay,
            attributes=attributes,
            view_size=view_size,
            seed=seed,
            churn=churn,
            telemetry=telemetry,
            watchdog=watchdog,
            metrics_every=metrics_every,
        )
        self._subscribers: List[Callable[[SliceChange], None]] = []
        self._assignment = None  # set by the first subscribe

    @staticmethod
    def _build_partition(slices) -> SlicePartition:
        if isinstance(slices, SlicePartition):
            return slices
        if isinstance(slices, int):
            return SlicePartition.equal(slices)
        proportions = [float(p) for p in slices]
        if any(p <= 0 for p in proportions):
            raise ValueError("slice proportions must be positive")
        total = sum(proportions)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"slice proportions must sum to 1, got {total}")
        boundaries = []
        acc = 0.0
        for p in proportions[:-1]:
            acc += p
            boundaries.append(acc)
        return SlicePartition.from_boundaries(boundaries)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def simulation(self) -> SimulationBackend:
        """The underlying simulation (escape hatch for tooling) — a
        :class:`~repro.engine.simulator.CycleSimulation` or one of the
        bulk engines, all serving the
        :class:`~repro.core.backends.SimulationBackend` surface."""
        return self._sim

    @property
    def cycle(self) -> int:
        return self._sim.now

    def run(self, cycles: int) -> None:
        """Advance the service, firing slice-change notifications."""
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        for _ in range(cycles):
            self._sim.run_cycle()
            if self._subscribers:
                self._fire_changes()
        # As the engines' own run: the last cycle's metrics_stream span
        # is ambient until flushed.
        self._sim.telemetry.flush()

    def _fire_changes(self) -> None:
        """Diff the engine's ``(ids, slices)`` arrays against the last
        ones: only the (few, post-convergence) changed nodes
        materialize Python objects, so the per-cycle cost stays O(n)
        numpy work even at 10^7 nodes."""
        ids, slices = self._sim.slice_assignment()
        prev_ids, prev_slices = self._assignment
        if len(prev_ids):
            positions = np.searchsorted(prev_ids, ids)
            positions_safe = np.minimum(positions, len(prev_ids) - 1)
            known = prev_ids[positions_safe] == ids
            old = np.where(known, prev_slices[positions_safe], -1)
        else:
            known = np.zeros(len(ids), dtype=bool)
            old = np.full(len(ids), -1, dtype=np.int64)
        for position in np.flatnonzero(old != slices):
            change = SliceChange(
                self._sim.now,
                int(ids[position]),
                int(old[position]) if known[position] else None,
                int(slices[position]),
            )
            for subscriber in self._subscribers:
                subscriber(change)
        self._assignment = (ids, slices)

    def subscribe(self, callback: Callable[[SliceChange], None]) -> None:
        """Register a slice-change listener (fires once per node move)."""
        if not self._subscribers:
            self._assignment = self._sim.slice_assignment()
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._sim.live_count

    def slice_of(self, node_id: int) -> int:
        """The slice ``node_id`` currently assigns itself to
        (KeyError once it has left)."""
        return self._sim.node(node_id).slice_index

    def members(self, slice_index: int) -> List[int]:
        """Ids of the nodes currently claiming ``slice_index``
        (ascending)."""
        if not 0 <= slice_index < len(self.partition):
            raise IndexError(f"no slice {slice_index}")
        ids, slices = self._sim.slice_assignment()
        return [int(node_id) for node_id in ids[slices == slice_index]]

    def slice_sizes(self) -> List[int]:
        """Current claimed membership count per slice."""
        return self._sim.slice_sizes()

    def disorder(self) -> float:
        """Current slice disorder measure (0 = perfect assignment)."""
        return self._sim.slice_disorder()

    def accuracy(self) -> float:
        """Fraction of nodes currently in their true slice."""
        return self._sim.accuracy()

    def confident_fraction(self, confidence: float = 0.95) -> float:
        """Fraction of nodes whose Wald interval (Theorem 5.1) already
        fits inside one slice.  Only meaningful for ranking algorithms;
        ordering nodes carry no sample counts and report 0.
        """
        return self._sim.confident_fraction(confidence)

    def join(self, attribute: float) -> int:
        """A new member joins; returns its node id."""
        return self._sim.add_node(attribute).node_id

    def leave(self, node_id: int) -> None:
        """A member leaves (or crashes — the paper treats them alike)."""
        self._sim.remove_node(node_id)

    def close(self) -> None:
        """Release backend resources (the sharded backend's worker
        threads, the distributed backend's worker processes); a no-op
        for the single-threaded backends."""
        self._sim.close()

    def __enter__(self) -> "SlicingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlicingService(size={self.size}, slices={len(self.partition)}, "
            f"algorithm={self.algorithm!r}, cycle={self.cycle})"
        )
