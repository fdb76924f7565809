"""Cycle-based simulation engine (the PeerSim model the paper uses).

One cycle of :class:`CycleSimulation`:

1. the churn model removes/adds nodes;
2. every live node, in a fresh random permutation, runs one round:
   its sampler's ``refresh`` (the paper's ``recompute-view()``) followed
   by its slicer's active thread — so "each node updates its view
   before sending its random value or its attribute value"
   (Section 4.5.2);
3. the message bus flushes any overlapping messages (Section 4.5.2's
   artificial concurrency); with ``concurrency="none"`` every exchange
   was already delivered atomically inside step 2;
4. the clock advances and collectors sample the system.

The simulation object doubles as the *context* handed to protocol code,
exposing the narrow API protocols need: ``now``, named RNG streams,
node lookup, liveness tests, the oracle's uniform node draw, message
sending, the shared slice partition and the trace log.  It also
answers the slicing queries every engine serves
(:class:`~repro.core.backends.SimulationBackend`): here they are the
per-node oracle of :mod:`repro.metrics.disorder`.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.sample_size import slice_estimate_is_confident
from repro.core.slices import SlicePartition
from repro.engine.clock import CycleClock
from repro.engine.network import BusStats, Message, MessageBus
from repro.engine.node import Node
from repro.engine.random_source import RandomSource
from repro.engine.trace import NULL_TRACE, TraceLog
from repro.metrics.disorder import global_disorder, slice_disorder, true_slice_indices
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sampling.cyclon_variant import CyclonVariantSampler
from repro.workloads.attributes import AttributeDistribution, UniformAttributes

__all__ = ["CycleSimulation"]


class CycleSimulation:
    """A complete slicing simulation in the cycle model.

    Parameters
    ----------
    size:
        Initial number of nodes.
    partition:
        The shared :class:`~repro.core.slices.SlicePartition`.
    slicer_factory:
        Zero-argument callable building one slicing-protocol instance
        per node (e.g. ``lambda: OrderingProtocol(partition)``).
    attributes:
        An :class:`~repro.workloads.attributes.AttributeDistribution`,
        an explicit sequence of ``size`` floats, or ``None`` for
        uniform [0, 1) attributes.
    sampler_factory:
        Callable ``(node_id) -> PeerSampler``; defaults to the paper's
        Cyclon variant with ``view_size`` entries.
    view_size:
        Default view capacity ``c`` (20 for Figure 4, 10 for Figure 6).
    concurrency:
        ``"none"`` / ``"half"`` / ``"full"`` or an overlap probability.
    churn:
        Optional :class:`~repro.churn.models.ChurnModel`.
    loss_probability:
        Independent per-message loss on the slicing-protocol messages
        (fault-injection extension; the paper assumes reliable links).
    seed:
        Root seed; the run is a pure function of it.
    """

    def __init__(
        self,
        size: int,
        partition: SlicePartition,
        slicer_factory: Callable[[], "object"],
        attributes: Union[AttributeDistribution, Sequence[float], None] = None,
        sampler_factory: Optional[Callable[[int], "object"]] = None,
        view_size: int = 20,
        concurrency="none",
        churn=None,
        loss_probability: float = 0.0,
        seed: int = 0,
        trace: TraceLog = NULL_TRACE,
        telemetry=None,
    ) -> None:
        if size <= 1:
            raise ValueError("a slicing system needs at least two nodes")
        self.partition = partition
        self.trace = trace
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._trace_counts: Dict[str, int] = {}
        self.churn = churn
        self._slicer_factory = slicer_factory
        if sampler_factory is None:
            sampler_factory = lambda node_id: CyclonVariantSampler(node_id, view_size)
        self._sampler_factory = sampler_factory
        self.view_size = view_size

        self._random_source = RandomSource(seed)
        self.clock = CycleClock()
        self.nodes: Dict[int, Node] = {}
        self._next_id = 0
        self._live_ids: List[int] = []
        self._live_ids_dirty = False

        self.bus = MessageBus(
            deliver=self._deliver,
            rng=self._random_source.stream("bus"),
            concurrency=concurrency,
            is_alive=self.is_alive,
            trace=trace,
            loss_probability=loss_probability,
        )

        attribute_values = self._draw_attributes(size, attributes)
        # Phase 1: create all nodes so bootstrap views can reference them.
        created: List[Node] = []
        for attribute in attribute_values:
            node = self._create_node(attribute)
            created.append(node)
        # Phase 2: bootstrap views, then start the protocols.
        for node in created:
            self._bootstrap_view(node)
        for node in created:
            node.slicer.on_join(node, self)

    # ------------------------------------------------------------------
    # Context API (used by protocol code)
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current cycle number."""
        return self.clock.now

    def rng(self, name: str) -> random.Random:
        """The named deterministic random substream."""
        return self._random_source.stream(name)

    def node(self, node_id: int) -> Node:
        """The node object for ``node_id`` (KeyError if unknown)."""
        return self.nodes[node_id]

    def is_alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently a live system member."""
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def random_live_ids(self, count: int, exclude: Optional[int] = None) -> List[int]:
        """Up to ``count`` distinct live node ids drawn uniformly.

        This is the bootstrap/oracle service: used to seed views of
        joining nodes and by the uniform oracle sampler.
        """
        pool = self._live_id_list()
        if exclude is not None:
            pool = [node_id for node_id in pool if node_id != exclude]
        if count >= len(pool):
            return list(pool)
        return self.rng("oracle").sample(pool, count)

    def send(self, sender: int, receiver: int, kind: str, payload) -> None:
        """Send one protocol message through the bus."""
        self.bus.send(Message(sender, receiver, kind, payload, self.now))

    @property
    def bus_stats(self) -> BusStats:
        """Transport + swap-outcome counters."""
        return self.bus.stats

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------

    def live_nodes(self) -> List[Node]:
        """All live nodes (fresh list, safe to mutate)."""
        return [self.nodes[node_id] for node_id in self._live_id_list()]

    @property
    def live_count(self) -> int:
        return len(self._live_id_list())

    def add_node(self, attribute: float) -> Node:
        """A new node joins: gets a view, starts its protocol."""
        node = self._create_node(attribute)
        self._bootstrap_view(node)
        node.slicer.on_join(node, self)
        self.trace.record(self.now, "join", node.node_id, (attribute,))
        return node

    def remove_node(self, node_id: int) -> None:
        """Node departure/crash (the paper does not distinguish them)."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.alive = False
        del self.nodes[node_id]
        self._live_ids_dirty = True
        self.trace.record(self.now, "leave", node_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_cycle(self) -> None:
        """Execute one full cycle (steps 1–4 of the module docstring)."""
        telemetry = self.telemetry
        telemetry.begin_cycle(self.now)
        self.bus.stats.begin_cycle()
        with telemetry.span("churn"):
            if self.churn is not None:
                self.churn.apply(self)

        with telemetry.span("rounds"):
            order = self._live_id_list()[:]
            self.rng("schedule").shuffle(order)
            for node_id in order:
                node = self.nodes.get(node_id)
                if node is None or not node.alive:
                    continue  # removed by this cycle's churn or a race
                node.sampler.refresh(node, self)
                node.slicer.on_active(node, self)

        with telemetry.span("flush"):
            self.bus.flush()
        self.clock.advance()
        if telemetry.enabled:
            self._bridge_trace_counts(telemetry)
        telemetry.end_cycle()
        telemetry.after_cycle(self, self.now - 1, self._stream_metrics)

    def _stream_metrics(self) -> dict:
        """The convergence-stream values (SDM, GDM, accuracy, live
        count) over the live nodes."""
        with self.telemetry.span("metrics_stream"):
            return {
                "sdm": self.slice_disorder(),
                "gdm": self.global_disorder(),
                "accuracy": self.accuracy(),
                "live": self.live_count,
            }

    def _bridge_trace_counts(self, telemetry) -> None:
        """Bridge the TraceLog's per-category event counts into the
        telemetry record as ``trace.<category>`` counter deltas, so a
        traced reference run lands in the same NDJSON stream."""
        if not self.trace.enabled:
            return
        counts = self.trace.counts()
        previous = self._trace_counts
        for category, total in counts.items():
            delta = total - previous.get(category, 0)
            if delta:
                telemetry.count("trace." + category, delta)
        self._trace_counts = counts

    def run(self, cycles: int, collectors: Iterable = ()) -> None:
        """Run ``cycles`` cycles, sampling ``collectors`` after each.

        Collectors are sampled once *before* the first cycle (time 0)
        so every series includes the initial disorder.
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        collectors = list(collectors)
        if self.now == 0:
            for collector in collectors:
                collector.collect(self)
        for _ in range(cycles):
            self.run_cycle()
            for collector in collectors:
                collector.collect(self)
        self.telemetry.flush()

    def close(self) -> None:
        """Nothing to release: the engine holds no workers."""

    # ------------------------------------------------------------------
    # Slicing queries (the per-node oracle of repro.metrics.disorder)
    # ------------------------------------------------------------------

    def slice_assignment(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, slices)``: the live node ids, ascending, and the
        slice each currently assigns itself to."""
        nodes = self.live_nodes()
        ids = np.array([node.node_id for node in nodes], dtype=np.int64)
        slices = np.array([node.slice_index for node in nodes], dtype=np.int64)
        return ids, slices

    def slice_sizes(self) -> List[int]:
        """Claimed membership count per slice."""
        counts = np.bincount(self.slice_assignment()[1], minlength=len(self.partition))
        return [int(count) for count in counts]

    def slice_disorder(self) -> float:
        """Current SDM over the live nodes."""
        return slice_disorder(self.live_nodes(), self.partition)

    def global_disorder(self) -> float:
        """Current GDM over the live nodes."""
        return global_disorder(self.live_nodes())

    def accuracy(self) -> float:
        """Fraction of live nodes currently in their true slice."""
        nodes = self.live_nodes()
        if not nodes:
            return 1.0
        truth = true_slice_indices(nodes, self.partition)
        correct = sum(
            1 for node in nodes if node.slice_index == truth[node.node_id]
        )
        return correct / len(nodes)

    def confident_fraction(self, confidence: float = 0.95) -> float:
        """Fraction of live nodes whose Wald interval (Theorem 5.1)
        already fits inside one slice.  Ordering nodes carry no sample
        counts and report 0."""
        nodes = self.live_nodes()
        if not nodes:
            return 1.0
        confident = 0
        for node in nodes:
            slicer = node.slicer
            samples = getattr(slicer, "sample_count", 0)
            if samples and slice_estimate_is_confident(
                min(max(slicer.rank_estimate, 0.0), 1.0),
                samples,
                self.partition,
                confidence,
            ):
                confident += 1
        return confident / len(nodes)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _draw_attributes(self, size, attributes) -> List[float]:
        if attributes is None:
            attributes = UniformAttributes(0.0, 1.0)
        if isinstance(attributes, AttributeDistribution):
            return attributes.sample(self.rng("attributes"), size)
        values = [float(a) for a in attributes]
        if len(values) != size:
            raise ValueError(
                f"got {len(values)} explicit attributes for size={size}"
            )
        return values

    def _create_node(self, attribute: float) -> Node:
        node = Node(self._next_id, attribute, joined_at=self.now)
        self._next_id += 1
        node.sampler = self._sampler_factory(node.node_id)
        node.slicer = self._slicer_factory()
        self.nodes[node.node_id] = node
        self._live_ids_dirty = True
        return node

    def _bootstrap_view(self, node: Node) -> None:
        seeds = self.random_live_ids(node.sampler.view_size, exclude=node.node_id)
        node.sampler.bootstrap(node, self, seeds)

    def _live_id_list(self) -> List[int]:
        if self._live_ids_dirty:
            self._live_ids = sorted(self.nodes)
            self._live_ids_dirty = False
        return self._live_ids

    def _deliver(self, message: Message) -> None:
        node = self.nodes.get(message.receiver)
        if node is None or not node.alive:
            return
        node.slicer.on_message(node, message, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CycleSimulation(nodes={self.live_count}, cycle={self.now}, "
            f"slices={len(self.partition)})"
        )
