"""Bulk-simulation driver: the vectorized twin of ``CycleSimulation``.

:class:`VectorSimulation` runs the paper's slicing protocols over an
:class:`~repro.vectorized.state.ArrayState` instead of per-node
objects.  One cycle is the same four steps as the reference engine —
churn, view refresh, protocol round, clock advance — but each step is
a batched array pass, which makes 10^6-node runs tractable on one
machine (the scale regime the paper's evaluation could not reach).

It serves the engine surface every backend serves
(:class:`~repro.core.backends.SimulationBackend`): ``run(cycles,
collectors)``, ``live_nodes()`` (lightweight row proxies), ``node()``,
``add_node``/``remove_node``, ``bus_stats``, and the slicing queries
``slice_assignment()``, ``slice_sizes()``, ``slice_disorder()``,
``global_disorder()``, ``accuracy()``, ``confident_fraction()`` —
here array passes that stay cheap at a million nodes, where building
a proxy per node per cycle would dominate the run.

:meth:`VectorSimulation.run_cycle` is the one definition of a bulk
cycle: every cycle's random schedule — churn, draws, exchange waves,
message overlap — comes from one :class:`~repro.bulk.CyclePlan`, and
the refresh and protocol phases (:mod:`repro.vectorized.cycle`) are
dispatched as commands through an executor
(:mod:`repro.vectorized.executor`).  This class is the only bulk
driver: by default the executor runs the kernels in this process, and
``ShardedSimulation`` / ``DistributedSimulation`` are constructors that
hand it more worker threads or a message transport instead — plan, churn,
rebalance bookkeeping and every metric are this code on all three,
which is what makes them bitwise interchangeable.  The metrics read
``attribute``, ``value`` and ``alive``, which the driver holds current
on every executor; ``obs_total`` (``confident_fraction``) is pulled on
demand.  The paper's artificial message-overlap model
(``concurrency="half"``/``"full"``, Section 4.5.2) runs in batched
form (:mod:`repro.bulk.concurrency`).  The sliding-window ranking
variant keeps an exact bit-packed window
(:mod:`repro.vectorized.ranking`).
"""

from __future__ import annotations

import random
import weakref
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bulk.faults import FaultModel, FaultQueue
from repro.bulk.plan import CyclePlan
from repro.bulk.rebalance import live_load_ratio, validate_rebalance_knobs
from repro.core.backends import protocol_policy, sampler_policy
from repro.core.slices import SlicePartition
from repro.engine.network import ConcurrencyModel
from repro.engine.random_source import RandomSource, derive_seed
from repro.engine.trace import NULL_TRACE, TraceLog
from repro.metrics.statistics import z_value
from repro.obs.telemetry import NULL_TELEMETRY, minor_faults, resident_mb
from repro.vectorized import churn as bulk_churn
from repro.vectorized import metrics as vmetrics
from repro.vectorized.cycle import ordering_phases, ranking_phases, refresh_phases
from repro.vectorized.executor import InlineExecutor
from repro.vectorized.rankindex import AlphaRankIndex
from repro.vectorized.state import ArrayState
from repro.workloads.attributes import AttributeDistribution, UniformAttributes

__all__ = ["VectorSimulation", "VectorNodeView", "VectorStats"]


class VectorStats:
    """Transport/swap counters mirroring ``engine.network.BusStats``.

    ``swaps`` counts exchanges whose responder adopted the requester's
    value — identical to the atomic pair count when concurrency is off;
    ``overlapping`` counts messages the planned concurrency model
    deferred (Section 4.5.2)."""

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.overlapping = 0
        self.lost = 0
        self.delayed = 0
        self.intended_swaps = 0
        self.unsuccessful_swaps = 0
        self.swaps = 0
        self._cycle_intended = 0
        self._cycle_unsuccessful = 0

    def begin_cycle(self) -> None:
        self._cycle_intended = 0
        self._cycle_unsuccessful = 0

    def note_round(self, messages: int, intended: int) -> None:
        self.sent += messages
        self.delivered += messages
        self.intended_swaps += intended
        self._cycle_intended += intended

    def note_overlapping(self, count: int) -> None:
        self.overlapping += count

    def note_lost(self, count: int) -> None:
        """Planned fault model dropped ``count`` messages (they were
        counted sent but never delivered)."""
        self.lost += count
        self.delivered -= count

    def note_delayed(self, count: int) -> None:
        """``count`` messages went to the delayed mailbox; they leave
        the delivered tally until they mature (:meth:`note_matured`)."""
        self.delayed += count
        self.delivered -= count

    def note_matured(self, count: int) -> None:
        """``count`` delayed messages landed and were delivered."""
        self.delivered += count

    def note_swaps(self, swapped: int, unsuccessful: int) -> None:
        self.swaps += swapped
        self.unsuccessful_swaps += unsuccessful
        self._cycle_unsuccessful += unsuccessful

    def cycle_unsuccessful_ratio(self) -> float:
        if self._cycle_intended == 0:
            return 0.0
        return self._cycle_unsuccessful / self._cycle_intended


class VectorNodeView:
    """A lightweight read-only proxy presenting one ``ArrayState`` row
    with the reference :class:`~repro.engine.node.Node` surface.

    ``slicer`` returns the proxy itself, which carries the slicer
    attributes generic tooling reads (``rank_estimate``,
    ``sample_count``, ``value``, ``slice_index``).
    """

    __slots__ = ("_sim", "node_id")

    def __init__(self, sim: "VectorSimulation", node_id: int) -> None:
        self._sim = sim
        self.node_id = node_id

    @property
    def alive(self) -> bool:
        return self._sim.state.is_alive(self.node_id)

    @property
    def attribute(self) -> float:
        return float(self._sim.state.attribute[self.node_id])

    @property
    def value(self) -> float:
        return float(self._sim.state.value[self.node_id])

    @property
    def joined_at(self) -> int:
        return int(self._sim.state.joined_at[self.node_id])

    @property
    def slice_index(self) -> int:
        return self._sim.partition.index_of(self.value)

    @property
    def rank_estimate(self) -> float:
        return self.value

    @property
    def sample_count(self) -> int:
        return int(self._sim.state.obs_total[self.node_id])

    @property
    def slicer(self) -> "VectorNodeView":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "down"
        return f"VectorNodeView(id={self.node_id}, {status})"


class VectorSimulation:
    """A complete slicing simulation over array state.

    Parameters
    ----------
    size:
        Initial number of nodes.
    partition:
        The shared :class:`~repro.core.slices.SlicePartition`.
    protocol:
        One of :data:`~repro.core.backends.PROTOCOLS`.
    window:
        Sliding-window length for ``"ranking-window"``.
    boundary_bias:
        The ranking algorithm's boundary-biased ``j1`` targeting.
    attributes:
        Distribution, explicit sequence, or ``None`` for uniform.
    view_size:
        View capacity ``c``.
    sampler:
        ``"cyclon-variant"`` (batched Figure-3 gossip) or ``"uniform"``
        (the oracle of Figure 6(b)).
    churn:
        ``None``, a :class:`~repro.vectorized.churn.BulkChurn`, or a
        reference :class:`~repro.churn.models.ChurnModel` (converted to
        bulk form when possible, else driven through the compatibility
        API).
    concurrency:
        ``"none"`` (atomic exchanges), ``"half"``/``"full"`` or an
        overlap probability — the paper's Section-4.5.2 artificial
        concurrency, batched: overlapping messages apply stale
        payloads one-sidedly after the inline exchanges.
    faults:
        Optional :class:`~repro.bulk.faults.FaultModel` — plan-level
        message loss, delayed delivery (a :class:`FaultQueue` mailbox
        lands messages ``d`` cycles late with send-time payloads) and
        scheduled transient partitions.  All fault randomness rides the
        plan's dedicated ``faults`` stream, so enabling faults keeps
        bitwise parity across bulk backends and worker counts, and
        ``None`` keeps runs bit-identical to pre-fault builds.
    rebalance_every, rebalance_threshold:
        Dead-row compaction (:mod:`repro.bulk.rebalance`): relabel the
        live rows onto ``[0, live_count)`` on every
        ``rebalance_every``-th cycle, and/or whenever the max/min
        live-load ratio over the fixed occupancy probe exceeds
        ``rebalance_threshold``.  On this backend compaction is a pure
        relabeling (it reclaims capacity and keeps long churn runs
        compact); on the sharded backend the shard boundaries are then
        recomputed over the live span — and because the plan decides
        the permutation, the two backends stay bitwise identical.  Note
        that a compaction relabels node ids, so the compatibility
        API's ids are not stable across one.  Both ``None`` (default)
        disables rebalancing.
    seed:
        Root seed; a run is a pure function of it (though its draws
        differ from the reference engine's, so cross-backend
        comparisons are statistical, not bitwise).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` receiving
        per-phase spans and counters each cycle; defaults to the no-op
        :data:`~repro.obs.telemetry.NULL_TELEMETRY`.  Instrumentation
        never touches the plan's RNG streams, so profiled runs stay
        bitwise identical to unprofiled ones.
    executor:
        The :class:`~repro.vectorized.executor.Executor` the cycle is
        dispatched through and the state is allocated by; defaults to
        the in-process one.  Not a run option: the sharded and
        distributed constructors pass theirs, tests may pass a fake.
    """

    def __init__(
        self,
        size: int,
        partition: SlicePartition,
        protocol: str = "ranking",
        window: Optional[int] = None,
        boundary_bias: bool = True,
        attributes: Union[AttributeDistribution, Sequence[float], None] = None,
        view_size: int = 20,
        sampler: str = "cyclon-variant",
        churn=None,
        concurrency: Union[str, float] = "none",
        rebalance_every: Optional[int] = None,
        rebalance_threshold: Optional[float] = None,
        faults: Optional[FaultModel] = None,
        seed: int = 0,
        trace: TraceLog = NULL_TRACE,
        telemetry=None,
        executor=None,
    ) -> None:
        if size <= 1:
            raise ValueError("a slicing system needs at least two nodes")
        self._policy = protocol_policy(protocol)
        sampler_policy(sampler, "vectorized")  # every bulk backend's samplers
        # Shares the reference engine's spec parsing ('none'/'half'/
        # 'full' or a probability); rejects malformed specs here.
        self.concurrency = ConcurrencyModel.from_spec(concurrency)
        if faults is not None and not isinstance(faults, FaultModel):
            raise TypeError(f"faults must be a FaultModel or None, got {faults!r}")
        self.faults = faults if faults is not None and faults.enabled else None
        self._fault_queue = FaultQueue() if self.faults is not None else None
        validate_rebalance_knobs(rebalance_every, rebalance_threshold)
        self.rebalance_every = rebalance_every
        self.rebalance_threshold = rebalance_threshold
        self._rebalance_count = 0
        self.partition = partition
        self.geometry = vmetrics.PartitionArrays(partition)
        self.protocol = protocol
        self.window = self._policy.window_length(window)
        self.boundary_bias = boundary_bias
        self.sampler = sampler
        self.trace = trace
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.view_size = view_size
        self._stats = VectorStats()
        self._cycle = 0
        self._alpha_index = AlphaRankIndex()
        self._truth_cache = None
        self._live_counts = None

        self._random_source = RandomSource(seed)
        self._np_rngs = {}
        self._seed = seed

        self.executor = executor if executor is not None else InlineExecutor()
        # The executor never references the simulation, so dropping the
        # last user reference releases the workers.
        self._finalizer = weakref.finalize(self, self.executor.close)
        self.state = self.executor.allocate(view_size, size, self.window)
        attribute_values = self._draw_attributes(size, attributes)
        values = self._draw_initial_values(size)
        self.state.add_nodes(attribute_values, values, joined_at=0)
        with self.telemetry.span("setup/bootstrap", hwm=True):
            self.state.fill_empty_slots(self.np_rng("bootstrap"))
        with self.telemetry.span("setup/replicate", hwm=True):
            self.executor.attach(self.geometry, self.telemetry)

        self.churn = churn
        self._bulk_churn = bulk_churn.from_model(churn) if churn is not None else None

    def close(self) -> None:
        """Stop the executor's workers; idempotent, and also run on
        garbage collection.  ``state`` stays readable on every
        executor (a transport pulls its shards' columns down first)."""
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Random streams
    # ------------------------------------------------------------------

    def rng(self, name: str) -> random.Random:
        """Named deterministic Python substream (compatibility API)."""
        return self._random_source.stream(name)

    def np_rng(self, name: str) -> np.random.Generator:
        """Named deterministic numpy substream."""
        generator = self._np_rngs.get(name)
        if generator is None:
            generator = np.random.default_rng(
                derive_seed(self._seed, f"vector-{name}")
            )
            self._np_rngs[name] = generator
        return generator

    # ------------------------------------------------------------------
    # Context / compatibility API
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._cycle

    @property
    def bus_stats(self) -> VectorStats:
        return self._stats

    def node(self, node_id: int) -> VectorNodeView:
        """The proxy of live node ``node_id`` (KeyError if it is not
        live, as on the reference engine)."""
        if not self.state.is_alive(node_id):
            raise KeyError(node_id)
        return VectorNodeView(self, node_id)

    def is_alive(self, node_id: int) -> bool:
        return self.state.is_alive(node_id)

    def live_nodes(self) -> List[VectorNodeView]:
        """Proxies for every live node.  O(n) object churn — fine for
        collectors at reference scales; at bulk scales prefer the
        vectorized metric methods."""
        return [VectorNodeView(self, int(i)) for i in self.state.live_ids()]

    @property
    def live_count(self) -> int:
        return self.state.live_count

    def random_live_ids(self, count: int, exclude: Optional[int] = None) -> List[int]:
        pool = self.state.live_ids()
        if exclude is not None:
            pool = pool[pool != exclude]
        if count >= len(pool):
            return [int(i) for i in pool]
        picks = self.np_rng("oracle").choice(pool, size=count, replace=False)
        return [int(i) for i in picks]

    def add_node(self, attribute: float) -> VectorNodeView:
        """A new node joins (compatibility churn path)."""
        values = self._draw_initial_values(1)
        ids = self.state.add_nodes(
            np.array([attribute], dtype=np.float64), values, joined_at=self._cycle
        )
        self.executor.replicate(ids)
        return VectorNodeView(self, int(ids[0]))

    def remove_node(self, node_id: int) -> None:
        if self.state.is_alive(node_id):
            ids = np.array([node_id], dtype=np.int64)
            self.state.remove_nodes(ids)
            self.executor.replicate(ids, ("alive",))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _new_plan(self) -> CyclePlan:
        """One cycle's random schedule (see :mod:`repro.bulk.plan`)."""
        return CyclePlan(
            self.np_rng,
            self.concurrency.probability,
            rebalance_every=self.rebalance_every,
            rebalance_threshold=self.rebalance_threshold,
            fault_model=self.faults,
            cycle=self._cycle,
        )

    def run_cycle(self) -> None:
        """One full cycle: plan, churn, rebalance, refresh, protocol
        round, advance — planned centrally, applied through the
        executor (:mod:`repro.vectorized.cycle`)."""
        self.executor.check_open()  # refuse before churn touches the state
        telemetry = self.telemetry
        telemetry.begin_cycle(self._cycle)
        faults = minor_faults() if telemetry.enabled else 0
        self._stats.begin_cycle()
        with telemetry.span("plan"):
            plan = self._new_plan()
        with telemetry.span("churn"):
            self._apply_churn(plan)
        with telemetry.span("rebalance"):
            self._maybe_rebalance(plan)
        state = self.state
        if state.live_count >= 2:
            executor = self.executor
            with telemetry.span("refresh"):
                self._live_counts = refresh_phases(
                    executor, state, plan, self.sampler == "uniform", telemetry
                )
            # Scratch bytes handed out by the phase that just ended: a
            # level, so the cycle's record keeps the larger phase.
            telemetry.count("mem.scratch_mb", executor.scratch.used / 1e6)
            if self._is_ranking():
                with telemetry.span("ranking"):
                    ranking_phases(
                        executor, state, plan, self.boundary_bias,
                        self._stats, self._fault_queue, self._cycle, telemetry,
                    )
            else:
                with telemetry.span("ordering"):
                    ordering_phases(
                        executor, state, plan, self._policy.selection,
                        self._live_counts,
                        self._stats, self._fault_queue, self._cycle, telemetry,
                    )
            telemetry.count("mem.scratch_mb", executor.scratch.used / 1e6)
        self._cycle += 1
        if telemetry.enabled:
            # Pages this process faulted in during the cycle (a counter,
            # not a level): zero once the allocator reuses its heap.
            telemetry.count("faults.minor", minor_faults() - faults)
            telemetry.count("mem.rss_mb", resident_mb())
            telemetry.end_cycle()
            telemetry.after_cycle(self, self._cycle - 1, self._stream_metrics)

    def _stream_metrics(self) -> dict:
        """The convergence-stream values, in one fused pass: SDM,
        accuracy and GDM all consume the alpha rank pass, so computing
        them together costs two rank sorts instead of four.  Each value
        is the same canonical-order computation the individual metric
        methods run, so the stream is bitwise identical to calling
        them separately."""
        with self.telemetry.span("metrics_stream"):
            live, attrs, values = self._live_arrays()
            n = len(live)
            if n == 0:
                return {"sdm": 0.0, "gdm": 0.0, "accuracy": 1.0, "live": 0}
            alpha, truth = self._alpha_truth()
            believed = self.geometry.index_of(values)
            counts = vmetrics.assignment_counts(
                truth, believed, len(self.partition)
            )
            rho = vmetrics.ranks_1based(values, live)
            return {
                "sdm": vmetrics.sdm_from_counts(counts, self.geometry),
                "gdm": float(np.mean((alpha - rho) ** 2)),
                "accuracy": int(np.trace(counts)) / n,
                "live": n,
            }

    def run(self, cycles: int, collectors: Iterable = ()) -> None:
        """Run ``cycles`` cycles, sampling ``collectors`` after each
        (and once before the first, matching the reference engine)."""
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        collectors = list(collectors)
        if self._cycle == 0:
            for collector in collectors:
                collector.collect(self)
        for _ in range(cycles):
            self.run_cycle()
            for collector in collectors:
                collector.collect(self)
        self.telemetry.flush()

    def _apply_churn(self, plan: CyclePlan) -> None:
        if self.churn is None:
            return
        if self._bulk_churn is not None:
            departed, joined = plan.churn(self._bulk_churn, self.state, self._cycle)
            if len(joined):
                self.state.value[joined] = self._draw_initial_values(len(joined))
            self.executor.replicate(departed, ("alive",))
            self.executor.replicate(joined)
            if len(departed) or len(joined):
                self.trace.record(
                    self._cycle, "churn", None, (len(departed), len(joined))
                )
        else:
            # Unrecognized model: drive it through the object API
            # (add_node / remove_node, which replicate their rows).
            self.churn.apply(self)

    def _maybe_rebalance(self, plan: CyclePlan) -> None:
        """Apply the plan's compaction decision, if any.  The decision
        lives in the plan (no scheduling outside it); only the *apply*
        differs per executor (an in-place relabeling in process, a row
        migration between shards on a transport)."""
        decision = plan.rebalance(self.state, self._cycle)
        if decision is None:
            return
        with self.telemetry.span("migrate", hwm=True):
            self.executor.compact(decision)
        # Compaction relabels ids through a monotone map — the alpha
        # rank index applies it as a gather instead of re-sorting.
        id_map = decision.id_map()
        self.state.log_membership("relabel", id_map)
        if self._fault_queue is not None:
            # In-flight delayed mail is addressed by row id; relabel it
            # (mail to compacted-away rows is dropped).
            self._fault_queue.remap_ids(id_map)
        self._rebalance_count += 1
        self.trace.record(
            self._cycle,
            "rebalance",
            None,
            (decision.old_size, decision.new_size),
        )

    @property
    def rebalance_count(self) -> int:
        """How many dead-row compactions this run has applied."""
        return self._rebalance_count

    def shard_live_loads(self) -> list:
        """Per-shard live-row counts from the last view refresh
        (shard order).  Empty before the first refresh."""
        if self._live_counts is None:
            return []
        return [int(count) for count in self._live_counts]

    def shard_load_ratio(self) -> float:
        """Max/min live-load ratio across the shards at the last
        refresh (``inf`` if some shard held no live rows; 1.0 before
        the first refresh or with a single shard)."""
        return live_load_ratio(np.asarray(self.shard_live_loads(), dtype=np.int64))

    def sync_state(self) -> ArrayState:
        """Make the driver's state a full exact replica and return it:
        pulls the shard-owned columns (views, rank counters, window
        buffers) from the workers of a transport executor; a no-op
        where the driver's arrays *are* the state.  ``attribute``,
        ``value``, ``alive`` and ``joined_at`` are current on every
        executor without it."""
        self.executor.sync()
        return self.state

    # ------------------------------------------------------------------
    # Bulk metrics
    # ------------------------------------------------------------------

    def _live_arrays(self):
        live = self.state.live_ids()
        return live, self.state.attribute[live], self.state.value[live]

    def _alpha_truth(self):
        """``(alpha, truth)`` over the live nodes: the incremental
        alpha rank index's ranks plus the derived true-slice indices,
        cached per membership epoch.  Bitwise identical to the direct
        ``ranks_1based`` + ``index_of`` computation, but churn cycles
        update the order by partial merge instead of a full sort."""
        alpha = self._alpha_index.ranks(self.state)
        epoch = self._alpha_index.epoch
        cached = self._truth_cache
        if cached is not None and cached[0] == epoch:
            return alpha, cached[1]
        truth = self.geometry.index_of(alpha / max(len(alpha), 1))
        self._truth_cache = (epoch, truth)
        return alpha, truth

    def slice_disorder(self) -> float:
        """Current SDM, computed fully vectorized (alpha ranks from
        the incremental index — same float as
        :func:`~repro.vectorized.metrics.slice_disorder_arrays`)."""
        with self.telemetry.span("metric_sdm"):
            live, _attrs, values = self._live_arrays()
            if len(live) == 0:
                return 0.0
            _alpha, truth = self._alpha_truth()
            believed = self.geometry.index_of(values)
            counts = vmetrics.assignment_counts(
                truth, believed, len(self.partition)
            )
            return vmetrics.sdm_from_counts(counts, self.geometry)

    def global_disorder(self) -> float:
        """Current GDM, computed fully vectorized."""
        with self.telemetry.span("metric_gdm"):
            live, _attrs, values = self._live_arrays()
            if len(live) == 0:
                return 0.0
            alpha, _truth = self._alpha_truth()
            rho = vmetrics.ranks_1based(values, live)
            return float(np.mean((alpha - rho) ** 2))

    def accuracy(self) -> float:
        """Fraction of nodes currently assigning themselves their true
        slice."""
        with self.telemetry.span("metric_accuracy"):
            live, _attrs, values = self._live_arrays()
            if len(live) == 0:
                return 1.0
            _alpha, truth = self._alpha_truth()
            believed = self.geometry.index_of(values)
            return float(np.mean(truth == believed))

    def slice_assignment(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, slices)``: the live node ids, ascending, and the
        slice each currently assigns itself to."""
        live, _attrs, values = self._live_arrays()
        return live, self.geometry.index_of(values)

    def slice_sizes(self) -> List[int]:
        """Claimed membership count per slice."""
        counts = np.bincount(self.slice_assignment()[1], minlength=len(self.partition))
        return [int(c) for c in counts]

    def confident_fraction(self, confidence: float = 0.95) -> float:
        """Fraction of nodes whose Wald interval (Theorem 5.1) already
        fits inside one slice.  0 for the ordering protocols, which
        carry no sample counters — matching the reference service."""
        with self.telemetry.span("metric_confident"):
            live = self.state.live_ids()
            if len(live) == 0:
                return 1.0
            if not self._is_ranking():
                return 0.0
            # The one metric reading a shard-owned column.
            self.executor.sync(("obs_total",))
            mask = vmetrics.confident_mask(
                self.state.value[live],
                self.state.obs_total[live],
                self.geometry,
                z_value(confidence),
            )
            return float(np.mean(mask))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _is_ranking(self) -> bool:
        return self._policy.family == "ranking"

    def _draw_attributes(self, size: int, attributes) -> np.ndarray:
        if attributes is None:
            attributes = UniformAttributes(0.0, 1.0)
        if type(attributes) is UniformAttributes:
            # Bulk fast path: a million scalar draws through the Python
            # distribution object would dominate setup time.
            return self.np_rng("attributes").uniform(
                attributes.low, attributes.high, size=size
            )
        if isinstance(attributes, AttributeDistribution):
            return np.array(
                attributes.sample(self.rng("attributes"), size), dtype=np.float64
            )
        values = np.asarray([float(a) for a in attributes], dtype=np.float64)
        if len(values) != size:
            raise ValueError(
                f"got {len(values)} explicit attributes for size={size}"
            )
        return values

    def _draw_initial_values(self, count: int) -> np.ndarray:
        """Initial ``r`` values, uniform in (0, 1] as in Figures 2/5."""
        stream = "ranking-init" if self._is_ranking() else "ordering-init"
        return 1.0 - self.np_rng(stream).random(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VectorSimulation(nodes={self.live_count}, cycle={self.now}, "
            f"protocol={self.protocol!r}, slices={len(self.partition)})"
        )
