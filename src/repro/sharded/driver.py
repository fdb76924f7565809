"""The sharded bulk-simulation driver.

:class:`ShardedSimulation` runs the bulk cycle
(:meth:`repro.vectorized.simulation.VectorSimulation.run_cycle` — the
plan, the phases and the kernels are inherited, not restated) across a
persistent pool of worker processes.  What this module adds is only
what processes and shared memory need:

* :class:`_PoolExecutor` — the executor the cycle's commands are
  dispatched through: one pipe per worker carrying tiny control tuples,
  each worker applying the kernels over its own contiguous id range of
  the shared-memory :class:`~repro.vectorized.state.ArrayState`.  Node
  state never crosses a pipe: all bulk data (state columns, random
  blocks, proposal/wave lists, metric merge buffers) lives in shared
  memory (:mod:`repro.sharded.shm`);
* the **row migration** behind a planned rebalance — long
  correlated-churn runs concentrate dead rows in the low shards (ids
  are append-only and the original cohort dies first), so with the
  ``rebalance_every`` / ``rebalance_threshold`` knobs the plan decides a
  dead-row compaction permutation (:mod:`repro.bulk.rebalance`), the
  workers migrate rows through barrier-separated pack/unpack rounds
  over a shared staging buffer, and the shard boundaries are recomputed
  over the compacted live span.  Per-shard live-row occupancy is
  reported every refresh (``shard_live_loads()`` /
  ``shard_load_ratio()``);
* the **tree-reduced metrics** — each shard sorts and ranks its own
  rows against the others' published sort keys
  (:mod:`repro.sharded.metrics`).

Because the plan is identical for every worker count and each applied
step is either row-local or wave-disjoint, a run's arrays are **bitwise
identical across worker counts**; ``workers=1`` needs no pool at all,
so the constructor returns the vectorized backend itself.  Parallelism
changes wall-clock time only, never results; the equivalence tests
assert this exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import weakref
from time import perf_counter_ns
from typing import Optional

import numpy as np

from repro.bulk.rebalance import live_load_ratio, migration_columns, rebalance_bounds
from repro.sharded.shm import SharedBlock, SharedScratch
from repro.vectorized import metrics as vmetrics
from repro.vectorized.cycle import prefix_offsets, shard_run_payloads
from repro.vectorized.simulation import VectorSimulation
from repro.vectorized.state import ArrayState, column_spec
from repro.metrics.statistics import z_value

__all__ = ["ShardedSimulation"]


class _PoolExecutor:
    """Persistent worker pool over the shared-memory state blocks.

    Holds the shared :class:`ArrayState` (for the per-command metadata
    sync), never the simulation itself — the driver's finalizer keeps a
    strong reference to this executor, so a reference back to the
    simulation would keep it alive forever and the finalizer would
    never fire.
    """

    def __init__(self, sim: "ShardedSimulation") -> None:
        self.scratch = SharedScratch()
        # The telemetry object is shared with the simulation but does
        # not reference it, so holding it here keeps the finalizer
        # contract intact.
        self._telemetry = sim.telemetry
        # Initial boundaries split the populated span ``[0, size)``
        # evenly (the last shard absorbs the spare capacity, where
        # joiners append) — the same rule a rebalance re-applies over
        # the compacted live span.  Bounds never affect results, only
        # which worker does which rows' work.
        self.bounds = rebalance_bounds(
            sim.state.size, sim.workers, sim.state.capacity
        )
        self._state = sim.state
        method = os.environ.get("REPRO_SHARDED_START_METHOD") or (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        context = multiprocessing.get_context(method)
        from repro.sharded.worker import worker_main

        layout = {
            name: (block.name, block.shape, block.dtype.str)
            for name, block in sim._blocks.items()
        }
        self._connections = []
        self._processes = []
        for lo, hi in self.bounds:
            parent_end, child_end = context.Pipe()
            init = {
                "blocks": layout,
                "view_size": sim.view_size,
                "size": sim.state.size,
                "window": sim.state.window,
                "partition": sim.partition,
                "lo": lo,
                "hi": hi,
            }
            process = context.Process(
                target=worker_main, args=(child_end, init), daemon=True
            )
            process.start()
            child_end.close()
            self._connections.append(parent_end)
            self._processes.append(process)

    def run(self, command: str, payloads) -> list:
        return self.collect(self.run_async(command, payloads))

    def run_async(self, command: str, payloads):
        """Dispatch one command and return without waiting for the
        replies — the driver can plan (draw random blocks, stage the
        next wave into the other scratch buffer) while the workers
        compute.  The caller must :meth:`collect` before touching
        anything the command writes, and must not remap shared scratch
        while the command is in flight."""
        telemetry = self._telemetry
        detail = telemetry.enabled
        start = perf_counter_ns() if detail else 0
        remaps = self.scratch.take_remaps()
        state = self._state
        for connection, payload in zip(self._connections, payloads):
            connection.send(
                (
                    command, payload, remaps,
                    state.size, state.maybe_dead_entries, detail,
                )
            )
        return (command, detail, start)

    def collect(self, pending) -> list:
        command, detail, start = pending
        telemetry = self._telemetry
        results = []
        failures = []
        kernels = []
        worker_spans = []
        for index, connection in enumerate(self._connections):
            reply = connection.recv()
            if reply[0] == "ok":
                if detail:
                    # Detailed reply: pickled result + the worker's
                    # sub-span dict (attach/kernel/reply); busy time is
                    # the sum of its sub-spans.
                    results.append(pickle.loads(reply[1]))
                    spans = reply[2]
                    worker_spans.append(spans)
                    kernels.append(sum(v[0] for v in spans.values()))
                else:
                    results.append(reply[1])
                    kernels.append(reply[2])
            else:
                failures.append(f"worker {index}:\n{reply[1]}")
        if failures:
            raise RuntimeError(
                "sharded worker command "
                f"{command!r} failed:\n" + "\n".join(failures)
            )
        if detail:
            # One dispatch span covers the full barrier round trip;
            # each worker's busy time comes back in its reply, so the
            # residual (span - busy, summed) is exactly the waiting —
            # driver-side planning plus slow-shard skew.  By
            # construction sum(busy) + sum(wait) ==
            # workers * span, which the telemetry tests pin.
            span_ns = perf_counter_ns() - start
            telemetry.add_span("cmd:" + command, span_ns, start_ns=start)
            for index, spans in enumerate(worker_spans):
                telemetry.add_worker_spans(
                    index, "cmd:" + command, spans,
                    dispatch_ns=span_ns, start_ns=start,
                )
            telemetry.count("commands", 1)
            telemetry.count("barriers", 1)
            telemetry.count("worker_kernel_ns", sum(kernels))
            telemetry.count(
                "barrier_wait_ns", sum(span_ns - kernel for kernel in kernels)
            )
        return results

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(None)
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1)
        for connection in self._connections:
            connection.close()
        self._connections, self._processes = [], []
        self.scratch.close()


def _worker_count(workers: Optional[int]) -> int:
    workers = (os.cpu_count() or 1) if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _release(blocks, executor_holder) -> None:
    """Finalizer shared by close() and garbage collection."""
    executor = executor_holder.get("executor")
    if executor is not None:
        executor.close()
        executor_holder["executor"] = None
    for block in blocks.values():
        block.close()
    blocks.clear()


class ShardedSimulation(VectorSimulation):
    """A :class:`VectorSimulation` executed across a multi-process
    worker pool over shared-memory shards.

    Accepts every ``VectorSimulation`` parameter, plus:

    Parameters
    ----------
    workers:
        Worker-process count (``None`` = all CPU cores).  Results are
        bitwise identical for every value.  One worker needs no pool
        and no shared memory, so ``ShardedSimulation(workers=1)``
        returns a plain :class:`VectorSimulation` — the same cycle on
        the in-process executor over a growable state.
    spare_capacity:
        Extra rows pre-allocated for joiners.  Shared-memory segments
        cannot grow, so a run whose churn adds more rows than this
        raises (default: ``max(1024, size // 8)``); rejected with
        ``workers=1``, which has no fixed capacity.

    Call :meth:`close` (or use the instance as a context manager) to
    release the worker pool and shared-memory segments; they are also
    released on garbage collection.
    """

    def __new__(cls, size, partition, workers=None, spare_capacity=None, **kwargs):
        # One worker needs no pool and no shared memory, and the cycle
        # on the in-process executor *is* the vectorized backend — so
        # hand back exactly that, not a pool-less variant of this class.
        if cls is ShardedSimulation and _worker_count(workers) == 1:
            if spare_capacity is not None:
                raise ValueError(
                    "spare_capacity sizes shared-memory shards; workers=1 "
                    "owns none (its state grows on demand)"
                )
            return VectorSimulation(size, partition, **kwargs)
        return super().__new__(cls)

    def __init__(
        self,
        size: int,
        partition,
        workers: Optional[int] = None,
        spare_capacity: Optional[int] = None,
        **kwargs,
    ) -> None:
        self.workers = _worker_count(workers)
        self._spare_capacity = (
            max(1024, size // 8) if spare_capacity is None else int(spare_capacity)
        )
        self._blocks = {}
        self._executor_holder = {"executor": None}
        self._alpha_pass_cache = None
        self._slice_stats_cache = None
        self._finalizer = weakref.finalize(
            self, _release, self._blocks, self._executor_holder
        )
        super().__init__(size, partition, **kwargs)

    # ------------------------------------------------------------------
    # State allocation / lifecycle
    # ------------------------------------------------------------------

    def _make_state(self, view_size: int, size: int) -> ArrayState:
        capacity = size + self._spare_capacity
        arrays = {}
        for name, (dtype, width) in column_spec(view_size, self.window).items():
            shape = (capacity,) if width == 1 else (capacity, width)
            block = SharedBlock(shape, dtype)
            if name == "view_ids":
                block.array.fill(-1)
            self._blocks[name] = block
            arrays[name] = block.array
        return ArrayState.from_arrays(
            view_size, arrays, size=0, window=self.window, fixed_capacity=True
        )

    def close(self) -> None:
        """Stop the worker pool and release shared memory."""
        _release(self._blocks, self._executor_holder)

    @property
    def _pool(self):
        """The running executor, or ``None`` before the first cycle and
        after :meth:`close` — the metrics then read the driver's own
        columns instead of reducing across the shards."""
        return self._executor_holder.get("executor")

    def _executor(self):
        executor = self._executor_holder.get("executor")
        if executor is None:
            executor = _PoolExecutor(self)
            self._executor_holder["executor"] = executor
        return executor

    # ------------------------------------------------------------------
    # Row migration
    # ------------------------------------------------------------------

    def _broadcast(self, executor, command: str, payloads=None) -> list:
        if payloads is None:
            payloads = [{}] * len(executor.bounds)
        return executor.run(command, payloads)

    def _apply_rebalance(self, decision) -> None:
        """Execute one planned compaction as a distributed row
        migration over the existing wave-boundary sync.

        Each column moves in two barrier-separated phases — **pack**
        (every worker gathers the live rows of its *old* range into a
        shared staging window at the rows' new positions) and
        **unpack** (every worker writes its *new* range back from
        staging, relabeling view ids through the migration map) — so
        no worker ever reads a row another worker is rewriting.  A
        final **commit** message installs the recomputed shard
        boundaries; the permutation itself comes from the plan, so the
        arrays end up byte-identical to the vectorized backend's
        :func:`~repro.bulk.rebalance.compact_state`.
        """
        state = self.state
        executor = self._executor()
        scratch = executor.scratch
        new_size, old_size = decision.new_size, decision.old_size
        # Publish the permutation: the live gather list (new row k
        # reads old row live[k]) and the old->new relabeling map.
        live = scratch.ensure("mig_live", np.int64, new_size)
        live[:new_size] = decision.live
        id_map = scratch.ensure("mig_map", np.int64, old_size)
        id_map[:old_size] = decision.id_map()
        # One byte buffer stages the widest column; kernels view it
        # with each column's own dtype (rounded to 8 so any itemsize
        # divides the allocation).
        columns = migration_columns(state)
        row_bytes = max(
            getattr(state, name).dtype.itemsize
            * (getattr(state, name).shape[1] if getattr(state, name).ndim == 2 else 1)
            for name in columns
        )
        scratch.ensure(
            "mig_bytes", np.uint8, -(-(state.capacity * row_bytes) // 8) * 8
        )
        pack_runs = shard_run_payloads(
            executor.bounds, state.capacity, decision.live
        )
        new_bounds = rebalance_bounds(
            new_size, len(executor.bounds), state.capacity
        )
        for name in columns:
            executor.run(
                "rebalance_pack",
                [{"column": name, **run} for run in pack_runs],
            )
            self._after_pack(name, new_size)
            executor.run(
                "rebalance_unpack",
                [
                    {"column": name, "lo": lo, "hi": hi, "new_size": new_size}
                    for lo, hi in self._unpack_spans(name, new_bounds, new_size)
                ],
            )
        # The driver is the single writer of the liveness/size
        # metadata (exactly as for churn); workers pick the new size
        # up from the commit broadcast below.
        state.alive[:new_size] = True
        state.alive[new_size:old_size] = False
        state.size = new_size
        state._live_dirty = True
        state.maybe_dead_entries = False
        replies = executor.run(
            "rebalance_commit",
            self._commit_payloads(new_bounds, old_size, new_size),
        )
        committed = [(reply["lo"], reply["hi"]) for reply in replies]
        if committed != new_bounds:
            raise RuntimeError(
                "rebalance commit failed: workers adopted bounds "
                f"{committed}, driver computed {new_bounds}"
            )
        executor.bounds = new_bounds

    def _after_pack(self, name: str, new_size: int) -> None:
        """Migration hook between a column's pack and unpack rounds.
        No-op here (staging is shared memory); the distributed driver
        installs its replicated columns from the assembled staging."""

    def _unpack_spans(self, name: str, new_bounds, new_size: int):
        """Migration hook: the row span each worker unpacks for
        ``name``.  Shard-owned ranges here; the distributed driver
        widens replicated columns to the full compacted range."""
        return new_bounds

    def _commit_payloads(self, new_bounds, old_size: int, new_size: int):
        """Migration hook: the commit broadcast's payloads.  The
        distributed commit additionally carries the sizes so every
        replica can rewrite its liveness column."""
        return [{"lo": lo, "hi": hi} for lo, hi in new_bounds]

    def shard_live_loads(self) -> list:
        """Per-shard live-row counts from the last view refresh
        (shard order).  Empty before the first refresh."""
        if self._live_counts is None:
            return []
        return [int(count) for count in self._live_counts]

    def shard_load_ratio(self) -> float:
        """Max/min live-load ratio across the shards at the last
        refresh (``inf`` if some shard held no live rows; 1.0 before
        the first refresh or with a single worker)."""
        return live_load_ratio(np.asarray(self.shard_live_loads(), dtype=np.int64))

    # ------------------------------------------------------------------
    # Bulk metrics: tree reduction across shards
    # ------------------------------------------------------------------

    def _metric_ranks(self, executor, column: str, name: str):
        """Distributed rank pass; returns ``(segments, total)``."""
        replies = self._broadcast(
            executor, "metric_prepare", [{"column": column}] * len(executor.bounds)
        )
        counts = [reply["count"] for reply in replies]
        offsets, total = prefix_offsets(counts)
        executor.scratch.ensure("mkeys", np.float64, max(total, 1))
        executor.scratch.ensure("mids", np.int64, max(total, 1))
        self._broadcast(
            executor, "metric_write", [{"offset": offset} for offset in offsets]
        )
        segments = list(zip(offsets, counts))
        self._broadcast(
            executor,
            "metric_ranks",
            [
                {"segments": segments, "own": index, "name": name}
                for index in range(len(executor.bounds))
            ],
        )
        return total

    def _state_tag(self):
        """Cheap fingerprint of everything the metrics depend on: the
        cycle counter plus the only between-cycle mutators (compat-API
        join/leave, which change size/live_count)."""
        return (self._cycle, self.state.size, self.state.live_count)

    def _alpha_rank_pass(self, executor):
        """The 'attribute' rank merge, deduplicated per state: SDM,
        accuracy and GDM all consume the alpha ranks, and the workers
        keep them cached under ``"alpha"`` until the next pass."""
        tag = self._state_tag()
        cached = self._alpha_pass_cache
        if cached is not None and cached[0] == tag:
            return cached[1]
        total = self._metric_ranks(executor, "attribute", "alpha")
        self._alpha_pass_cache = (tag, total)
        return total

    def _distributed_slice_stats(self):
        # One rank merge yields both SDM and accuracy; collectors ask
        # for them separately every cycle, so cache the pair until the
        # state changes (cycle advance or compat-API join/leave).
        state_tag = self._state_tag()
        cached = self._slice_stats_cache
        if cached is not None and cached[0] == state_tag:
            return cached[1]
        executor = self._pool
        total = self._alpha_rank_pass(executor)
        if total == 0:
            stats = (0.0, 1.0)
        else:
            # Exact reduction: each shard publishes an integer
            # (truth, believed) histogram; summing counts is rounding-
            # free, and the single weighted sum below is the same
            # canonical-order computation slice_disorder_arrays runs —
            # so SDM/accuracy are bitwise worker-count independent.
            shards = len(executor.bounds)
            cells = len(self.partition) ** 2
            executor.scratch.ensure("sdm_counts", np.int64, shards * cells)
            self._broadcast(
                executor,
                "metric_sdm",
                [{"n_live": total, "slot": index} for index in range(shards)],
            )
            counts = (
                executor.scratch["sdm_counts"][: shards * cells]
                .reshape(shards, cells)
                .sum(axis=0)
                .reshape(len(self.partition), len(self.partition))
            )
            sdm = vmetrics.sdm_from_counts(counts, self.geometry)
            accurate = int(np.trace(counts))
            stats = (sdm, accurate / total)
        self._slice_stats_cache = (state_tag, stats)
        return stats

    def _stream_metrics(self) -> dict:
        """Metrics stream via the pool's tree reductions; the alpha
        rank pass and the (truth, believed) histogram are shared and
        cached across the three values, so streaming every cycle adds
        one rank merge, not four."""
        if self._pool is None:
            return super()._stream_metrics()
        with self.telemetry.span("metrics_stream"):
            return {
                "sdm": self.slice_disorder(),
                "gdm": self.global_disorder(),
                "accuracy": self.accuracy(),
                "live": self.live_count,
            }

    def slice_disorder(self) -> float:
        if self._pool is None:
            return super().slice_disorder()
        return self._distributed_slice_stats()[0]

    def accuracy(self) -> float:
        if self._pool is None:
            return super().accuracy()
        return self._distributed_slice_stats()[1]

    def global_disorder(self) -> float:
        if self._pool is None:
            return super().global_disorder()
        executor = self._pool
        total = self._alpha_rank_pass(executor)
        if total == 0:
            return 0.0
        self._metric_ranks(executor, "value", "rho")
        replies = self._broadcast(executor, "metric_gdm")
        return sum(reply["sq"] for reply in replies) / total

    def confident_fraction(self, confidence: float = 0.95) -> float:
        if self._pool is None:
            return super().confident_fraction(confidence)
        if self.state.live_count == 0:
            return 1.0
        if not self._is_ranking():
            return 0.0
        replies = self._broadcast(
            executor := self._pool,
            "metric_confident",
            [{"z": z_value(confidence)}] * len(executor.bounds),
        )
        total = sum(reply["n"] for reply in replies)
        confident = sum(reply["confident"] for reply in replies)
        return confident / total if total else 1.0

    def slice_sizes(self):
        if self._pool is None:
            return super().slice_sizes()
        replies = self._broadcast(self._pool, "metric_slice_sizes")
        return [
            int(sum(reply["counts"][i] for reply in replies))
            for i in range(len(self.partition))
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSimulation(nodes={self.live_count}, cycle={self.now}, "
            f"protocol={self.protocol!r}, workers={self.workers})"
        )
