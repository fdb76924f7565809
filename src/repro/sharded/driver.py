"""The sharded backend: the bulk driver on a shared-memory worker pool.

:class:`ShardedSimulation` is a constructor, not a second driver: it
validates ``workers`` / ``spare_capacity`` and hands the one bulk
driver (:class:`~repro.vectorized.simulation.VectorSimulation` — plan,
churn, rebalance bookkeeping and every metric) a :class:`_PoolExecutor`
to run on.  What this module adds is only what processes and shared
memory need:

* :class:`_PoolExecutor` — the state laid out in shared-memory blocks
  (:mod:`repro.sharded.shm`) and a persistent pool of worker
  processes, forked at the first command, each applying the kernels
  over its own contiguous id range.  One pipe per worker carries tiny
  control tuples; node state never crosses a pipe.  The driver maps the
  same blocks, so its columns are always current and the metrics need
  no worker;
* :func:`migrate_rows` — the **row migration** behind a planned
  rebalance, written once for the pool and the message transport.  Long
  correlated-churn runs concentrate dead rows in the low shards (ids
  are append-only and the original cohort dies first), so with the
  ``rebalance_every`` / ``rebalance_threshold`` knobs the plan decides a
  dead-row compaction permutation (:mod:`repro.bulk.rebalance`), the
  workers migrate rows through barrier-separated pack/unpack rounds
  over a staging buffer, and the shard boundaries are recomputed over
  the compacted live span.

Because the plan is identical for every worker count and each applied
step is either row-local or wave-disjoint, a run's arrays are **bitwise
identical across worker counts**; ``workers=1`` needs no pool at all,
so the constructor returns the driver on its in-process executor.
Parallelism changes wall-clock time only, never results; the
equivalence tests assert this exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from time import perf_counter_ns
from typing import Optional

import numpy as np

from repro.bulk.rebalance import migration_columns, rebalance_bounds
from repro.sharded.shm import ReleasedState, SharedBlock, SharedScratch
from repro.vectorized.cycle import shard_run_payloads
from repro.vectorized.executor import Executor
from repro.vectorized.simulation import VectorSimulation
from repro.vectorized.state import ArrayState, block_rows, column_spec, row_blocks

__all__ = ["ShardedSimulation", "migrate_rows", "capacity_with_spare", "worker_count"]


def capacity_with_spare(size: int, spare_capacity: Optional[int]) -> int:
    """Rows a non-growing executor allocates for ``size`` initial nodes:
    ``spare_capacity`` extra for joiners, ``max(1024, size // 4)`` by
    default.

    A quarter, because compaction has to get its chance first: with
    ``D`` dead rows among ``N`` live ones (removal uniform over ids,
    joiners appended on top) the trigger's 8-range probe reads a load
    ratio of ``1 + 8x² / (1 - x²)``, ``x = D / N`` — 1.13 when an
    eighth is used up, 1.53 at a quarter — so every
    ``rebalance_threshold`` up to 1.5 fires before the spare runs out.
    A spare row costs its ``view_ids`` fill; the other columns stay
    untouched zero pages until a joiner lands on them."""
    spare = max(1024, size // 4) if spare_capacity is None else int(spare_capacity)
    return size + spare


def migrate_rows(executor, decision) -> None:
    """Execute one planned compaction as a row migration between the
    shards of ``executor`` (a pool or a message transport).

    Each column moves one :func:`~repro.vectorized.state.row_blocks`
    block of *new* rows at a time, in two barrier-separated phases —
    **pack** (every worker gathers the live rows of its *old* range
    that land in the block into the staging buffer) and **unpack**
    (every worker writes its part of the block back from staging,
    relabeling view ids through the migration map) — so no worker ever
    reads a row another worker is rewriting, and staging is a block,
    not a column.  Ascending blocks are safe in place: new row ``k``
    reads old row ``live[k] >= k``, so a finished block never overwrote
    a row a later block still packs.  A column the workers hold
    replicas of (``executor.replicated``) is unpacked in full on every
    worker, and installed in the driver's copy straight from the
    assembled staging.  A final **commit** installs the recomputed
    shard boundaries; the permutation itself comes from the plan, so
    the arrays end up byte-identical to the in-process
    :func:`~repro.bulk.rebalance.compact_state`.
    """
    state, scratch = executor.state, executor.scratch
    shards = len(executor.bounds)
    new_size, old_size = decision.new_size, decision.old_size
    # Publish the permutation: the live gather list (new row k
    # reads old row live[k]) and the old->new relabeling map.
    live = scratch.ensure("mig_live", np.int64, new_size)
    live[:new_size] = decision.live
    id_map = scratch.ensure("mig_map", np.int64, old_size)
    id_map[:old_size] = decision.id_map()
    # One byte buffer stages one block of any column; kernels view it
    # with each column's own dtype (rounded to 8 so any itemsize
    # divides the allocation).
    columns = {name: getattr(state, name) for name in migration_columns(state)}
    nbytes = max(block_rows(col) * col.strides[0] for col in columns.values())
    stage = scratch.ensure("mig_bytes", np.uint8, -(-nbytes // 8) * 8)
    new_bounds = rebalance_bounds(new_size, shards, state.capacity)
    for name, column in columns.items():
        replicated = name in executor.replicated
        for base, stop in row_blocks(column, 0, new_size):
            runs = shard_run_payloads(
                executor.bounds, state.capacity, decision.live[base:stop]
            )
            packs = [{"column": name, "base": base, **run} for run in runs]
            executor.run("rebalance_pack", packs)
            spans = new_bounds
            if replicated:
                spans = [(base, stop)] * shards
                nbytes = (stop - base) * column.dtype.itemsize
                column[base:stop] = stage[:nbytes].view(column.dtype)
            executor.run(
                "rebalance_unpack",
                [
                    dict(column=name, base=base, lo=max(lo, base), hi=min(hi, stop))
                    for lo, hi in spans
                ],
            )
    # The driver is the single writer of the liveness/size metadata
    # (exactly as for churn); workers pick the new size up from the
    # commit broadcast below and replicas rewrite liveness from it.
    state.alive[:new_size] = True
    state.alive[new_size:old_size] = False
    state.size = new_size
    state._live_dirty = True
    state.maybe_dead_entries = False
    replies = executor.run(
        "rebalance_commit", [{"lo": lo, "hi": hi} for lo, hi in new_bounds]
    )
    committed = [(reply["lo"], reply["hi"]) for reply in replies]
    if committed != new_bounds:
        raise RuntimeError(
            "rebalance commit failed: workers adopted bounds "
            f"{committed}, driver computed {new_bounds}"
        )
    executor.bounds = new_bounds


class _PoolExecutor(Executor):
    """Persistent worker pool over shared-memory state blocks.

    Started by the first command, so building a simulation does not pay
    the fork.  After :meth:`close` the blocks are unmapped: the state
    object turns into a :class:`~repro.sharded.shm.ReleasedState` (every
    read raises) and commands are refused — copying the columns out
    instead would double the peak memory of a large run at its very end.
    """

    def __init__(self, workers: int, spare_capacity: Optional[int]) -> None:
        self.workers = workers
        self._spare_capacity = spare_capacity
        self.scratch = SharedScratch()
        self.state = None
        self._blocks = {}
        self._connections = []
        self._processes = []
        self._closed = False

    def allocate(self, view_size: int, size: int, window) -> ArrayState:
        capacity = capacity_with_spare(size, self._spare_capacity)
        arrays = {}
        for name, (dtype, width) in column_spec(view_size, window).items():
            shape = (capacity,) if width == 1 else (capacity, width)
            block = SharedBlock(shape, dtype)
            if name == "view_ids":
                block.array.fill(-1)
            self._blocks[name] = block
            arrays[name] = block.array
        self.state = ArrayState.from_arrays(
            view_size, arrays, size=0, window=window, fixed_capacity=True
        )
        return self.state

    def attach(self, geometry, telemetry) -> None:
        # The telemetry object is shared with the simulation but does
        # not reference it, so holding it here keeps the finalizer
        # contract intact.
        self._partition = geometry.partition
        self._telemetry = telemetry
        # Initial boundaries split the populated span ``[0, size)``
        # evenly (the last shard absorbs the spare capacity, where
        # joiners append) — the same rule a rebalance re-applies over
        # the compacted live span.  Bounds never affect results, only
        # which worker does which rows' work.
        self.bounds = rebalance_bounds(
            self.state.size, self.workers, self.state.capacity
        )

    def _start(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this sharded simulation is closed; build a new one to "
                "run further cycles"
            )
        method = os.environ.get("REPRO_SHARDED_START_METHOD") or (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        context = multiprocessing.get_context(method)
        from repro.sharded.worker import worker_main

        state = self.state
        layout = {
            name: (block.name, block.shape, block.dtype.str)
            for name, block in self._blocks.items()
        }
        for lo, hi in self.bounds:
            parent_end, child_end = context.Pipe()
            init = {
                "blocks": layout,
                "view_size": state.view_size,
                "size": state.size,
                "window": state.window,
                "partition": self._partition,
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

    def _died(self, index: int, command: str, error: Exception) -> RuntimeError:
        """The error raised when a worker's pipe breaks mid-protocol —
        named like the transport's ``WorkerHandle.fail``."""
        return RuntimeError(
            f"sharded worker {index} (pid {self._processes[index].pid}) died "
            f"during command {command!r}: {error!r}"
        )

    def run_async(self, command: str, payloads):
        """Dispatch one command and return without waiting for the
        replies — the driver can plan (draw random blocks, stage the
        next wave into the other scratch buffer) while the workers
        compute.  The caller must :meth:`collect` before touching
        anything the command writes, and must not remap shared scratch
        while the command is in flight."""
        if not self._connections:
            self._start()
        detail = self._telemetry.enabled
        start = perf_counter_ns() if detail else 0
        state = self.state
        meta = (
            self.scratch.take_remaps(), state.size, state.maybe_dead_entries, detail
        )
        for index, connection in enumerate(self._connections):
            try:
                connection.send((command, payloads[index], *meta))
            except OSError as error:
                raise self._died(index, command, error) from error
        return (command, detail, start)

    def collect(self, pending) -> list:
        command, detail, start = pending
        results = []
        failures = []
        worker_spans = []
        for index, connection in enumerate(self._connections):
            try:
                reply = connection.recv()
            except (EOFError, OSError) as error:
                raise self._died(index, command, error) from error
            if reply[0] != "ok":
                failures.append(f"worker {index}:\n{reply[1]}")
            elif detail:
                # Detailed reply: pickled result + the worker's
                # sub-span dict (attach/kernel/reply).
                results.append(pickle.loads(reply[1]))
                worker_spans.append((index, reply[2]))
                self._telemetry.count(f"mem.w{index}.peak_mb", reply[3])
            else:
                results.append(reply[1])
        if failures:
            raise RuntimeError(
                "sharded worker command "
                f"{command!r} failed:\n" + "\n".join(failures)
            )
        if detail:
            # One dispatch span covers the full barrier round trip, so
            # each worker's wait — driver-side planning plus slow-shard
            # skew — is the span minus the busy time in its reply.
            self._telemetry.book_command(
                command, start, perf_counter_ns() - start, worker_spans
            )
        return results

    def compact(self, decision) -> None:
        migrate_rows(self, decision)

    def close(self) -> None:
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(None)
            except OSError:
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
        if self.state is not None:
            # numpy does not hold the buffer export: an array over an
            # unmapped block would read freed pages.  Drop them first.
            ReleasedState.take_over(self.state)
        for block in self._blocks.values():
            block.close()
        self._blocks.clear()


def worker_count(workers: Optional[int]) -> int:
    workers = (os.cpu_count() or 1) if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


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
        raises (default: ``max(1024, size // 4)``, see
        :func:`capacity_with_spare`); rejected with
        ``workers=1``, which has no fixed capacity.

    Call :meth:`close` (or use the instance as a context manager) to
    release the worker pool and shared-memory segments; they are also
    released on garbage collection.  A closed pool simulation's columns
    are gone with the segments: state reads, metrics and ``run`` raise
    a ``RuntimeError`` — read what you need before closing.
    """

    def __new__(cls, size, partition, workers=None, spare_capacity=None, **kwargs):
        # One worker needs no pool and no shared memory, and the cycle
        # on the in-process executor *is* the vectorized backend — so
        # hand back exactly that, not a pool-less variant of this class.
        if worker_count(workers) == 1:
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
        self.workers = worker_count(workers)
        executor = _PoolExecutor(self.workers, spare_capacity)
        super().__init__(size, partition, executor=executor, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSimulation(nodes={self.live_count}, cycle={self.now}, "
            f"protocol={self.protocol!r}, workers={self.workers})"
        )
