"""The distributed (multi-host) bulk-simulation driver.

:class:`DistributedSimulation` runs the one bulk cycle
(:mod:`repro.vectorized.cycle` — central :class:`~repro.bulk.CyclePlan`,
shard kernels, wave scheduling) plus the sharded backend's row
migration and tree-reduced metrics, but replaces every shared-memory
surface (:class:`~repro.sharded.shm.SharedScratch` segments, state
blocks, pipes) with an explicit message transport: length-prefixed
framed messages over TCP sockets (or the in-process loopback
transport).  Nothing is shared between driver and workers; everything
a phase needs travels in the command message, and everything it
produces travels back in the reply:

* **plan down** — each command ships the scratch blocks it consumes
  (random draws, proposal lists, wave pairings, merge buffers);
* **results up** — each reply carries the scratch segments the worker
  wrote and the replicated-column deltas it produced;
* **wave-boundary sync** — the barrier of the shared-memory backend
  becomes an explicit exchange: the driver merges each wave's deltas
  and re-broadcasts them with the next command, and cross-shard view
  exchanges ship the partner's rows both ways (``fetch_rows`` → swap
  → guest-row return, see :mod:`repro.distributed.protocol`);
* **metric rank-merge** — shards publish their sorted ``(key, id)``
  runs up, receive the merged buffers down, and the SDM/accuracy
  reduction ships integer ``(truth, believed)`` count matrices over
  the wire, so metrics stay bitwise worker-count independent;
* **rebalancing** — the PR-4 migration protocol (per-column pack →
  barrier → unpack with view-id relabeling) runs with the staging
  buffer relayed through the driver, which is exactly a shard-to-shard
  state transfer across hosts.

Because the plan, the phase order, and the kernels are identical to
the sharded/vectorized backends, a distributed run is **bitwise
identical** to both, at every worker count, over every transport.
"""

from __future__ import annotations

import os
import pickle
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bulk.rebalance import rebalance_bounds
from repro.distributed import protocol
from repro.distributed.framing import DEFAULT_MAX_FRAME, TransportError
from repro.distributed.transport import (
    TRANSPORTS,
    connect_remote,
    launch_local_tcp,
    launch_loopback,
)
from repro.sharded.driver import ShardedSimulation
from repro.vectorized.kernels import WAVE_BUFFERS
from repro.vectorized.state import ArrayState, column_spec, take_rows

__all__ = ["DistributedSimulation"]


class MessageScratch:
    """Driver-side named scratch (grow-on-demand), with (re)allocation
    notices pushed to every worker so their local mirrors stay
    layout-compatible — the message twin of
    :class:`~repro.sharded.shm.SharedScratch`."""

    def __init__(self, on_remap) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._on_remap = on_remap

    def ensure(self, name: str, dtype, size: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        array = self._arrays.get(name)
        if array is not None and len(array) >= size and array.dtype == dtype:
            return array
        new_size = max(int(size), 1024)
        if array is not None:
            new_size = max(new_size, 2 * len(array))
        array = np.zeros(new_size, dtype=dtype)
        self._arrays[name] = array
        self._on_remap(name, dtype.str, new_size)
        return array

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def close(self) -> None:
        self._arrays.clear()


class _MessageExecutor:
    """The transport-backed executor: same ``run(command, payloads)``
    surface the cycle's phases dispatch through, implemented as framed
    message exchanges instead of shared-memory broadcasts."""

    def __init__(self, sim: "DistributedSimulation") -> None:
        workers = sim.workers
        self._state = sim.state
        self._telemetry = sim.telemetry
        self._remaps: List[list] = [[] for _ in range(workers)]
        self._updates: List[list] = [[] for _ in range(workers)]
        self.scratch = MessageScratch(self._queue_remap)
        self.bounds = rebalance_bounds(
            sim.state.size, workers, sim.state.capacity
        )
        if sim.hosts is not None:
            self._workers = connect_remote(
                sim.hosts, sim.max_frame, sim.connect_timeout
            )
        elif sim.transport == "loopback":
            self._workers = launch_loopback(workers, sim.max_frame)
        else:
            self._workers = launch_local_tcp(
                workers, sim.max_frame, sim.connect_timeout
            )
        self._handshake(sim)

    def _handshake(self, sim: "DistributedSimulation") -> None:
        state = sim.state
        for handle in self._workers:
            hello = handle.hello  # consumed by the launcher
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                raise RuntimeError(
                    f"distributed worker {handle.index} sent an unexpected "
                    f"handshake: {hello!r}"
                )
        snapshot = {
            name: np.array(getattr(state, name)[: state.size])
            for name in column_spec(sim.view_size, state.window)
        }
        for handle, (lo, hi) in zip(self._workers, self.bounds):
            handle.endpoint.send(
                {
                    "type": "init",
                    "index": handle.index,
                    "lo": lo,
                    "hi": hi,
                    "view_size": sim.view_size,
                    "window": state.window,
                    "size": state.size,
                    "capacity": state.capacity,
                    "partition": sim.partition,
                    "columns": snapshot,
                }
            )
        for handle in self._workers:
            try:
                status = handle.endpoint.recv()
            except (TransportError, OSError) as error:
                raise handle.fail("init", error) from error
            if status[0] != "ok":
                raise RuntimeError(
                    f"distributed worker {handle.index} failed to "
                    f"initialize:\n{status[1]}"
                )

    # ------------------------------------------------------------------
    # Update / remap queues
    # ------------------------------------------------------------------

    def _queue_remap(self, name: str, dtype: str, size: int) -> None:
        for queue in self._remaps:
            queue.append((name, dtype, size))

    def push_updates(self, updates) -> None:
        """Route state deltas: replicated columns to the driver's state
        and every worker; heavy (view) rows to their owner only."""
        for column, rows, values in updates:
            if column in protocol.REPLICATED_COLUMNS:
                getattr(self._state, column)[rows] = values
                if column == "alive":
                    self._state._live_dirty = True
                for queue in self._updates:
                    queue.append((column, rows, values))
            else:
                for index, (lo, hi) in enumerate(self.bounds):
                    mask = (rows >= lo) & (rows < hi)
                    if mask.any():
                        self._updates[index].append(
                            (column, rows[mask], values[mask])
                        )

    def _meta(self, index: int, inputs: dict, detail: bool = False) -> dict:
        remaps, self._remaps[index] = self._remaps[index], []
        updates, self._updates[index] = self._updates[index], []
        return {
            "remaps": remaps,
            "inputs": inputs,
            "updates": updates,
            "size": self._state.size,
            "maybe_dead": self._state.maybe_dead_entries,
            "detail": detail,
        }

    # ------------------------------------------------------------------
    # Command exchanges
    # ------------------------------------------------------------------

    def _wire_totals(self):
        """Cumulative (sent_bytes, recv_bytes, frames) over every
        worker endpoint — the per-command telemetry reads deltas."""
        sent = recv = frames = 0
        for handle in self._workers:
            endpoint = handle.endpoint
            sent += endpoint.sent_bytes
            recv += endpoint.recv_bytes
            frames += endpoint.sent_frames + endpoint.recv_frames
        return sent, recv, frames

    def _exchange(self, command: str, assignments) -> list:
        """One command round trip with the given ``(worker_index,
        payload)`` assignments; merges scratch outputs and routes state
        updates before returning the per-worker results."""
        telemetry = self._telemetry
        detail = telemetry.enabled
        if detail:
            start = perf_counter_ns()
            sent0, recv0, frames0 = self._wire_totals()
        # Each worker receives only the input runs its payload names
        # (see protocol.INPUT_SLICERS) as ``{name: (offset, run)}``;
        # commands without a slicer ship their inputs in full.  The
        # endpoint's protocol-5 out-of-band pickling puts the array
        # bytes on the wire without an intermediate copy.
        input_names = protocol.COMMAND_INPUTS.get(command, ())
        slicer = protocol.INPUT_SLICERS.get(command)
        for index, payload in assignments:
            if slicer is None:
                inputs = {
                    name: (0, self.scratch[name])
                    for name in input_names
                    if name in self.scratch
                }
            else:
                inputs = {}
                for name, span in slicer(payload, self._state).items():
                    if name not in self.scratch:
                        continue
                    if span is None:
                        inputs[name] = (0, self.scratch[name])
                    else:
                        offset, count = int(span[0]), int(span[1])
                        inputs[name] = (
                            offset,
                            self.scratch[name][offset : offset + count],
                        )
            handle = self._workers[index]
            try:
                handle.endpoint.send(
                    (command, payload, self._meta(index, inputs, detail))
                )
            except (TransportError, OSError) as error:
                raise handle.fail(command, error) from error
        results, failures, outputs, updates = [], [], [], []
        kernels = []
        worker_spans = []
        for index, _payload in assignments:
            handle = self._workers[index]
            try:
                reply = handle.endpoint.recv()
            except (TransportError, OSError) as error:
                raise handle.fail(command, error) from error
            if reply[0] == "ok":
                if detail:
                    # Detailed reply: pickled (result, outputs,
                    # updates) triple + the worker's sub-span dict
                    # (deserialize/compute/serialize); busy time is
                    # the sum of its sub-spans.
                    result, outs, upds = pickle.loads(reply[1])
                    spans = reply[2]
                    results.append(result)
                    outputs.extend(outs)
                    updates.extend(upds)
                    worker_spans.append((index, spans))
                    kernels.append(sum(v[0] for v in spans.values()))
                else:
                    results.append(reply[1])
                    outputs.extend(reply[2])
                    updates.extend(reply[3])
                    kernels.append(reply[4])
            else:
                failures.append(f"worker {index}:\n{reply[1]}")
        if failures:
            raise RuntimeError(
                f"distributed worker command {command!r} failed:\n"
                + "\n".join(failures)
            )
        for name, where, values in outputs:
            array = self.scratch[name]
            if isinstance(where, (int, np.integer)):
                array[where : where + len(values)] = values
            else:
                array[where] = values
        self.push_updates(updates)
        if detail:
            # Same accounting as the sharded pool: the exchange span
            # minus the workers' self-reported busy time is wire +
            # barrier waiting; the endpoint byte counters attribute
            # traffic per command (incl. the pickled scratch inputs).
            span_ns = perf_counter_ns() - start
            sent1, recv1, frames1 = self._wire_totals()
            telemetry.add_span("cmd:" + command, span_ns, start_ns=start)
            for index, spans in worker_spans:
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
            telemetry.count("wire.sent_bytes", sent1 - sent0)
            telemetry.count("wire.recv_bytes", recv1 - recv0)
            telemetry.count("wire.frames", frames1 - frames0)
            telemetry.count(f"wire.{command}.sent_bytes", sent1 - sent0)
            telemetry.count(f"wire.{command}.recv_bytes", recv1 - recv0)
        return results

    def run(self, command: str, payloads) -> list:
        if command == "refresh_swap":
            return self._run_refresh_swap(payloads)
        return self._exchange(command, list(enumerate(payloads)))

    def run_async(self, command: str, payloads) -> list:
        """The transport executor has no cross-command pipelining —
        every exchange is synchronous — so ``run_async``/``collect``
        just keep the cycle's pipelined call shape working
        (the driver-side draws still happen before dispatch, so plan
        order is identical)."""
        return self.run(command, payloads)

    def collect(self, pending: list) -> list:
        return pending

    def _run_refresh_swap(self, payloads) -> list:
        """One view-exchange wave: fetch the cross-shard partners' view
        rows from their owners, ship them to the initiators' shards as
        guests, swap, and let the reply's guest updates route the
        rewritten rows back — the wave-boundary sync, as messages."""
        wave_b = self.scratch[WAVE_BUFFERS[payloads[0].get("buffer", 0)][1]]
        needed = []
        for (lo, hi), payload in zip(self.bounds, payloads):
            offset, count = payload["offset"], payload["count"]
            rows = wave_b[offset : offset + count]
            needed.append(np.array(rows[(rows < lo) | (rows >= hi)]))
        fetch_assignments = []
        for index, (lo, hi) in enumerate(self.bounds):
            wanted = [rows[(rows >= lo) & (rows < hi)] for rows in needed]
            wanted = np.concatenate(wanted) if wanted else np.empty(0, np.int64)
            if len(wanted):
                fetch_assignments.append((index, {"rows": wanted}))
        lookup = None
        if fetch_assignments:
            fetched = self._exchange("fetch_rows", fetch_assignments)
            all_rows = np.concatenate([result["rows"] for result in fetched])
            all_ids = np.concatenate([result["view_ids"] for result in fetched])
            all_ages = np.concatenate([result["view_ages"] for result in fetched])
            order = np.argsort(all_rows)
            lookup = (
                all_rows[order],
                take_rows(all_ids, order),
                take_rows(all_ages, order),
            )
        assignments = []
        for index, payload in enumerate(payloads):
            rows = needed[index]
            if len(rows):
                sorted_rows, ids, ages = lookup
                positions = np.searchsorted(sorted_rows, rows)
                guests = (rows, take_rows(ids, positions), take_rows(ages, positions))
                payload = dict(payload, guests=guests)
            assignments.append((index, payload))
        return self._exchange("refresh_swap", assignments)

    def close(self) -> None:
        for handle in self._workers:
            handle.stop()
        self._workers = []
        self.scratch.close()


class DistributedSimulation(ShardedSimulation):
    """A :class:`~repro.sharded.ShardedSimulation` whose workers live
    behind a message transport instead of shared memory — the same
    plan, phases and kernels, so results are bitwise identical to the
    vectorized and sharded backends at every worker count.

    Accepts every ``VectorSimulation`` parameter, plus:

    Parameters
    ----------
    workers:
        Worker count (``None`` = all CPU cores).  With ``hosts`` it
        may be omitted (the host count is used) but, if given, must
        equal ``len(hosts)``.
    hosts:
        ``["host:port", ...]`` of pre-started standalone workers
        (``python -m repro.distributed.worker --listen HOST:PORT``);
        ``None`` spawns local workers instead.
    transport:
        ``"tcp"`` (default; localhost sockets for spawned workers) or
        ``"loopback"`` (in-process threads over a socketpair — same
        framed bytes, no process spawn; the test transport).  The
        ``REPRO_DISTRIBUTED_TRANSPORT`` environment variable overrides
        the default.
    spare_capacity:
        Extra rows pre-allocated for joiners (replicas cannot grow);
        default ``max(1024, size // 8)``.
    max_frame, connect_timeout:
        Transport limits: per-message byte cap and worker-connect
        timeout.

    Workers are started eagerly (at construction) and released by
    :meth:`close`, the context-manager exit, or garbage collection.
    """

    def __init__(
        self,
        size: int,
        partition,
        workers: Optional[int] = None,
        hosts: Optional[Sequence[str]] = None,
        transport: Optional[str] = None,
        spare_capacity: Optional[int] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        connect_timeout: float = 30.0,
        **kwargs,
    ) -> None:
        if transport is None:
            transport = os.environ.get("REPRO_DISTRIBUTED_TRANSPORT", "tcp")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if hosts is not None:
            hosts = [str(host) for host in hosts]
            if not hosts:
                raise ValueError("hosts must name at least one worker")
            if workers is not None and workers != len(hosts):
                raise ValueError(
                    f"workers={workers} disagrees with the {len(hosts)} "
                    "hosts given; pass one or the other"
                )
            if transport != "tcp":
                raise ValueError("hosts= requires the tcp transport")
            workers = len(hosts)
        self.hosts = hosts
        self.transport = transport
        self.max_frame = int(max_frame)
        self.connect_timeout = float(connect_timeout)
        self._closed = False
        super().__init__(
            size, partition, workers=workers, spare_capacity=spare_capacity, **kwargs
        )
        # Eager start: churn/rebalancing of the very first cycle already
        # need consistent replicas on every worker.
        self._executor()

    # ------------------------------------------------------------------
    # State allocation / executor plumbing
    # ------------------------------------------------------------------

    def _make_state(self, view_size: int, size: int) -> ArrayState:
        capacity = size + self._spare_capacity
        state = ArrayState(view_size, capacity=capacity)
        state.fixed_capacity = True
        return state

    def _executor(self) -> _MessageExecutor:
        executor = self._executor_holder.get("executor")
        if executor is None:
            if self._closed:
                # A fresh executor here would snapshot the driver's
                # stale heavy columns and silently diverge — refuse.
                raise RuntimeError(
                    "this DistributedSimulation is closed; build a new "
                    "one to run further cycles"
                )
            executor = _MessageExecutor(self)
            self._executor_holder["executor"] = executor
        return executor

    def close(self) -> None:
        """Pull the shards' state down (so the driver's copy stays an
        exact replica for any post-close reads), then stop the workers.
        A closed simulation refuses to run further cycles."""
        executor = self._executor_holder.get("executor")
        if executor is not None and not self._closed:
            try:
                self.sync_state()
            except Exception:
                pass  # workers already gone; keep what the driver has
        self._closed = True
        super().close()

    def _queue_updates(self, updates) -> None:
        executor = self._executor_holder.get("executor")
        if executor is not None and updates:
            executor.push_updates(updates)

    # ------------------------------------------------------------------
    # Churn: driver plans and applies locally, deltas ride the wire
    # ------------------------------------------------------------------

    def _apply_churn(self, plan) -> None:
        if self.churn is None:
            return
        if self._bulk_churn is None:
            # Unrecognized model: the object API goes through the
            # add_node/remove_node overrides, which queue the deltas.
            self.churn.apply(self)
            return
        state = self.state
        departed, joined = plan.churn(self._bulk_churn, state, self._cycle)
        if len(joined):
            state.value[joined] = self._draw_initial_values(len(joined))
        updates = []
        if len(departed):
            departed = np.asarray(departed, dtype=np.int64)
            updates.append(("alive", departed, np.array(state.alive[departed])))
        if len(joined):
            joined = np.asarray(joined, dtype=np.int64)
            for column in protocol.REPLICATED_COLUMNS:
                updates.append(
                    (column, joined, np.array(getattr(state, column)[joined]))
                )
        self._queue_updates(updates)
        if len(departed) or len(joined):
            self.trace.record(
                self._cycle, "churn", None, (len(departed), len(joined))
            )

    def add_node(self, attribute: float):
        view = super().add_node(attribute)
        row = np.array([view.node_id], dtype=np.int64)
        self._queue_updates(
            [
                (column, row, np.array(getattr(self.state, column)[row]))
                for column in protocol.REPLICATED_COLUMNS
            ]
        )
        return view

    def remove_node(self, node_id: int) -> None:
        was_alive = self.state.is_alive(node_id)
        super().remove_node(node_id)
        if was_alive:
            row = np.array([node_id], dtype=np.int64)
            self._queue_updates([("alive", row, np.array([False]))])

    # ------------------------------------------------------------------
    # Rebalancing: the migration protocol over the wire
    # ------------------------------------------------------------------

    # The PR-4 pack/barrier/unpack row migration itself is inherited
    # from ShardedSimulation._apply_rebalance; over the transport the
    # staging buffer is relayed through the driver (a genuine
    # shard-to-shard state transfer), and only these hooks differ.

    def _after_pack(self, name: str, new_size: int) -> None:
        """The driver keeps the replicated columns consistent too:
        install each one straight from the assembled staging buffer."""
        if name not in protocol.REPLICATED_COLUMNS:
            return
        column = getattr(self.state, name)
        stage = self._executor().scratch["mig_bytes"]
        usable = (len(stage) // column.dtype.itemsize) * column.dtype.itemsize
        column[:new_size] = stage[:usable].view(column.dtype)[:new_size]

    def _unpack_spans(self, name: str, new_bounds, new_size: int):
        """Replicated columns unpack the full compacted range on every
        worker (all replicas must hold them); heavy columns unpack
        shard-owned ranges as in the sharded backend."""
        if name in protocol.REPLICATED_COLUMNS:
            return [(0, new_size)] * len(new_bounds)
        return new_bounds

    def _commit_payloads(self, new_bounds, old_size: int, new_size: int):
        """The distributed commit carries the sizes: every replica
        rewrites its liveness column (shared memory made that a single
        driver write on the sharded backend)."""
        return [
            {"lo": lo, "hi": hi, "old_size": old_size, "new_size": new_size}
            for lo, hi in new_bounds
        ]

    # ------------------------------------------------------------------
    # Driver-side state sync (tests, compatibility API)
    # ------------------------------------------------------------------

    def sync_state(self) -> ArrayState:
        """Pull every shard's heavy columns into the driver's local
        state copy, making it a full exact replica (the replicated
        columns are always current).  Used by the parity tests and any
        tooling that wants to read views/counters directly."""
        executor = self._executor()
        for reply in self._broadcast(executor, "dump_state"):
            lo, stop = reply["lo"], reply["stop"]
            for name, values in reply["columns"].items():
                getattr(self.state, name)[lo:stop] = values
        return self.state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.hosts if self.hosts is not None else self.transport
        return (
            f"DistributedSimulation(nodes={self.live_count}, cycle={self.now}, "
            f"protocol={self.protocol!r}, workers={self.workers}, "
            f"transport={where!r})"
        )
