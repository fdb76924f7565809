"""The distributed (multi-host) backend: the bulk driver on a message
transport.

:class:`DistributedSimulation` is a constructor, not a second driver:
it validates the transport options and hands the one bulk driver
(:class:`~repro.vectorized.simulation.VectorSimulation` — central
:class:`~repro.bulk.CyclePlan`, churn, rebalance bookkeeping, every
metric) a :class:`_MessageExecutor` to run on.  Where the in-process
executor's threads share the driver's arrays and scratch, this one
puts an explicit message transport: length-prefixed framed messages
over TCP sockets (or the in-process loopback transport).  Nothing is
shared between driver and workers; everything
a phase needs travels in the command message, and everything it
produces travels back in the reply:

* **plan down** — each command ships the scratch blocks it consumes
  (random draws, proposal lists, wave pairings);
* **results up** — each reply carries the scratch segments the worker
  wrote and the replicated-column deltas it produced;
* **wave-boundary sync** — the barrier of the in-process executor
  becomes an explicit exchange: the driver merges each wave's deltas
  and re-broadcasts them with the next command, and cross-shard view
  exchanges ship the partner's rows both ways (``fetch_rows`` → swap
  → guest-row return, see :mod:`repro.distributed.protocol`);
* **replication** — the driver and every worker hold the light columns
  (:data:`~repro.distributed.protocol.REPLICATED_COLUMNS`) in full;
  rows the driver writes (churn, the compatibility API) ride the next
  command as deltas.  That is also why no metric crosses the wire:
  ``attribute`` / ``value`` / ``alive`` are always current on the
  driver, and the one shard-owned column a metric reads
  (``obs_total``) is pulled on demand through ``dump_state``;
* **rebalancing** — the one row migration
  (:func:`repro.distributed.migration.migrate_rows`: per-column pack →
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

from repro.bulk.blocks import row_blocks
from repro.bulk.rebalance import rebalance_bounds
from repro.distributed import protocol
from repro.distributed.framing import DEFAULT_MAX_FRAME, TransportError
from repro.distributed.transport import (
    TRANSPORTS,
    connect_remote,
    launch_local_tcp,
    launch_loopback,
)
from repro.distributed.migration import migrate_rows
from repro.vectorized.executor import Executor, grown_size, worker_count
from repro.vectorized.simulation import VectorSimulation
from repro.vectorized.state import ArrayState, column_spec, take_rows

__all__ = ["DistributedSimulation", "capacity_with_spare"]


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


class MessageScratch:
    """Driver-side named scratch (grow-on-demand), with (re)allocation
    notices pushed to every worker so their local mirrors stay
    layout-compatible — the message twin of
    :class:`~repro.vectorized.executor.InlineScratch`, except that a
    buffer keeps its name and place for the whole run: every worker
    mirrors the layout by name and replies merge into it by name, so
    handing the memory out again each phase (:meth:`begin_phase` is a
    no-op here) would re-announce the layout to every worker per phase
    to save scratch that is a copy of nothing the workers hold."""

    def __init__(self, on_remap) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._on_remap = on_remap

    def begin_phase(self) -> None:
        pass

    @property
    def used(self) -> int:
        return sum(array.nbytes for array in self._arrays.values())

    def ensure(self, name: str, dtype, size: int, keep: bool = False) -> np.ndarray:
        dtype = np.dtype(dtype)
        array = self._arrays.get(name)
        if array is not None and len(array) >= size and array.dtype == dtype:
            return array
        new_size = grown_size(size, 0 if array is None else len(array))
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


class _MessageExecutor(Executor):
    """The transport-backed executor: same ``run(command, payloads)``
    surface the cycle's phases dispatch through, implemented as framed
    message exchanges instead of calls over shared arrays.

    Workers are launched (or connected to) before the state is
    allocated and receive their replicas when the populated state is
    attached — churn and rebalancing of the very first cycle already
    need consistent replicas.  :meth:`close` pulls the shards' columns
    down first, so the driver's private state stays an exact replica
    for post-close reads, then refuses further commands: a fresh set of
    workers would have to be rebuilt from it."""

    replicated = protocol.REPLICATED_COLUMNS
    addresses_subsets = True  # fetch_rows hits only the partner shards

    def __init__(
        self, workers, hosts, transport, spare_capacity, max_frame, connect_timeout
    ) -> None:
        self.workers = workers
        self.hosts = hosts
        self.transport = transport
        self.max_frame = int(max_frame)
        self.connect_timeout = float(connect_timeout)
        self._spare_capacity = spare_capacity
        self._remaps: List[list] = [[] for _ in range(workers)]
        self._updates: List[list] = [[] for _ in range(workers)]
        self.scratch = MessageScratch(self._queue_remap)
        self._workers = []
        self._telemetry = None  # set by attach: the workers hold replicas
        self._closed = False

    def allocate(self, view_size: int, size: int, window) -> ArrayState:
        # Workers first: a forked worker keeps every page its parent
        # held at the fork, so it must not be forked from a driver that
        # already holds the populated state.
        if self.hosts is not None:
            self._workers = connect_remote(
                self.hosts, self.max_frame, self.connect_timeout
            )
        elif self.transport == "loopback":
            self._workers = launch_loopback(self.workers, self.max_frame)
        else:
            self._workers = launch_local_tcp(
                self.workers, self.max_frame, self.connect_timeout
            )
        for handle in self._workers:
            hello = handle.hello  # consumed by the launcher
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                raise RuntimeError(
                    f"distributed worker {handle.index} sent an unexpected "
                    f"handshake: {hello!r}"
                )
        capacity = capacity_with_spare(size, self._spare_capacity)
        self.state = ArrayState(view_size, capacity=capacity)
        self.state.fixed_capacity = True  # the replicas cannot grow
        if window is not None:
            self.state.enable_window(window)
        return self.state

    def attach(self, geometry, telemetry) -> None:
        self._telemetry = telemetry
        state = self.state
        self.bounds = rebalance_bounds(state.size, self.workers, state.capacity)
        heavy = protocol.heavy_columns(state)
        for handle, (lo, hi) in zip(self._workers, self.bounds):
            # The replicated columns whole, the heavy ones as the
            # owner's rows only — (start, view) blocks of the driver's
            # own arrays, which the framing sends without a copy.
            columns = {}
            for name in column_spec(state.view_size, state.window):
                column = getattr(state, name)
                span = (lo, min(hi, state.size)) if name in heavy else (0, state.size)
                columns[name] = [
                    (start, column[start:stop])
                    for start, stop in row_blocks(column.strides[0], *span)
                ]
            handle.endpoint.send(
                {
                    "type": "init",
                    "index": handle.index,
                    "lo": lo,
                    "hi": hi,
                    "view_size": state.view_size,
                    "window": state.window,
                    "size": state.size,
                    "capacity": state.capacity,
                    "partition": geometry.partition,
                    "columns": columns,
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

    def replicate(self, rows, columns=None) -> None:
        """Queue the driver-written ``rows`` of the replicated
        ``columns`` for every worker; they ride the next command."""
        if len(rows) == 0:
            return
        rows = np.asarray(rows, dtype=np.int64)
        for column in self.replicated if columns is None else columns:
            values = np.array(getattr(self.state, column)[rows])
            for queue in self._updates:
                queue.append((column, rows, values))

    def push_updates(self, updates) -> None:
        """Route the state deltas of a reply: replicated columns to the
        driver's state and every worker; heavy (view) rows to their
        owner only."""
        for column, rows, values in updates:
            if column in self.replicated:
                getattr(self.state, column)[rows] = values
                if column == "alive":
                    self.state._live_dirty = True
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
            "size": self.state.size,
            "maybe_dead": self.state.maybe_dead_entries,
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
                for name, span in slicer(payload, self.state).items():
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
                    # (deserialize/compute/serialize).
                    result, outs, upds = pickle.loads(reply[1])
                    results.append(result)
                    outputs.extend(outs)
                    updates.extend(upds)
                    worker_spans.append((index, reply[2]))
                    telemetry.count(f"mem.w{index}.peak_mb", reply[3])
                else:
                    results.append(reply[1])
                    outputs.extend(reply[2])
                    updates.extend(reply[3])
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
            # Same accounting as the in-process executor: the exchange
            # span minus the workers' self-reported busy time is wire +
            # barrier waiting; the endpoint byte counters attribute
            # traffic per command (incl. the pickled scratch inputs).
            span_ns = perf_counter_ns() - start
            sent1, recv1, frames1 = self._wire_totals()
            telemetry.book_command(command, start, span_ns, worker_spans)
            telemetry.count("wire.sent_bytes", sent1 - sent0)
            telemetry.count("wire.recv_bytes", recv1 - recv0)
            telemetry.count("wire.frames", frames1 - frames0)
            telemetry.count(f"wire.{command}.sent_bytes", sent1 - sent0)
            telemetry.count(f"wire.{command}.recv_bytes", recv1 - recv0)
        return results

    def check_open(self) -> None:
        if self._closed:
            # Fresh workers would be built from the driver's stale
            # heavy columns and silently diverge — refuse.
            raise RuntimeError(
                "this distributed simulation is closed; build a new one "
                "to run further cycles"
            )

    def run(self, command: str, payloads) -> list:
        self.check_open()
        if command == "refresh_swap":
            return self._run_refresh_swap(payloads)
        return self._exchange(command, list(enumerate(payloads)))

    def _run_refresh_swap(self, payloads) -> list:
        """One view-exchange wave: fetch the cross-shard partners' view
        rows from their owners, ship them to the initiators' shards as
        guests, swap, and let the reply's guest updates route the
        rewritten rows back — the wave-boundary sync, as messages."""
        wave_b = self.scratch["wave_b"]
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

    def compact(self, decision) -> None:
        migrate_rows(self, decision)

    def sync(self, columns=None) -> None:
        """Pull the shards' heavy ``columns`` (default: all of them)
        into the driver's state, one row block of one column per
        command — each owner answers its part of the block, so no more
        than a block is ever in flight.  After :meth:`close` there is
        nobody to ask and nothing to pull: the final sync already ran."""
        if not self._workers:
            return
        if any(handle.failed for handle in self._workers):
            raise RuntimeError("a distributed worker died; its shard is lost")
        state = self.state
        for name in protocol.heavy_columns(state) if columns is None else columns:
            column = getattr(state, name)
            for start, stop in row_blocks(column.strides[0], 0, state.size):
                parts = [
                    (index, {"column": name, "lo": max(lo, start), "hi": min(hi, stop)})
                    for index, (lo, hi) in enumerate(self.bounds)
                    if lo < stop and start < hi
                ]
                replies = self._exchange("dump_state", parts)
                for (_index, part), rows in zip(parts, replies):
                    column[part["lo"] : part["hi"]] = rows

    def close(self) -> None:
        if self._closed:
            return
        try:
            if self._workers and self._telemetry is not None:
                with self._telemetry.span("close/sync", hwm=True):
                    self.sync()
        except RuntimeError:
            pass  # a worker is already gone; keep what the driver has
        finally:
            self._closed = True
            for handle in self._workers:
                handle.stop()
            self._workers = []
            self.scratch.close()


class DistributedSimulation(VectorSimulation):
    """A :class:`~repro.vectorized.simulation.VectorSimulation` whose
    shards live behind a message transport instead of in this process —
    the same plan, phases and kernels, so results are bitwise identical
    to the vectorized and sharded backends at every worker count.

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
        default ``max(1024, size // 4)`` (:func:`capacity_with_spare`).
    max_frame, connect_timeout:
        Transport limits: per-message byte cap and worker-connect
        timeout.

    Workers are started eagerly (at construction) and released by
    :meth:`close`, the context-manager exit, or garbage collection.
    ``close`` first pulls the shards' columns down, so state reads and
    metrics keep working on a closed simulation; ``run`` raises.
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
        self.workers = worker_count(workers)
        self.hosts = hosts
        self.transport = transport
        executor = _MessageExecutor(
            self.workers, hosts, transport, spare_capacity, max_frame, connect_timeout
        )
        super().__init__(size, partition, executor=executor, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.hosts if self.hosts is not None else self.transport
        return (
            f"DistributedSimulation(nodes={self.live_count}, cycle={self.now}, "
            f"protocol={self.protocol!r}, workers={self.workers}, "
            f"transport={where!r})"
        )
