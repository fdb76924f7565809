"""Worker loop of the distributed backend.

A worker owns one shard of the node-id space but holds a full-capacity
*local replica* of the array state (no shared memory): the replicated
light columns are kept consistent by the driver's delta messages, the
heavy columns are authoritative only inside the worker's own row range
(see :mod:`repro.distributed.protocol`) — and only that range of them
is shipped at init, so the rest of the window ring is never touched and
costs no memory.  The init message is *consumed*: its column blocks are
released as they land in the replica; nothing of it outlives the build.
It serves the same shard kernels as the in-process executor's threads,
plus the row-migration commands
(:data:`repro.distributed.migration.DISPATCH`) and a few transport-only
ones:

* ``fetch_rows`` — pack this shard's view rows another shard needs for
  a cross-shard exchange wave (the request half of the guest-row
  protocol);
* ``refresh_swap`` — install received guest rows, run the wave swap,
  and return the rewritten guest rows to be routed back to their
  owners;
* ``rebalance_commit`` — the migration commit, extended to rewrite the
  replicated liveness column (every replica must apply what the
  driver wrote into its own);
* ``dump_state`` — return one row block of one column, as a view (the
  driver's ``sync_state``, its final sync at ``close``, and the
  ``obs_total`` pull of ``confident_fraction`` — the only metric that
  reads a shard-owned column — walk ``(column, row block)``).

Message envelope (driver -> worker)::

    (command, payload, meta)

``meta`` carries scratch (re)allocation notices, the run-partitioned
scratch-input slices this worker consumes (``{name: (offset, run)}``,
see :data:`repro.distributed.protocol.INPUT_SLICERS`), pending state
updates, and the driver's ``size`` / ``maybe_dead_entries`` metadata.
The plain reply is ``("ok", result, outputs, updates)``.  When
``meta["detail"]`` is set (the driver is profiling) the worker runs its
own :class:`~repro.obs.telemetry.Telemetry` and replies ``("ok",
reply_pickle_bytes, spans, peak_mb)``: the pickled ``(result, outputs,
updates)`` triple, a sub-span dict (``deserialize`` — meta/input
application, ``compute`` — the command itself, ``serialize`` — reply
pickling), from which the driver derives wire + barrier wait as the
rest of its exchange span, and the worker's own peak RSS so far.
Errors reply ``("err", traceback)``; ``None`` shuts the worker down.

Start a standalone (multi-host) worker with::

    python -m repro.distributed.worker --listen 0.0.0.0:7077
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import traceback
from typing import Dict, Optional, Sequence

import numpy as np

from repro.distributed import protocol
from repro.distributed.framing import DEFAULT_MAX_FRAME, ConnectionClosed
from repro.distributed.migration import DISPATCH
from repro.distributed.transport import Endpoint, parse_host_port
from repro.obs.telemetry import Telemetry, resident_mb
from repro.vectorized.kernels import ShardContext
from repro.vectorized.metrics import PartitionArrays
from repro.vectorized.state import EMPTY, ArrayState, column_spec, put_rows, take_rows

__all__ = ["serve_endpoint", "tcp_worker_main", "main"]


class MessageScratchMirror:
    """Worker-side scratch: plain local arrays allocated from the
    driver's (re)allocation notices and refreshed from shipped inputs."""

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def apply_remaps(self, remaps) -> None:
        for name, dtype, size in remaps:
            self._arrays[name] = np.zeros(size, dtype=np.dtype(dtype))

    def apply_inputs(self, inputs) -> None:
        for name, values in inputs.items():
            array = self._arrays[name]
            if isinstance(values, tuple):
                # Run-partitioned input: (offset, run) lands this
                # worker's slice at the driver's scratch position.
                offset, run = values
                array[offset : offset + len(run)] = run
            else:
                array[: len(values)] = values

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def close(self) -> None:
        self._arrays.clear()


def _allocate_state(init: dict) -> ArrayState:
    """Build the full-capacity local replica, consuming the init
    message's column blocks as they land: each ``(start, rows)`` block
    is released once copied, and ``init`` keeps no ``"columns"``."""
    capacity = int(init["capacity"])
    window = init["window"]
    columns = init.pop("columns")
    arrays = {}
    for name, (dtype, width) in column_spec(init["view_size"], window).items():
        shape = (capacity,) if width == 1 else (capacity, width)
        if name == "view_ids":
            array = np.full(shape, EMPTY, dtype=dtype)
        else:
            array = np.zeros(shape, dtype=dtype)
        blocks = columns.pop(name)
        while blocks:
            start, rows = blocks.pop()
            array[start : start + len(rows)] = rows
        arrays[name] = array
    return ArrayState.from_arrays(
        init["view_size"],
        arrays,
        size=init["size"],
        window=window,
        fixed_capacity=True,
    )


def _blank_heavy_rows(state: ArrayState, lo: int, hi: int) -> None:
    """Initialize appended rows' heavy columns exactly as
    ``ArrayState.add_nodes`` does (the replicated columns arrive as
    update messages)."""
    state.view_ids[lo:hi] = EMPTY
    state.view_ages[lo:hi] = 0
    state.obs_le[lo:hi] = 0.0
    state.obs_total[lo:hi] = 0.0
    if state.window is not None:
        state.win_bits[lo:hi] = 0
        state.win_pos[lo:hi] = 0
        state.win_len[lo:hi] = 0


def _apply_updates(state: ArrayState, updates) -> None:
    for column, rows, values in updates:
        put_rows(getattr(state, column), rows, values)
        if column == "alive":
            state._live_dirty = True


def _apply_meta(state: ArrayState, scratch: MessageScratchMirror, meta) -> None:
    """Apply one envelope's metadata: scratch remaps/inputs, size
    sync, pending updates, liveness hint."""
    scratch.apply_remaps(meta["remaps"])
    scratch.apply_inputs(meta["inputs"])
    size = meta["size"]
    if size != state.size:
        if size > state.size:
            _blank_heavy_rows(state, state.size, size)
        state.size = size
        state._live_dirty = True
    _apply_updates(state, meta["updates"])
    state.maybe_dead_entries = meta["maybe_dead"]


# ----------------------------------------------------------------------
# Transport-only commands
# ----------------------------------------------------------------------


def _handle_refresh_swap(ctx: ShardContext, payload: dict):
    """Wave swap with guest rows: adopt the shipped partner views, run
    the shared kernel, return the partners' rewritten rows."""
    guests = payload.get("guests")
    if guests is not None:
        rows, guest_ids, guest_ages = guests
        put_rows(ctx.state.view_ids, rows, guest_ids)
        put_rows(ctx.state.view_ages, rows, guest_ages)
    result = DISPATCH["refresh_swap"](
        ctx, offset=payload["offset"], count=payload["count"]
    )
    updates = []
    if guests is not None and len(rows):
        rows = np.array(rows)
        updates = [
            ("view_ids", rows, take_rows(ctx.state.view_ids, rows)),
            ("view_ages", rows, take_rows(ctx.state.view_ages, rows)),
        ]
    return result, [], updates


def _handle_fetch_rows(ctx: ShardContext, payload: dict):
    rows = payload["rows"]
    result = {
        "rows": np.array(rows),
        "view_ids": take_rows(ctx.state.view_ids, rows),
        "view_ages": take_rows(ctx.state.view_ages, rows),
    }
    return result, [], []


def _handle_rebalance_commit(ctx: ShardContext, payload: dict):
    """Adopt the post-migration liveness and boundaries.  The compacted
    size already arrived through the envelope metadata: rows below it
    are live, and no row at or past a state's size ever is."""
    state = ctx.state
    state.alive[: state.size] = True
    state.alive[state.size :] = False
    state._live_dirty = True
    return DISPATCH["rebalance_commit"](ctx, **payload), [], []


def _handle_dump_state(ctx: ShardContext, payload: dict):
    """Rows ``[lo, hi)`` of one column — a view, not a copy: the reply
    is on the wire before the next command can touch the rows."""
    rows = getattr(ctx.state, payload["column"])[payload["lo"] : payload["hi"]]
    return rows, [], []


_HANDLERS = {
    "refresh_swap": _handle_refresh_swap,
    "fetch_rows": _handle_fetch_rows,
    "rebalance_commit": _handle_rebalance_commit,
    "dump_state": _handle_dump_state,
}


def _execute(ctx: ShardContext, command: str, payload: dict):
    handler = _HANDLERS.get(command)
    if handler is not None:
        return handler(ctx, payload)
    result = DISPATCH[command](ctx, **payload)
    outputs = protocol.collect_outputs(ctx, command, payload, result)
    updates = protocol.collect_updates(ctx, command, payload, result)
    return result, outputs, updates


# ----------------------------------------------------------------------
# Serve loop
# ----------------------------------------------------------------------


def serve_endpoint(endpoint: Endpoint) -> None:
    """Handshake, build the replica, then serve commands until the
    driver says stop (or the connection drops)."""
    state = None
    scratch = MessageScratchMirror()
    telemetry = Telemetry(engine="dist-worker")
    try:
        endpoint.send({"type": "hello", "pid": os.getpid()})
        init = endpoint.recv()
        if init is None:  # the driver gave up before it had a state
            return
        state = _allocate_state(init)
        geometry = PartitionArrays(init["partition"])
        ctx = ShardContext(state, init["lo"], init["hi"], geometry, scratch)
        endpoint.send(("ok", {"index": init["index"]}, [], []))
        while True:
            try:
                message = endpoint.recv()
            except ConnectionClosed:
                break
            if message is None:
                break
            command, payload, meta = message
            try:
                if meta.get("detail"):
                    with telemetry.span("deserialize"):
                        _apply_meta(state, scratch, meta)
                    with telemetry.span("compute"):
                        reply = _execute(ctx, command, payload)
                    with telemetry.span("serialize"):
                        blob = pickle.dumps(reply, protocol=5)
                    endpoint.send(
                        ("ok", blob, telemetry.take_spans(), resident_mb(peak=True))
                    )
                else:
                    _apply_meta(state, scratch, meta)
                    endpoint.send(("ok",) + _execute(ctx, command, payload))
            except BaseException:
                telemetry.take_spans()  # drop partial sub-spans
                endpoint.send(("err", traceback.format_exc()))
    except (ConnectionClosed, BrokenPipeError, OSError):
        pass  # driver went away; nothing left to serve
    finally:
        scratch.close()
        state = None
        endpoint.close()


def tcp_worker_main(address, max_frame: int = DEFAULT_MAX_FRAME) -> None:
    """Entry point of a locally spawned TCP worker process: connect
    back to the driver's listener and serve."""
    sock = socket.create_connection(tuple(address))
    serve_endpoint(Endpoint(sock, max_frame))


def _listen_and_serve(spec: str, max_frame: int) -> None:
    """Accept drivers one after another (a driver session ends when it
    closes or shuts the worker down) until the process is killed — so
    one standing worker serves e.g. every sub-run of a figure sweep."""
    host, port = parse_host_port(spec)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(1)
        print(f"repro.distributed worker listening on {host}:{port}", flush=True)
        while True:
            sock, peer = listener.accept()
            print(f"driver connected from {peer[0]}:{peer[1]}", flush=True)
            serve_endpoint(Endpoint(sock, max_frame))
            print("driver session ended; listening again", flush=True)
    finally:
        listener.close()


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed.worker",
        description="Standalone shard worker for the distributed backend.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="bind here and wait for the driver to connect "
        "(use with SlicingService(..., hosts=[...]))",
    )
    group.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="connect out to a driver's listener",
    )
    parser.add_argument(
        "--max-frame",
        type=int,
        default=DEFAULT_MAX_FRAME,
        help="per-message size cap in bytes",
    )
    args = parser.parse_args(argv)
    if args.listen:
        _listen_and_serve(args.listen, args.max_frame)
    else:
        tcp_worker_main(parse_host_port(args.connect), args.max_frame)


if __name__ == "__main__":
    main()
