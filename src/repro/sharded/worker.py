"""Worker-process entry point for the sharded backend.

A worker attaches to the driver's shared-memory state blocks, builds a
full-array :class:`~repro.vectorized.state.ArrayState` view plus a
:class:`~repro.vectorized.kernels.ShardContext` for its row range, and
then serves commands over its pipe until told to stop.  Commands are
small control tuples — all bulk data rides in shared memory — so a
cycle's IPC cost is a handful of sub-millisecond round trips.

Message format (driver -> worker)::

    (command, payload_dict, remaps, size, maybe_dead_entries, detail)

``remaps`` are scratch re-attachment notices (see
:class:`~repro.sharded.shm.SharedScratch`); ``size`` and
``maybe_dead_entries`` replicate the driver's state metadata, which
only the driver mutates (churn and rebalancing are planned centrally).
With ``detail`` false (the unprofiled path) the worker replies
``("ok", result_dict)``.  With ``detail`` true the worker runs its own
:class:`~repro.obs.telemetry.Telemetry` and replies ``("ok",
result_pickle_bytes, spans, peak_mb)`` where ``spans`` is the
per-command sub-span dict (``attach`` — remap/size sync, ``kernel`` —
the dispatch itself, ``reply`` — result pickling) and ``peak_mb`` the
worker's own peak RSS so far; the driver books it
(:meth:`~repro.obs.telemetry.Telemetry.book_command`): the worker's
busy time is the sum of the sub-spans, its barrier wait the rest of
the dispatch span.
Either way an error replies ``("err", traceback_text)``; a ``None``
message shuts the worker down.

The shard's row range is *not* fixed for the worker's lifetime: a
rebalance (``rebalance_pack`` / ``rebalance_unpack`` rounds followed
by ``rebalance_commit`` — see :mod:`repro.bulk.rebalance`) migrates
rows between shards and installs recomputed boundaries in the
:class:`~repro.vectorized.kernels.ShardContext`.
"""

from __future__ import annotations

import pickle
import traceback

from repro.obs.telemetry import Telemetry, resident_mb
from repro.sharded.kernels import DISPATCH
from repro.sharded.shm import SharedBlock, WorkerScratch
from repro.vectorized.kernels import ShardContext
from repro.vectorized.metrics import PartitionArrays
from repro.vectorized.state import ArrayState

__all__ = ["worker_main"]


def worker_main(conn, init: dict) -> None:
    """Serve shard commands until the pipe closes or sends ``None``."""
    blocks = {
        name: SharedBlock(shape, dtype, name=shm_name, create=False)
        for name, (shm_name, shape, dtype) in init["blocks"].items()
    }
    state = ArrayState.from_arrays(
        init["view_size"],
        {name: block.array for name, block in blocks.items()},
        size=init["size"],
        window=init["window"],
        fixed_capacity=True,
    )
    geometry = PartitionArrays(init["partition"])
    scratch = WorkerScratch()
    ctx = ShardContext(state, init["lo"], init["hi"], geometry, scratch)
    telemetry = Telemetry(engine="shard-worker")
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            command, payload, remaps, size, maybe_dead, detail = message
            try:
                if detail:
                    with telemetry.span("attach"):
                        scratch.apply_remaps(remaps)
                        if state.size != size:
                            state.size = size
                            state._live_dirty = True
                        state.maybe_dead_entries = maybe_dead
                    with telemetry.span("kernel"):
                        result = DISPATCH[command](ctx, **payload)
                    with telemetry.span("reply"):
                        blob = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                    conn.send(
                        ("ok", blob, telemetry.take_spans(), resident_mb(peak=True))
                    )
                else:
                    scratch.apply_remaps(remaps)
                    if state.size != size:
                        state.size = size
                        state._live_dirty = True
                    state.maybe_dead_entries = maybe_dead
                    conn.send(("ok", DISPATCH[command](ctx, **payload)))
            except BaseException:
                telemetry.take_spans()  # drop partial sub-spans
                conn.send(("err", traceback.format_exc()))
    finally:
        # Release views before unmapping, then unmap (driver unlinks).
        ctx.cache.clear()
        scratch.close()
        state = None
        for block in blocks.values():
            block.close()
        conn.close()
