"""The row migration of a rebalance, for shards that live in other
processes: the driver's loop and the three worker commands it drives.

Where the driver's arrays are the state, a planned compaction
(:mod:`repro.bulk.rebalance`) is an in-place relabeling
(:func:`~repro.bulk.rebalance.compact_state`).  Behind a message
transport every worker owns the heavy columns of its own row range, so
the same permutation becomes a **row migration**: :func:`migrate_rows`
moves each column one row block at a time through barrier-separated
``rebalance_pack`` / ``rebalance_unpack`` rounds over a staging buffer
the transport relays, then installs the recomputed shard boundaries
with ``rebalance_commit``.  :data:`DISPATCH` is the full table a
transport worker (:mod:`repro.distributed.worker`) dispatches through:
the bulk cycle's own kernels (:mod:`repro.vectorized.kernels`) plus
those three.  There is no metric kernel: the driver computes every
metric from columns it holds itself.
"""

from __future__ import annotations

import numpy as np

from repro.bulk.blocks import block_rows, row_blocks
from repro.bulk.rebalance import migration_columns, rebalance_bounds
from repro.vectorized.cycle import shard_run_payloads
from repro.vectorized.kernels import DISPATCH as CYCLE_DISPATCH
from repro.vectorized.kernels import ShardContext
from repro.vectorized.state import EMPTY

__all__ = ["DISPATCH", "migrate_rows"]


def migrate_rows(executor, decision) -> None:
    """Execute one planned compaction as a row migration between the
    shards of ``executor`` (a message transport).

    Each column moves one :func:`~repro.bulk.blocks.row_blocks`
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
    nbytes = max(
        min(block_rows(col.strides[0]), new_size) * col.strides[0]
        for col in columns.values()
    )
    stage = scratch.ensure("mig_bytes", np.uint8, -(-nbytes // 8) * 8)
    new_bounds = rebalance_bounds(new_size, shards, state.capacity)
    for name, column in columns.items():
        replicated = name in executor.replicated
        for base, stop in row_blocks(column.strides[0], 0, new_size):
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


# ----------------------------------------------------------------------
# The worker commands
# ----------------------------------------------------------------------


def _stage_window(ctx: ShardContext, column: str, row: int, count: int):
    """``(column_array, staging_window)`` where the window is the
    ``[row, row + count)`` rows of the byte staging buffer,
    viewed with the column's dtype and row width."""
    col = getattr(ctx.state, column)
    width = col.shape[1] if col.ndim == 2 else 1
    stage = ctx.scratch["mig_bytes"]
    usable = (len(stage) // col.dtype.itemsize) * col.dtype.itemsize
    typed = stage[:usable].view(col.dtype)
    window = typed[row * width : (row + count) * width]
    return col, window.reshape(count, width) if col.ndim == 2 else window


def cmd_rebalance_pack(
    ctx: ShardContext, column: str, offset: int, count: int, base: int
) -> dict:
    """Migration pack phase: gather the live rows this shard owns
    (one contiguous run of the planned permutation, cut by the driver
    within the block of new rows that starts at ``base``) into the
    staging buffer at the rows' *new* positions within the block."""
    if count:
        col, stage = _stage_window(ctx, column, offset, count)
        rows = ctx.scratch["mig_live"][base + offset : base + offset + count]
        # Clip mode gathers straight into the staging rows (the default
        # mode bounces through a block-sized copy); the ids are valid.
        np.take(col, rows, axis=0, out=stage, mode="clip")
    return {}


def cmd_rebalance_unpack(
    ctx: ShardContext, column: str, lo: int, hi: int, base: int
) -> dict:
    """Migration unpack phase: write the new rows ``[lo, hi)`` — this
    shard's part of the block that starts at ``base`` — back from
    staging.  View ids relabel through the migration map (entries
    pointing at dead rows purge to ``EMPTY``); view ages zero where the
    already-unpacked ids came up empty — together the exact effect of
    :func:`repro.bulk.rebalance.remap_views` on the compacted block."""
    count = hi - lo
    if count <= 0:
        return {}
    col, stage = _stage_window(ctx, column, lo - base, count)
    if column == "view_ids":
        view = stage.copy()
        occupied = view != EMPTY
        view[occupied] = ctx.scratch["mig_map"][view[occupied]]
        col[lo:hi] = view
    elif column == "view_ages":
        ages = stage.copy()
        ages[ctx.state.view_ids[lo:hi] == EMPTY] = 0
        col[lo:hi] = ages
    else:
        col[lo:hi] = stage
    return {}


def cmd_rebalance_commit(ctx: ShardContext, lo: int, hi: int) -> dict:
    """Adopt the recomputed shard boundaries (and drop any cycle cache
    carrying pre-migration row ids)."""
    ctx.lo, ctx.hi = int(lo), int(hi)
    ctx.cache = {}
    return {"lo": ctx.lo, "hi": ctx.hi}


DISPATCH = {
    **CYCLE_DISPATCH,
    "rebalance_pack": cmd_rebalance_pack,
    "rebalance_unpack": cmd_rebalance_unpack,
    "rebalance_commit": cmd_rebalance_commit,
}
