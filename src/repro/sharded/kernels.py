"""Shard-only kernels: the row migration of a rebalance.

The bulk cycle's own kernels live with the cycle
(:mod:`repro.vectorized.kernels`); a worker process serves those plus
the three commands here, which exist only because the state is split
across processes — the pack / unpack / commit rounds of a planned
compaction (:mod:`repro.bulk.rebalance`, driven by
:func:`repro.sharded.driver.migrate_rows`).  There is no metric
kernel: the driver computes every metric from columns it holds itself.
:data:`DISPATCH` is the full table a pool worker
(:mod:`repro.sharded.worker`) or a transport worker
(:mod:`repro.distributed.worker`) dispatches through.
"""

from __future__ import annotations

import numpy as np

from repro.vectorized.kernels import DISPATCH as CYCLE_DISPATCH
from repro.vectorized.kernels import ShardContext
from repro.vectorized.state import EMPTY

__all__ = ["DISPATCH"]


# ----------------------------------------------------------------------
# Shard load rebalancing (dead-row compaction / row migration)
# ----------------------------------------------------------------------


def _stage_window(ctx: ShardContext, column: str, row: int, count: int):
    """``(column_array, staging_window)`` where the window is the
    ``[row, row + count)`` rows of the shared byte staging buffer,
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
