"""Shard-only kernels: row migration and tree-reduced metrics.

The bulk cycle's own kernels live with the cycle
(:mod:`repro.vectorized.kernels`); a worker process serves those plus
the commands here, which exist only because the state is split across
processes — the pack/unpack rounds of a rebalance
(:mod:`repro.bulk.rebalance`) and the per-shard halves of the metric
reductions (:mod:`repro.sharded.metrics`).  :data:`DISPATCH` is the
full table a pool worker (:mod:`repro.sharded.worker`) or a transport
worker (:mod:`repro.distributed.worker`) dispatches through.
"""

from __future__ import annotations

import numpy as np

from repro.sharded.metrics import cross_shard_ranks
from repro.vectorized import metrics as vmetrics
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


def cmd_rebalance_pack(ctx: ShardContext, column: str, offset: int, count: int) -> dict:
    """Migration pack phase: gather the live rows this shard owns
    (one contiguous run of the planned permutation, cut by the driver)
    into the staging buffer at the rows' *new* positions."""
    if count:
        col, stage = _stage_window(ctx, column, offset, count)
        rows = ctx.scratch["mig_live"][offset : offset + count]
        stage[...] = col[rows]
    return {}


def cmd_rebalance_unpack(
    ctx: ShardContext, column: str, lo: int, hi: int, new_size: int
) -> dict:
    """Migration unpack phase: write this shard's *new* row range back
    from staging.  View ids relabel through the migration map (entries
    pointing at dead rows purge to ``EMPTY``); view ages zero where the
    already-unpacked ids came up empty — together the exact effect of
    :func:`repro.bulk.rebalance.remap_views` on the compacted block."""
    stop = min(hi, new_size)
    count = stop - lo
    if count <= 0:
        return {}
    col, stage = _stage_window(ctx, column, lo, count)
    if column == "view_ids":
        view = stage.copy()
        occupied = view != EMPTY
        view[occupied] = ctx.scratch["mig_map"][view[occupied]]
        col[lo:stop] = view
    elif column == "view_ages":
        ages = stage.copy()
        ages[ctx.state.view_ids[lo:stop] == EMPTY] = 0
        col[lo:stop] = ages
    else:
        col[lo:stop] = stage
    return {}


def cmd_rebalance_commit(ctx: ShardContext, lo: int, hi: int) -> dict:
    """Adopt the recomputed shard boundaries (and drop any cycle cache
    carrying pre-migration row ids)."""
    ctx.lo, ctx.hi = int(lo), int(hi)
    ctx.cache = {}
    return {"lo": ctx.lo, "hi": ctx.hi}


# ----------------------------------------------------------------------
# Bulk metrics (tree reduction)
# ----------------------------------------------------------------------


def cmd_metric_prepare(ctx: ShardContext, column: str) -> dict:
    """Sort this shard's live ``(column, id)`` pairs for the rank merge."""
    state = ctx.state
    live = ctx.live_ids()
    keys = np.asarray(getattr(state, column)[live], dtype=np.float64)
    order = np.lexsort((live, keys))
    ctx.cache["m_live"] = live
    ctx.cache["m_order"] = order
    ctx.cache["m_keys"] = keys[order]
    ctx.cache["m_ids"] = live[order]
    return {"count": len(live)}


def cmd_metric_write(ctx: ShardContext, offset: int) -> dict:
    """Publish the sorted pairs to the shared merge buffers."""
    count = len(ctx.cache["m_keys"])
    ctx.scratch["mkeys"][offset : offset + count] = ctx.cache["m_keys"]
    ctx.scratch["mids"][offset : offset + count] = ctx.cache["m_ids"]
    return {}


def cmd_metric_ranks(ctx: ShardContext, segments, own: int, name: str) -> dict:
    """Merge step: global 1-based ranks of this shard's elements,
    stored (in live-row order) under ``name`` for the reducers."""
    rank_sorted = cross_shard_ranks(
        ctx.cache["m_keys"],
        ctx.cache["m_ids"],
        segments,
        own,
        ctx.scratch["mkeys"],
        ctx.scratch["mids"],
    )
    ranks = np.empty(len(rank_sorted), dtype=np.int64)
    ranks[ctx.cache["m_order"]] = rank_sorted + 1
    ctx.cache[name] = ranks
    return {}


def cmd_metric_sdm(ctx: ShardContext, n_live: int, slot: int) -> dict:
    """This shard's integer ``(truth, believed)`` assignment counts,
    published to the shared histogram at ``slot``.  Counts reduce
    exactly (no float rounding), so the driver's SDM/accuracy equal
    the vectorized backend's bitwise at every worker count."""
    geometry = ctx.geometry
    cells = len(geometry) ** 2
    window = ctx.scratch["sdm_counts"][slot * cells : (slot + 1) * cells]
    live = ctx.cache["m_live"]
    if len(live) == 0:
        window[:] = 0
        return {}
    alpha = ctx.cache["alpha"]
    truth = geometry.index_of(alpha / n_live)
    believed = geometry.index_of(ctx.state.value[live])
    window[:] = vmetrics.assignment_counts(truth, believed, len(geometry)).ravel()
    return {}


def cmd_metric_gdm(ctx: ShardContext) -> dict:
    """Partial sum of squared rank displacements (GDM numerator)."""
    alpha = ctx.cache["alpha"].astype(np.float64)
    rho = ctx.cache["rho"].astype(np.float64)
    return {"sq": float(((alpha - rho) ** 2).sum()), "n": len(alpha)}


def cmd_metric_confident(ctx: ShardContext, z: float) -> dict:
    """Partial Theorem-5.1 confidence count over this shard's rows."""
    state = ctx.state
    live = ctx.live_ids()
    if len(live) == 0:
        return {"confident": 0, "n": 0}
    mask = vmetrics.confident_mask(
        state.value[live], state.obs_total[live], ctx.geometry, z
    )
    return {"confident": int(mask.sum()), "n": len(live)}


def cmd_metric_slice_sizes(ctx: ShardContext) -> dict:
    """Partial claimed-membership histogram."""
    state = ctx.state
    live = ctx.live_ids()
    believed = ctx.geometry.index_of(state.value[live])
    counts = np.bincount(believed, minlength=len(ctx.geometry))
    return {"counts": [int(c) for c in counts]}


DISPATCH = {
    **CYCLE_DISPATCH,
    "rebalance_pack": cmd_rebalance_pack,
    "rebalance_unpack": cmd_rebalance_unpack,
    "rebalance_commit": cmd_rebalance_commit,
    "metric_prepare": cmd_metric_prepare,
    "metric_write": cmd_metric_write,
    "metric_ranks": cmd_metric_ranks,
    "metric_sdm": cmd_metric_sdm,
    "metric_gdm": cmd_metric_gdm,
    "metric_confident": cmd_metric_confident,
    "metric_slice_sizes": cmd_metric_slice_sizes,
}
