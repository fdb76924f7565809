"""Shard-local kernels: the per-phase work one worker executes.

Each kernel mirrors one stage of the vectorized cycle
(:mod:`repro.vectorized.sampler` / :mod:`~repro.vectorized.ranking` /
:mod:`~repro.vectorized.ordering`) restricted to a contiguous node-id
range ``[lo, hi)``.  Everything random is *pre-drawn by the driver*
into shared scratch buffers — a kernel only consumes its slice — and
every mutation is either to rows the shard owns or to the node-disjoint
rows of a centrally scheduled exchange wave.  Together those two rules
give the backend its headline property: the arrays a cycle produces
are bitwise identical to a single-process
:class:`~repro.vectorized.simulation.VectorSimulation` run, for *any*
worker count.

The same kernels back both executors: the in-process one (workers=1)
calls them on the driver's own state; the pool executor runs them in
worker processes over shared-memory views (:mod:`repro.sharded.worker`).
"""

from __future__ import annotations

import numpy as np

from repro.bulk.concurrency import deliver_one_sided, wave_exchange
from repro.sharded.metrics import cross_shard_ranks
from repro.vectorized import metrics as vmetrics
from repro.vectorized.ordering import _random_valid_column_from, select_exchanges
from repro.vectorized.ranking import (
    boundary_columns,
    deliver_updates,
    fold_views,
    recompute_estimates,
    sender_rows,
)
from repro.vectorized.sampler import (
    _age_and_purge,
    _propose_to_oldest,
    _swap_views,
)
from repro.vectorized.state import EMPTY, ArrayState, pick_columns, row_index

__all__ = ["ShardContext", "DISPATCH"]


class ShardContext:
    """One shard's execution context: a full-array view of the shared
    state, the owned row range, and a cycle-scoped cache carrying
    intermediates between phases."""

    def __init__(self, state: ArrayState, lo: int, hi: int, geometry, scratch):
        self.state = state
        self.lo = int(lo)
        self.hi = int(hi)
        self.geometry = geometry
        self.scratch = scratch
        self.cache = {}

    def live_ids(self) -> np.ndarray:
        """Ids of the live nodes this shard owns, ascending."""
        hi = min(self.hi, self.state.size)
        if hi <= self.lo:
            return np.empty(0, dtype=np.int64)
        return self.lo + np.flatnonzero(self.state.alive[self.lo : hi])


# ----------------------------------------------------------------------
# View refresh (the vectorized sampler, split at its plan points)
# ----------------------------------------------------------------------


def cmd_refresh_age(ctx: ShardContext, uniform: bool, shard: int) -> dict:
    """Age + purge this shard's live views (or blank them, for the
    uniform oracle).  The live count is published to the shared
    ``occupancy`` slot for this shard — the per-shard load tracking
    the driver's ``shard_live_loads()`` and the refresh's own
    live-offset bookkeeping read; the empty-slot count rides the
    reply."""
    state = ctx.state
    live = ctx.live_ids()
    rows = row_index(live, ctx.lo, min(ctx.hi, state.size))
    ctx.cache = {"live": live, "live_rows": rows}
    ctx.scratch["occupancy"][shard] = len(live)
    if len(live):
        if uniform:
            state.view_ids[rows] = EMPTY
            state.view_ages[rows] = 0
        else:
            _age_and_purge(state, rows)
    empty_rows, empty_cols = state.empty_live_slots(ctx.lo, ctx.hi)
    ctx.cache["empty"] = (empty_rows, empty_cols)
    return {"empty": len(empty_rows)}


def cmd_refresh_fill_partners(
    ctx: ShardContext,
    fill_offset: int,
    jitter_offset: int,
    partners: bool,
    fill_count: int = 0,
    live_count: int = 0,
) -> dict:
    """Apply this shard's slice of the central bootstrap fill (the
    driver resolves the draws to live node ids in ``fill_ids``), then —
    unless the uniform oracle is running — pick each live node's oldest
    neighbor (central jitter block for the tie-break) and publish the
    exchange proposals.  Fill touches only this shard's empty slots and
    partner selection only its own rows, so the two stages need no
    barrier between them: one round trip where write_live /
    refresh_fill / refresh_partners used to take three.

    ``fill_count`` / ``live_count`` are wire-slicing metadata: the
    kernel derives both from its own cache, but the distributed driver
    needs them to ship each worker only its slice of ``fill_ids`` and
    ``jitter``."""
    state = ctx.state
    empty_rows, empty_cols = ctx.cache["empty"]
    count = len(empty_rows)
    if count:
        state.apply_fill(
            empty_rows,
            empty_cols,
            ctx.scratch["fill_ids"][fill_offset : fill_offset + count],
        )
    if not partners:
        return {"props": 0}
    live = ctx.cache["live"]
    if len(live) == 0:
        return {"props": 0}
    c = state.view_size
    jitter = ctx.scratch["jitter"][
        jitter_offset * c : (jitter_offset + len(live)) * c
    ].reshape(len(live), c)
    initiators, chosen = _propose_to_oldest(
        state, ctx.cache["live_rows"], live, jitter
    )
    ctx.scratch["prop_a"][ctx.lo : ctx.lo + len(initiators)] = initiators
    ctx.scratch["prop_b"][ctx.lo : ctx.lo + len(chosen)] = chosen
    return {"props": len(initiators)}


#: Double-buffered wave staging: the driver stages wave k+1 into the
#: other pair while the workers still execute wave k.
WAVE_BUFFERS = (("wave_a", "wave_b"), ("wave_a2", "wave_b2"))


def cmd_refresh_swap(ctx: ShardContext, offset: int, count: int, buffer: int = 0) -> dict:
    """Execute this shard's pairs of one node-disjoint exchange wave."""
    if count:
        name_a, name_b = WAVE_BUFFERS[buffer]
        _swap_views(
            ctx.state,
            ctx.scratch[name_a][offset : offset + count],
            ctx.scratch[name_b][offset : offset + count],
        )
    return {}


# ----------------------------------------------------------------------
# Ranking round
# ----------------------------------------------------------------------


def cmd_rank_fold(ctx: ShardContext, boundary_bias: bool, window_exact: bool) -> dict:
    """Fold refreshed views into the rank counters (Figure 5, lines
    5-7) and pre-compute the boundary-biased j1 choice."""
    state = ctx.state
    live = ctx.cache["live"]
    if len(live) == 0:
        ctx.cache.update(rows=np.empty(0, dtype=np.int64))
        return {"rows": 0}
    view, valid, counts, a_self = fold_views(
        state, ctx.cache["live_rows"], live, window_exact
    )
    senders = np.flatnonzero(counts)
    view, valid, counts = sender_rows(senders, view, valid, counts)
    j1_cols = None
    if boundary_bias and len(senders):
        j1_cols = boundary_columns(state, ctx.geometry, view, valid, counts)
    ctx.cache.update(
        rows=senders,
        sub_view=view,
        sub_valid=valid,
        sub_counts=counts,
        j1_cols=j1_cols,
        a_self=a_self,
    )
    return {"rows": len(senders)}


def cmd_rank_targets(
    ctx: ShardContext, offset: int, count: int = 0, sids: bool = False
) -> dict:
    """Resolve j1/j2 (central uniform blocks) and publish the UPD
    targets with their senders' attributes (lines 8-14).  ``count`` is
    wire-slicing metadata (the rank_fold row count the distributed
    driver uses to slice ``u1``/``u2``); with ``sids`` the senders'
    global node ids are published too (the fault model's partition
    masks need sender identity, not just the attribute)."""
    rows = ctx.cache["rows"]
    count = len(rows)
    if count == 0:
        return {}
    sub_view, sub_valid = ctx.cache["sub_view"], ctx.cache["sub_valid"]
    sub_counts = ctx.cache["sub_counts"]
    j1_cols = ctx.cache["j1_cols"]
    if j1_cols is None:  # boundary_bias=False ablation: j1 is random too
        j1_cols = _random_valid_column_from(
            sub_valid, ctx.scratch["u1"][offset : offset + count], sub_counts
        )
    j2_cols = _random_valid_column_from(
        sub_valid, ctx.scratch["u2"][offset : offset + count], sub_counts
    )
    ctx.scratch["tgt1"][ctx.lo : ctx.lo + count] = pick_columns(sub_view, j1_cols)
    ctx.scratch["tgt2"][ctx.lo : ctx.lo + count] = pick_columns(sub_view, j2_cols)
    ctx.scratch["sattr"][ctx.lo : ctx.lo + count] = ctx.cache["a_self"][rows]
    if sids:
        ctx.scratch["sid"][ctx.lo : ctx.lo + count] = ctx.cache["live"][rows]
    return {}


def cmd_rank_apply(ctx: ShardContext, events: int, window, window_exact: bool) -> dict:
    """Deliver the ``events`` UPD messages landing on this shard's rows
    (global order preserved, so the float accumulation is bitwise
    identical to the single-process scatter-add), then recompute
    estimates.  With a fault model the event list already reflects the
    fates — lost messages filtered, matured mail prepended."""
    state = ctx.state
    live = ctx.cache["live"]
    if events:
        targets = ctx.scratch["targets"][:events]
        senders = ctx.scratch["senders"][:events]
        mine = (targets >= ctx.lo) & (targets < ctx.hi)
        targets, senders = targets[mine], senders[mine]
        deliver_updates(state, targets, senders, window_exact)
    if len(live):
        recompute_estimates(state, live, window, window_exact)
    return {}


# ----------------------------------------------------------------------
# Ordering round
# ----------------------------------------------------------------------


def cmd_ord_select(
    ctx: ShardContext, selection: str, offset: int, count: int = 0
) -> dict:
    """Evaluate the misplacement predicate, pick gossip partners, and
    publish this shard's REQ proposals (Section 4, per variant).
    ``count`` is wire-slicing metadata (this shard's live-row count,
    used by the distributed driver to slice ``u1``)."""
    state = ctx.state
    live = ctx.cache["live"]
    if len(live) == 0:
        return {"props": 0, "intended": 0}
    initiators, targets, intended = select_exchanges(
        state,
        ctx.cache["live_rows"],
        live,
        selection,
        lambda: ctx.scratch["u1"][offset : offset + len(live)],
    )
    ctx.scratch["prop_a"][ctx.lo : ctx.lo + len(initiators)] = initiators
    ctx.scratch["prop_b"][ctx.lo : ctx.lo + len(targets)] = targets
    ctx.scratch["prop_x"][ctx.lo : ctx.lo + len(intended)] = intended
    return {"props": len(initiators), "intended": int(intended.sum())}


def cmd_conc_wave(ctx: ShardContext, offset: int, count: int) -> dict:
    """One node-disjoint wave of REQ/ACK exchanges: re-check the
    predicate at processing time, swap atomically unless the pair's
    ACK is deferred by the overlap plan (then responder-side only).
    Outcomes land in the per-exchange slot scratch the driver reads
    for central swap accounting."""
    if count:
        scratch = ctx.scratch
        side_i = scratch["wave_a"][offset : offset + count]
        side_j = scratch["wave_b"][offset : offset + count]
        defer_ack = scratch["wave_d"][offset : offset + count].astype(bool)
        slots = scratch["wave_s"][offset : offset + count]
        swap, ack = wave_exchange(ctx.state, side_i, side_j, defer_ack)
        scratch["x_resp"][slots] = swap
        scratch["x_reqs"][slots] = swap & ~defer_ack
        scratch["x_ackv"][slots] = ack
    return {}


def cmd_conc_req(ctx: ShardContext, offset: int, count: int) -> dict:
    """Deliver this shard's slice of one overlapped-REQ flush round:
    one-sided swaps from the stale send-time payloads, recording each
    generated ACK's payload (the receiver's pre-swap value)."""
    if count:
        scratch = ctx.scratch
        receivers = scratch["del_r"][offset : offset + count]
        senders = scratch["del_s"][offset : offset + count]
        payloads = scratch["del_p"][offset : offset + count]
        slots = scratch["del_t"][offset : offset + count]
        swap, pre = deliver_one_sided(
            ctx.state, receivers, ctx.state.attribute[senders], payloads
        )
        scratch["x_resp"][slots] = swap
        scratch["x_ackv"][slots] = pre
    return {}


def cmd_fault_deliver(ctx: ShardContext, offset: int, count: int) -> dict:
    """Deliver this shard's slice of one matured-mail round: one-sided
    swaps from sender attributes and payload values frozen at send
    time.  No exchange slot is recorded — the sending exchange closed
    its books when the delay was drawn."""
    if count:
        scratch = ctx.scratch
        receivers = scratch["del_r"][offset : offset + count]
        attributes = scratch["del_a"][offset : offset + count]
        payloads = scratch["del_p"][offset : offset + count]
        deliver_one_sided(ctx.state, receivers, attributes, payloads)
    return {}


def cmd_conc_ack(ctx: ShardContext, offset: int, count: int) -> dict:
    """Deliver this shard's slice of one deferred-ACK round: the
    requester side of each exchange, applied against the responder's
    recorded pre-swap value."""
    if count:
        scratch = ctx.scratch
        receivers = scratch["del_r"][offset : offset + count]
        senders = scratch["del_s"][offset : offset + count]
        slots = scratch["del_t"][offset : offset + count]
        swap, _pre = deliver_one_sided(
            ctx.state,
            receivers,
            ctx.state.attribute[senders],
            scratch["x_ackv"][slots],
        )
        scratch["x_reqs"][slots] = swap
    return {}


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


def cmd_ping(ctx: ShardContext) -> dict:
    return {"lo": ctx.lo, "hi": ctx.hi}


DISPATCH = {
    "refresh_age": cmd_refresh_age,
    "refresh_fill_partners": cmd_refresh_fill_partners,
    "refresh_swap": cmd_refresh_swap,
    "rank_fold": cmd_rank_fold,
    "rank_targets": cmd_rank_targets,
    "rank_apply": cmd_rank_apply,
    "ord_select": cmd_ord_select,
    "rebalance_pack": cmd_rebalance_pack,
    "rebalance_unpack": cmd_rebalance_unpack,
    "rebalance_commit": cmd_rebalance_commit,
    "conc_wave": cmd_conc_wave,
    "conc_req": cmd_conc_req,
    "conc_ack": cmd_conc_ack,
    "fault_deliver": cmd_fault_deliver,
    "metric_prepare": cmd_metric_prepare,
    "metric_write": cmd_metric_write,
    "metric_ranks": cmd_metric_ranks,
    "metric_sdm": cmd_metric_sdm,
    "metric_gdm": cmd_metric_gdm,
    "metric_confident": cmd_metric_confident,
    "metric_slice_sizes": cmd_metric_slice_sizes,
    "ping": cmd_ping,
}
