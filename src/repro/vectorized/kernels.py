"""The bulk cycle's kernels: the per-phase work one shard executes.

A bulk cycle is a fixed sequence of *commands*
(:mod:`repro.vectorized.cycle`), each dispatched to every shard of the
:class:`~repro.vectorized.state.ArrayState` through an executor.  A
kernel here is one command's work over a contiguous node-id range
``[lo, hi)``.  Everything random is *pre-drawn by the driver* into
scratch buffers — a kernel only consumes its slice — and every
mutation is either to rows the shard owns or to the node-disjoint rows
of a centrally scheduled exchange wave.  Together those two rules give
the bulk backends their headline property: the arrays a cycle produces
are bitwise identical for *any* split of the id space into shards.

The in-process executor runs these kernels over the driver's own
arrays — one shard spanning the whole state (``backend="vectorized"``)
or one per worker thread (``"sharded"``); the message executor's
workers (:mod:`repro.distributed.worker`) run the same functions in
their own processes over their own row ranges.

Threads share the Python objects, so a kernel writes *array elements*
only — rows of the state's columns, its slices of the scratch arrays,
its own context — and never assigns an attribute of the state, the
scratch or the telemetry: ``size``, the liveness cache and
``maybe_dead_entries`` belong to the driver
(``tests/vectorized/test_kernel_purity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.bulk.blocks import block_rows, index_blocks
from repro.bulk.concurrency import deliver_one_sided, wave_exchange
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
from repro.vectorized.state import (
    EMPTY,
    ArrayState,
    pick_columns,
    row_index,
    take_rows,
)

__all__ = ["ShardContext", "DISPATCH"]


class ShardContext:
    """One shard's execution context: a full-array view of the state,
    the owned row range, and a cycle-scoped cache carrying
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
# View refresh (Figure 3, split at its plan points)
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
            # Per row: the gathered ages (4 B a slot) and, in the purge,
            # the gathered ids, their liveness-index copy (8 + 8) and
            # three masks.
            row_bytes = (4 + 8 + 8 + 3) * state.view_size
            for _a, _b, block in index_blocks(row_bytes, rows, len(live)):
                _age_and_purge(state, block)
    slots, count = state.empty_live_slots(ctx.lo, ctx.hi)
    ctx.cache["empty"] = (slots, count)
    return {"empty": count}


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
    exchange proposals, a block of rows at a time at a running offset.
    Fill touches only this shard's empty slots and partner selection
    only its own rows, so the two stages need no barrier between them:
    one round trip where write_live / refresh_fill / refresh_partners
    used to take three.

    ``fill_count`` / ``live_count`` are wire-slicing metadata: the
    kernel derives both from its own cache, but the distributed driver
    needs them to ship each worker only its slice of ``fill_ids`` and
    ``jitter``."""
    state = ctx.state
    slots, count = ctx.cache["empty"]
    if count:
        state.apply_fill(
            slots, ctx.scratch["fill_ids"][fill_offset : fill_offset + count]
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
    # Per row: the gathered ids and ages (8 + 4 B a slot), the float32
    # key and the empty mask (4 + 1), the chosen column, its flat index
    # and the partner (8 B each).
    row_bytes = (8 + 4 + 4 + 1) * c + 3 * 8
    props = ctx.lo
    for a, b, block in index_blocks(row_bytes, ctx.cache["live_rows"], len(live)):
        initiators, chosen = _propose_to_oldest(state, block, live[a:b], jitter[a:b])
        stop = props + len(initiators)
        ctx.scratch["prop_a"][props:stop] = initiators
        ctx.scratch["prop_b"][props:stop] = chosen
        props = stop
    return {"props": props - ctx.lo}


def cmd_refresh_swap(ctx: ShardContext, offset: int, count: int) -> dict:
    """Execute this shard's pairs of one node-disjoint exchange wave, a
    block of rows — half as many pairs — at a time: the pairs of a wave
    share no node, so the chunking cannot show in the result, and the
    gathered rows and masks are a block's, not the wave's."""
    side_a, side_b = ctx.scratch["wave_a"], ctx.scratch["wave_b"]
    # Per row (a pair is two): the gathered ids and ages (8 + 4 B a
    # slot), the int32 key and two masks (4 + 2), and five int64
    # vectors — receivers, donors, the argmax, the slot base, the slot.
    row_bytes = (8 + 4 + 4 + 2) * ctx.state.view_size + 5 * 8
    pairs = max(1, block_rows(row_bytes) // 2)
    for start in range(offset, offset + count, pairs):
        stop = min(start + pairs, offset + count)
        _swap_views(ctx.state, side_a[start:stop], side_b[start:stop])
    return {}


# ----------------------------------------------------------------------
# Ranking round
# ----------------------------------------------------------------------


def cmd_rank_fold(ctx: ShardContext, boundary_bias: bool) -> dict:
    """Fold refreshed views into the rank counters (Figure 5, lines
    5-7) and pre-compute the boundary-biased j1 choice, a block of rows
    at a time: what rides to ``rank_targets`` is a mask and two index
    columns, and the gathered neighbor attributes and distances — eight
    bytes per view slot each — are only ever a block's."""
    state = ctx.state
    live, rows = ctx.cache["live"], ctx.cache["live_rows"]
    if len(live) == 0:
        ctx.cache.update(rows=np.empty(0, dtype=np.int64))
        return {"rows": 0}
    view = take_rows(state.view_ids, rows)
    valid = np.empty(view.shape, dtype=bool)
    counts = np.empty(len(live), dtype=np.int64)
    j1_cols = distance = None
    if boundary_bias:
        j1_cols = np.empty(len(live), dtype=np.int64)
        distance = ctx.geometry.boundary_distance(state.value[: state.size])
    # Per row: the valid mask and the comparison bits (1 + 1 B a slot),
    # the gathered peer attributes and their index copy — or the
    # boundary distances and theirs (8 + 8) — and six scalars (the
    # window's cursors and their per-round temporaries).
    row_bytes = (1 + 1 + 8 + 8) * state.view_size + 6 * 8
    for a, b, block in index_blocks(row_bytes, rows, len(live)):
        part, nodes = view[a:b], live[a:b]
        _part, valid[a:b], counts[a:b], _attr = fold_views(state, block, nodes, part)
        if boundary_bias:
            j1_cols[a:b] = boundary_columns(distance, part, valid[a:b], counts[a:b])
    senders = np.flatnonzero(counts)
    if len(senders) < len(live):
        view, valid, counts = sender_rows(senders, view, valid, counts)
        j1_cols = j1_cols[senders] if boundary_bias else None
    ctx.cache.update(
        rows=senders,
        sub_view=view,
        sub_valid=valid,
        sub_counts=counts,
        j1_cols=j1_cols,
        a_self=take_rows(state.attribute, rows),
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
    # The fold's arrays are read here and nowhere later: taken out of
    # the cache, they are gone when this command returns.
    sub_view, sub_valid = ctx.cache.pop("sub_view"), ctx.cache.pop("sub_valid")
    sub_counts, a_self = ctx.cache.pop("sub_counts"), ctx.cache.pop("a_self")
    j1_cols = ctx.cache.pop("j1_cols")
    if j1_cols is None:  # boundary_bias=False ablation: j1 is random too
        j1_cols = _random_valid_column_from(
            sub_valid, ctx.scratch["u1"][offset : offset + count], sub_counts
        )
    j2_cols = _random_valid_column_from(
        sub_valid, ctx.scratch["u2"][offset : offset + count], sub_counts
    )
    ctx.scratch["tgt1"][ctx.lo : ctx.lo + count] = pick_columns(sub_view, j1_cols)
    ctx.scratch["tgt2"][ctx.lo : ctx.lo + count] = pick_columns(sub_view, j2_cols)
    ctx.scratch["sattr"][ctx.lo : ctx.lo + count] = a_self[rows]
    if sids:
        ctx.scratch["sid"][ctx.lo : ctx.lo + count] = ctx.cache["live"][rows]
    return {}


def cmd_rank_apply(ctx: ShardContext, offset: int, count: int) -> dict:
    """Deliver this shard's run of the UPD event list — the driver cut
    the global list by target shard, order preserved, so the per-node
    event order (and with it every counter and window) is bitwise that
    of the single-shard delivery — then recompute estimates.  With a
    fault model the event list already reflects the fates — lost
    messages filtered, matured mail prepended."""
    state = ctx.state
    live = ctx.cache["live"]
    if count:
        deliver_updates(
            state,
            ctx.scratch["targets"][offset : offset + count],
            ctx.scratch["senders"][offset : offset + count],
            ctx.lo,
            min(ctx.hi, state.size),
        )
    if len(live):
        recompute_estimates(state, live)
    return {}


# ----------------------------------------------------------------------
# Ordering round
# ----------------------------------------------------------------------


def cmd_ord_select(
    ctx: ShardContext, selection: str, offset: int, count: int = 0
) -> dict:
    """Evaluate the misplacement predicate, pick gossip partners, and
    publish this shard's REQ proposals (Section 4, per variant), a
    block of rows at a time at a running offset: selection is row-local
    and its uniforms are pre-drawn per row, so the blocks cannot show
    in the result.  ``count`` is wire-slicing metadata (this shard's
    live-row count, used by the distributed driver to slice ``u1``)."""
    state = ctx.state
    live = ctx.cache["live"]
    if len(live) == 0:
        return {"props": 0}
    c = state.view_size
    # Per row: the gathered view (8 B a slot), ids / attr / value over
    # the view-plus-self items (3 x 8 B an item), the product and its
    # temporary (8 + 8 B a slot), three masks and the two int16 ranks.
    row_bytes = 8 * c + 3 * 8 * (c + 1) + (8 + 8 + 3) * c + 2 * 2 * (c + 1)
    props = ctx.lo
    for a, b, block in index_blocks(row_bytes, ctx.cache["live_rows"], len(live)):
        initiators, targets, intended = select_exchanges(
            state,
            block,
            live[a:b],
            selection,
            lambda a=a, b=b: ctx.scratch["u1"][offset + a : offset + b],
        )
        stop = props + len(initiators)
        ctx.scratch["prop_a"][props:stop] = initiators
        ctx.scratch["prop_b"][props:stop] = targets
        ctx.scratch["prop_x"][props:stop] = intended
        props = stop
    return {"props": props - ctx.lo}


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


#: The commands of one bulk cycle, by name.
DISPATCH = {
    "refresh_age": cmd_refresh_age,
    "refresh_fill_partners": cmd_refresh_fill_partners,
    "refresh_swap": cmd_refresh_swap,
    "rank_fold": cmd_rank_fold,
    "rank_targets": cmd_rank_targets,
    "rank_apply": cmd_rank_apply,
    "ord_select": cmd_ord_select,
    "conc_wave": cmd_conc_wave,
    "conc_req": cmd_conc_req,
    "conc_ack": cmd_conc_ack,
    "fault_deliver": cmd_fault_deliver,
}
