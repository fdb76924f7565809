"""Batched ranking rounds (Section 5, Figure 5, vectorized).

One :func:`ranking_round` performs, for every live node at once, the
active thread of :class:`~repro.core.ranking.RankingProtocol`:

1. fold the refreshed view into the comparison counters — for each
   valid view entry, count whether the neighbor's attribute is at or
   below the node's own (lines 5-7);
2. pick ``j1``, the neighbor whose published rank estimate is closest
   to a slice boundary (lines 8-10; the Theorem-5.1-motivated bias),
   and ``j2``, a uniformly random neighbor (line 12);
3. deliver the one-way ``UPD(a_i)`` messages — a scatter-add of
   comparison outcomes onto the targets' counters (lines 13-14 and the
   passive thread, lines 17-21);
4. recompute every estimate as ``l / g`` (lines 15-16).

The sliding-window variant (Section 5.3.4) keeps, per node, only the
last ``window`` comparison outcomes.  The default implementation is
*exact*: each node owns a bit-packed circular buffer of ``window``
bits (``~window/8`` bytes/node, see :func:`window_push`), matching the
reference :class:`~repro.core.estimators.SlidingWindowRankEstimator`'s
FIFO semantics.  ``window_approx=True`` opts into the cheaper
*rescaling* approximation instead: once a node's counter total exceeds
``window``, both counters are scaled down to hold it there, so each
cycle's new observations carry weight ``~1/window`` and older
observations decay geometrically — no per-node buffers, but only an
effective-sample-size equivalent of the true window.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs.telemetry import NULL_TELEMETRY
from repro.vectorized.metrics import PartitionArrays
from repro.vectorized.ordering import (
    _random_valid_column_from,
    _row_counts,
    _valid_slots,
)
from repro.vectorized.state import ArrayState, pick_columns, take_rows

__all__ = ["ranking_round", "window_push"]


def window_push(state: ArrayState, ids: np.ndarray, bits: np.ndarray) -> None:
    """Append one comparison outcome per event to each node's exact
    sliding window, evicting the oldest outcome once the window is
    full, and update ``obs_le`` / ``obs_total`` to the exact in-window
    counts.

    ``ids`` may repeat (a node receiving several ``UPD`` messages in
    one cycle); repeated events apply in array order, exactly as the
    reference estimator observes them one at a time.  Per-node results
    depend only on that node's own events, so shards may push disjoint
    row subsets of a global event list concurrently and bitwise agree
    with a single global push.
    """
    window = state.window
    if window is None:
        raise RuntimeError("window_push needs enable_window() first")
    if len(ids) == 0:
        return
    order = np.argsort(ids, kind="stable")
    sid = np.asarray(ids, dtype=np.int64)[order]
    sbit = np.asarray(bits)[order].astype(np.uint8)
    starts = np.flatnonzero(np.concatenate(([True], sid[1:] != sid[:-1])))
    counts = np.diff(np.append(starts, len(sid)))
    nodes = sid[starts]
    # Sequential index j of each event within its node's stream.
    j = np.arange(len(sid)) - np.repeat(starts, counts)
    # A node given more than `window` events keeps only the last
    # `window` of them — earlier ones would be fully evicted by the end
    # of the call anyway, and dropping them keeps the written slots
    # distinct (one read-modify-write per slot).
    drop = np.repeat(np.maximum(counts - window, 0), counts)
    keep = j >= drop
    if not keep.all():
        sid, sbit, j = sid[keep], sbit[keep], j[keep]
    pos0 = state.win_pos[sid]
    len0 = state.win_len[sid]
    slot = (pos0 + j) % window
    # Slot (pos + j) % window held a live outcome before this call iff
    # j % window falls in the occupied suffix [window - len, window).
    evicts = (j % window) >= (window - len0)
    byte = sid * state.win_bits.shape[1] + (slot >> 3)
    bitpos = (slot & 7).astype(np.uint8)
    flat = state.win_bits.reshape(-1)
    old = (flat[byte] >> bitpos) & 1
    delta = sbit.astype(np.float64) - np.where(evicts, old, 0)
    np.add.at(state.obs_le, sid, delta)
    np.bitwise_and.at(flat, byte, ~(np.uint8(1) << bitpos))
    setter = sbit == 1
    np.bitwise_or.at(flat, byte[setter], np.uint8(1) << bitpos[setter])
    # Advance each node's ring by its *original* event count.
    state.win_len[nodes] = np.minimum(state.win_len[nodes] + counts, window)
    state.win_pos[nodes] = (state.win_pos[nodes] + counts) % window
    state.obs_total[nodes] = state.win_len[nodes]


def fold_views(state: ArrayState, rows, live: np.ndarray, window_exact: bool):
    """Lines 5-7 for the live nodes ``live`` (row index ``rows``): fold
    every valid view entry's comparison into the node's counters.

    Returns ``(view, valid, counts, a_self)`` — the nodes' view rows (a
    zero-copy slice of the state when ``rows`` is one), their
    occupied-and-alive mask, its per-row counts, and their attributes.
    """
    view = take_rows(state.view_ids, rows)
    valid = _valid_slots(state, view)
    full = bool(valid.all())  # steady state: no masking passes needed
    a_self = take_rows(state.attribute, rows)
    a_peer = np.take(state.attribute, view if full else np.where(valid, view, 0))
    le_bits = a_peer <= a_self[:, None]
    if full:
        counts = np.full(len(view), state.view_size)
    else:
        le_bits &= valid
        counts = _row_counts(valid)
    if window_exact:  # the exact window observes slots in row-major order
        window_push(state, np.repeat(live, counts), le_bits[valid])
    else:
        state.obs_le[rows] += _row_counts(le_bits)
        state.obs_total[rows] += counts
    return view, valid, counts, a_self


def sender_rows(
    senders: np.ndarray, view: np.ndarray, valid: np.ndarray, counts: np.ndarray
):
    """The fold's arrays restricted to ``senders``, the rows that have a
    neighbor to send ``UPD`` to (the arrays themselves if all do)."""
    if len(senders) == len(view):
        return view, valid, counts
    return take_rows(view, senders), take_rows(valid, senders), counts[senders]


def boundary_columns(
    state: ArrayState,
    geometry: PartitionArrays,
    view: np.ndarray,
    valid: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Lines 8-10: per row, the column of the valid neighbor whose
    published estimate is closest to a slice boundary.  ``dist`` is a
    function of the neighbor's estimate alone, so it is evaluated once
    per node and gathered, not once per view slot."""
    node_distance = geometry.boundary_distance(state.value[: state.size])
    if counts.min() == view.shape[1]:
        return np.argmin(np.take(node_distance, view), axis=1)
    distance = np.take(node_distance, np.where(valid, view, 0))
    distance[~valid] = np.inf
    return np.argmin(distance, axis=1)


def ranking_round(
    state: ArrayState,
    geometry: PartitionArrays,
    plan,
    boundary_bias: bool = True,
    window: Optional[int] = None,
    stats=None,
    window_exact: bool = False,
    telemetry=NULL_TELEMETRY,
    queue=None,
    cycle: int = 0,
) -> None:
    """One batched active round of the ranking algorithm, consuming
    the :class:`~repro.bulk.CyclePlan`'s ranking-phase schedule.

    With a fault model attached, each one-way ``UPD`` draws a fate:
    lost (or partition-suppressed) messages are dropped from the event
    stream, delayed ones go to the ``queue`` mailbox with the sender's
    attribute frozen, and mail sent ``d`` cycles ago lands now —
    prepended to the stream, so the exact window observes late events
    before this cycle's inline ones."""
    live, rows = state.live_ids(), state.live_rows()
    if len(live) < 2:
        return
    with telemetry.span("fold"):
        view, valid, counts, a_self = fold_views(state, rows, live, window_exact)

    # Lines 8-12: target selection over nodes that have neighbors.
    senders = np.flatnonzero(counts)
    targets = np.empty(0, dtype=np.int64)
    senders_attr = np.empty(0, dtype=np.float64)
    overlapping = 0
    sent = lost_count = delayed_count = matured_count = 0
    if len(senders):
        with telemetry.span("targets"):
            view, valid, counts = sender_rows(senders, view, valid, counts)
            u1, u2 = plan.ranking_uniforms(len(senders), boundary_bias)
            if boundary_bias:
                j1_cols = boundary_columns(state, geometry, view, valid, counts)
            else:
                j1_cols = _random_valid_column_from(valid, u1, counts)
            j2_cols = _random_valid_column_from(valid, u2, counts)
            targets = np.concatenate(
                [pick_columns(view, j1_cols), pick_columns(view, j2_cols)]
            )
            senders_attr = np.tile(a_self[senders], 2)

            # Section 4.5.2: overlapping UPD messages are flushed after
            # the inline ones, in random order.  One-way messages
            # compare only immutable attributes, so overlap reorders the
            # event stream (which the exact window observes) without
            # changing counters.
            order, overlapping = plan.upd_schedule(len(targets))
            if order is not None:
                targets, senders_attr = targets[order], senders_attr[order]
            sent = len(targets)

            # Fault fates: lost (or partition-crossing) UPDs vanish;
            # delayed ones are mailed with the sender attribute frozen.
            if plan.faults_enabled:
                sender_ids = np.tile(live[senders], 2)
                if order is not None:
                    sender_ids = sender_ids[order]
                crossing = plan.partition_mask(sender_ids, targets)
                lost, delay = plan.message_faults("upd", len(targets))
                if crossing is not None:
                    lost = lost | crossing
                delayed = ~lost & (delay > 0)
                if queue is not None and delayed.any():
                    delayed_idx = np.flatnonzero(delayed)
                    lateness = delay[delayed_idx]
                    for d in np.unique(lateness):
                        group = delayed_idx[lateness == d]
                        queue.push_upd(
                            cycle + int(d), targets[group], senders_attr[group]
                        )
                lost_count = int(lost.sum())
                delayed_count = int(delayed.sum())
                if lost_count or delayed_count:
                    keep = ~(lost | delayed)
                    targets, senders_attr = targets[keep], senders_attr[keep]

    # Mail sent d cycles ago lands now, ahead of this cycle's events.
    if plan.faults_enabled and queue is not None:
        matured = queue.pop_upd(cycle)
        if matured is not None:
            matured_targets, matured_attr = matured
            still_alive = state.alive[matured_targets]
            matured_targets = matured_targets[still_alive]
            matured_attr = matured_attr[still_alive]
            matured_count = len(matured_targets)
            if matured_count:
                targets = np.concatenate([matured_targets, targets])
                senders_attr = np.concatenate([matured_attr, senders_attr])

    if len(targets):
        with telemetry.span("upd_deliver"):
            deliver_updates(state, targets, senders_attr, window_exact)
    if stats is not None and (sent or matured_count):
        stats.note_round(messages=sent, intended=0)
        stats.note_overlapping(overlapping)
        if lost_count:
            stats.note_lost(lost_count)
        if delayed_count:
            stats.note_delayed(delayed_count)
        if matured_count:
            stats.note_matured(matured_count)
    if telemetry.enabled:
        telemetry.count("ranking.upd_messages", len(targets))

    with telemetry.span("estimates"):
        recompute_estimates(state, live, window, window_exact)


def deliver_updates(
    state: ArrayState, targets: np.ndarray, senders_attr: np.ndarray, window_exact: bool
) -> None:
    """Lines 13-14 + 17-21: one-way ``UPD`` delivery as scatter-adds
    (or, in exact-window mode, as window events), in event order."""
    upd_le = (senders_attr <= state.attribute[targets]).astype(np.float64)
    if window_exact:
        window_push(state, targets, upd_le)
    else:
        np.add.at(state.obs_total, targets, 1.0)
        np.add.at(state.obs_le, targets, upd_le)


def recompute_estimates(
    state: ArrayState, live: np.ndarray, window: Optional[int], window_exact: bool
) -> None:
    """Lines 15-16 for the live nodes ``live``: ``value = l / g`` where
    any observation exists, after the rescaling approximation (if on)
    capped the effective sample count at ``window``."""
    totals = state.obs_total[live]  # a copy: the cap is mirrored into it
    if window is not None and not window_exact:
        over = totals > window
        if over.any():
            factor = window / totals[over]
            rows_over = live[over]
            state.obs_le[rows_over] *= factor
            state.obs_total[rows_over] = float(window)
            totals[over] = float(window)
    observed = totals > 0
    rows_obs = live[observed]
    state.value[rows_obs] = state.obs_le[rows_obs] / totals[observed]
