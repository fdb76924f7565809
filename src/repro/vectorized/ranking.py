"""Batched ranking rounds (Section 5, Figure 5, vectorized).

The steps of the active thread of
:class:`~repro.core.ranking.RankingProtocol`, each for a block of live
rows at once; the cycle (:func:`repro.vectorized.cycle.ranking_phases`)
strings them together:

1. :func:`fold_views` — fold the refreshed view into the comparison
   counters: for each valid view entry, count whether the neighbor's
   attribute is at or below the node's own (lines 5-7);
2. :func:`boundary_columns` picks ``j1``, the neighbor whose published
   rank estimate is closest to a slice boundary (lines 8-10; the
   Theorem-5.1-motivated bias); ``j2`` is a uniformly random neighbor
   (line 12);
3. :func:`deliver_updates` — the one-way ``UPD(a_i)`` messages as a
   scatter-add of comparison outcomes onto the targets' counters
   (lines 13-14 and the passive thread, lines 17-21);
4. :func:`recompute_estimates` — every estimate becomes ``l / g``
   (lines 15-16).

The sliding-window variant (Section 5.3.4) keeps, per node, only the
last ``window`` comparison outcomes, *exactly*: each node owns a
bit-packed circular buffer of ``window`` bits (``ceil(window / 8)``
bytes/node plus two ``int64`` cursors, see :func:`window_push`),
matching the reference
:class:`~repro.core.estimators.SlidingWindowRankEstimator`'s FIFO
semantics.  A state carries the window columns iff
``state.window is not None``, which is how every function here tells
the two variants apart.
"""

from __future__ import annotations

import numpy as np

from repro.vectorized.metrics import PartitionArrays
from repro.vectorized.ordering import _row_counts, _valid_slots
from repro.vectorized.state import ArrayState, take_rows

__all__ = ["window_push"]


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


def fold_views(state: ArrayState, rows, live: np.ndarray):
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
    if state.window is not None:  # the window observes slots in row-major order
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


def deliver_updates(
    state: ArrayState, targets: np.ndarray, senders_attr: np.ndarray
) -> None:
    """Lines 13-14 + 17-21: one-way ``UPD`` delivery as scatter-adds
    (or, with a sliding window, as window events), in event order."""
    upd_le = (senders_attr <= state.attribute[targets]).astype(np.float64)
    if state.window is not None:
        window_push(state, targets, upd_le)
    else:
        np.add.at(state.obs_total, targets, 1.0)
        np.add.at(state.obs_le, targets, upd_le)


def recompute_estimates(state: ArrayState, live: np.ndarray) -> None:
    """Lines 15-16 for the live nodes ``live``: ``value = l / g`` where
    any observation exists."""
    totals = state.obs_total[live]
    observed = totals > 0
    rows_obs = live[observed]
    state.value[rows_obs] = state.obs_le[rows_obs] / totals[observed]
