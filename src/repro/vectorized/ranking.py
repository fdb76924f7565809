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
bytes/node plus two ``int64`` cursors), matching the reference
:class:`~repro.core.estimators.SlidingWindowRankEstimator`'s FIFO
semantics.  It is written in *rounds* — one outcome for each of a set
of distinct nodes (:func:`_push_round`), so a round is plain gathers
and scatters on cursor arrays: the fold runs one round per view column,
``UPD`` delivery (:func:`window_push`) one per occurrence of a target.
A state carries the window columns iff ``state.window is not None``,
which is how every function here tells the two variants apart.
"""

from __future__ import annotations

import numpy as np

from repro.vectorized.ordering import _row_counts, _valid_slots
from repro.vectorized.state import ArrayState, take_rows

__all__ = ["window_push"]


def _push_round(state: ArrayState, base, pos, length, le, bit, on) -> None:
    """The one write rule of the sliding window: append outcome ``bit``
    (``uint8`` 0/1) to the ring of each of a set of *distinct* nodes.

    ``base`` is each node's first byte in the flattened ring column;
    ``pos`` / ``length`` / ``le`` are the nodes' write cursor, fill level
    and in-window count, advanced in place.  ``on`` is ``True`` or a
    mask: a node whose ``on`` is False has no outcome this round
    (``bit`` 0 there) — its bit-mask is zero, so ring and cursors stay
    as they were.  Because the nodes are distinct, every step is a
    plain gather or scatter."""
    flat, window = state.win_bits.reshape(-1), state.window
    shift = (pos & 7).astype(np.uint8)
    byte = base + (pos >> 3)
    old = flat.take(byte)
    evicts = (length == window) & on  # a full ring loses the bit under the cursor
    le -= (old >> shift) & evicts
    le += bit
    flat[byte] = (old & ~np.left_shift(on, shift, dtype=np.uint8)) | (bit << shift)
    length += evicts ^ on
    pos += on
    pos[pos == window] = 0


def _push_rounds(state: ArrayState, rows, nodes: np.ndarray, rounds) -> None:
    """Run ``rounds`` — ``(bit, on)`` pairs, each one outcome for the
    first ``len(bit)`` of the distinct ``nodes`` (row index ``rows``) —
    on cursors gathered once and written back once (in place where
    ``rows`` is a slice), then publish the exact in-window counts."""
    base = nodes * state.win_bits.shape[1]
    pos, length, le = state.win_pos[rows], state.win_len[rows], state.obs_le[rows]
    for bit, on in rounds:
        m = len(bit)
        _push_round(state, base[:m], pos[:m], length[:m], le[:m], bit, on)
    state.win_pos[rows], state.win_len[rows], state.obs_le[rows] = pos, length, le
    state.obs_total[rows] = length


def window_push(state: ArrayState, ids: np.ndarray, bits: np.ndarray) -> None:
    """Append one comparison outcome per event to each node's exact
    sliding window, evicting the oldest outcome once the window is
    full, and update ``obs_le`` / ``obs_total`` to the exact in-window
    counts.

    ``ids`` may repeat (a node receiving several ``UPD`` messages in
    one cycle); repeated events apply in array order, exactly as the
    reference estimator observes them one at a time: events are grouped
    by node with one value sort of ``(id, position)`` keys, and round
    ``j`` pushes every node's ``j``-th event (:func:`_push_round`).
    Per-node results depend only on that node's own events, so shards
    may push disjoint row subsets of a global event list concurrently
    and bitwise agree with a single global push.
    """
    if state.window is None:
        raise RuntimeError("window_push needs enable_window() first")
    if len(ids) == 0:
        return
    width = len(ids).bit_length()
    key = np.sort((np.asarray(ids, dtype=np.int64) << width) | np.arange(len(ids)))
    sid = key >> width
    sbit = np.asarray(bits).take(key & ((1 << width) - 1)).astype(np.uint8)
    starts = np.flatnonzero(np.concatenate(([True], sid[1:] != sid[:-1])))
    counts = np.diff(np.append(starts, len(sid)))
    # Busiest nodes first, so the nodes still active in round j are a
    # prefix of the list.
    order = np.argsort(-counts)
    starts, counts = starts[order], counts[order]
    nodes = sid[starts]
    active = np.searchsorted(-counts, -np.arange(counts[0]))
    rounds = ((sbit[starts[:m] + j], True) for j, m in enumerate(active))
    _push_rounds(state, nodes, nodes, rounds)


def fold_views(state: ArrayState, rows, live: np.ndarray, view=None):
    """Lines 5-7 for the live nodes ``live`` (row index ``rows``): fold
    every valid view entry's comparison into the node's counters.

    Returns ``(view, valid, counts, a_self)`` — the nodes' view rows
    (``view`` if the caller already holds them, else a zero-copy slice
    of the state when ``rows`` is one), their occupied-and-alive mask,
    its per-row counts, and their attributes.
    """
    if view is None:
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
    if state.window is not None:  # one round per view column: row-major per node
        _push_rounds(state, rows, live, zip(le_bits.view(np.uint8).T, valid.T))
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
    node_distance: np.ndarray, view: np.ndarray, valid: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Lines 8-10: per row, the column of the valid neighbor whose
    published estimate is closest to a slice boundary (column 0 for a
    row with none).  ``dist`` is a function of the neighbor's estimate
    alone, so the caller evaluates it once per node
    (``geometry.boundary_distance(state.value[:state.size])``) and it
    is gathered here, not computed once per view slot."""
    if counts.min() == view.shape[1]:
        return np.argmin(np.take(node_distance, view), axis=1)
    distance = np.take(node_distance, np.where(valid, view, 0))
    distance[~valid] = np.inf
    return np.argmin(distance, axis=1)


def deliver_updates(
    state: ArrayState, targets: np.ndarray, senders_attr: np.ndarray, lo: int, hi: int
) -> None:
    """Lines 13-14 + 17-21: one-way ``UPD`` delivery to targets within
    rows ``[lo, hi)`` — per-row event counts added to the counters (or,
    with a sliding window, window events in event order)."""
    upd_le = (senders_attr <= state.attribute[targets]).astype(np.float64)
    if state.window is not None:
        window_push(state, targets, upd_le)
    else:
        # Each event adds an exact 1.0 (or 0.0), so a row's total is its
        # event count whatever the order — counted in one pass that,
        # unlike ``np.add.at``, runs without the GIL.
        local = targets - lo
        rows = hi - lo
        state.obs_total[lo:hi] += np.bincount(local, minlength=rows)
        state.obs_le[lo:hi] += np.bincount(local, weights=upd_le, minlength=rows)


def recompute_estimates(state: ArrayState, live: np.ndarray) -> None:
    """Lines 15-16 for the live nodes ``live``: ``value = l / g`` where
    any observation exists."""
    totals = state.obs_total[live]
    observed = totals > 0
    rows_obs = live[observed]
    state.value[rows_obs] = state.obs_le[rows_obs] / totals[observed]
