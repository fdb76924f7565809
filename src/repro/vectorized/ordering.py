"""Batched ordering rounds: JK / mod-JK (Section 4, vectorized).

:func:`select_exchanges` performs, for a block of live rows at once,
the selection half of what :class:`~repro.core.ordering.OrderingProtocol`
does per node:

* evaluate the misplacement predicate ``(a_j - a_i)(r_j - r_i) < 0``
  against every view neighbor's *current* values (the cycle model's
  "view is up-to-date when a message is sent");
* select a gossip partner per the configured policy — uniformly random
  (JK), uniformly random misplaced, or the Equation-2 max-gain
  misplaced neighbor (mod-JK), whose local-sequence ranks are counted
  pair by pair over the view-plus-self items, laid out column-major so
  that no step sorts or reduces along the short view axis.

The ``REQ``/``ACK`` exchange itself — re-check the predicate at
processing time and swap random values when it holds — is
:func:`repro.bulk.concurrency.run_exchanges`, driven by the cycle
(:func:`repro.vectorized.cycle.ordering_phases`).  Exchanges are
scheduled into node-disjoint waves by the shared cycle plan
(:mod:`repro.bulk`); values update between waves, so a swap sees the
*current* state of both sides exactly as the reference engine's
sequential processing does.  With atomic exchanges the predicate is
symmetric, hence both sides swap together and the random values are
conserved as a multiset — the invariant behind the SDM floor analysis
(Section 4.4).  Under the planned message-overlap model exchanges can
instead complete one-sidedly from stale payloads, reproducing the
paper's Section-4.5.2 concurrency regimes in batched form.
"""

from __future__ import annotations

import numpy as np

from repro.core.ordering import SELECTION_RANDOM, SELECTION_RANDOM_MISPLACED
from repro.vectorized.state import EMPTY, ArrayState, pick_columns, take_rows

__all__ = ["select_exchanges"]


def _valid_slots(state: ArrayState, view: np.ndarray) -> np.ndarray:
    """Occupied-and-alive mask over view slots.  The liveness gather is
    skipped while no removal has happened since the last purge."""
    occupied = view != EMPTY
    if not state.maybe_dead_entries:
        return occupied
    return occupied & np.take(state.alive, np.where(occupied, view, 0))


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """``mask.sum(axis=1)``, accumulated column by column: reducing a
    short trailing axis is numpy's slow case, ``c`` strided adds over
    the long one are not."""
    counts = mask[:, 0].astype(np.int64)
    for column in range(1, mask.shape[1]):
        counts += mask[:, column]
    return counts


def _random_valid_column_from(
    valid: np.ndarray, uniforms: np.ndarray, counts: np.ndarray = None
) -> np.ndarray:
    """Per row, a uniformly random column among the ``True`` ones,
    resolved from pre-drawn per-row uniforms (the plan draws one global
    block; the sharded backend hands each shard its slice, so any
    worker count consumes the stream identically).  ``counts`` is
    ``valid``'s per-row count, for callers that already hold it.

    Rows without any valid column return 0; callers mask them out.
    """
    if len(valid) == 0:
        return np.empty(0, dtype=np.int64)
    if counts is None:
        counts = _row_counts(valid)
    picks = (uniforms * np.maximum(counts, 1)).astype(np.int64)
    if counts.min() == valid.shape[1]:  # all slots valid: direct pick
        return picks
    cumulative = np.cumsum(valid, axis=1)
    return np.argmax(cumulative > picks[:, None], axis=1)


def select_exchanges(
    state: ArrayState, rows, live: np.ndarray, selection: str, draw_uniforms
):
    """The selection half of a round for the live nodes ``live`` (row
    index ``rows``): evaluate the misplacement predicate against every
    valid view neighbor and pick one gossip partner per node under
    ``selection``.  ``draw_uniforms()`` supplies the per-node uniforms
    of the two random policies (never called by max-gain, which draws
    none).  Returns ``(initiators, targets, intended)``, ascending by
    initiator.

    The view-plus-self items are laid out column-major — one ``(c + 1,
    n)`` block per field, the node itself in row 0, view slot ``k`` in
    row ``k + 1`` — so every pass over the view axis is a contiguous
    ``n``-long one."""
    view = take_rows(state.view_ids, rows)
    count, width = view.shape
    ids = np.empty((width + 1, count), dtype=np.int64)
    ids[0] = live
    ids[1:] = view.T
    peers = ids[1:]
    valid = _valid_slots(state, peers)
    invalid = ~valid
    attr = np.empty((width + 1, count))
    value = np.empty((width + 1, count))
    for block, column in ((attr, state.attribute), (value, state.value)):
        block[0] = take_rows(column, rows)
        # "clip" gathers straight into the block (the default mode
        # bounces through a copy) and reads row 0 for an EMPTY slot,
        # which the next line overwrites.
        np.take(column, peers, out=block[1:], mode="clip")
        np.copyto(block[1:], np.inf, where=invalid)
    product = attr[1:] - attr[0]
    product *= value[1:] - value[0]
    misplaced = product < 0.0
    misplaced &= valid

    if selection == SELECTION_RANDOM:
        chosen = valid.any(axis=0)
        cols = _random_valid_column_from(valid.T, draw_uniforms())
        intended = pick_columns(misplaced.T, cols)
    elif selection == SELECTION_RANDOM_MISPLACED:
        chosen = misplaced.any(axis=0)
        cols = _random_valid_column_from(misplaced.T, draw_uniforms())
        intended = chosen
    else:
        chosen = misplaced.any(axis=0)
        # Invalid slots go to the tail of both local sequences (+inf
        # key, largest id), so valid items get the ranks the reference
        # computes over the valid items alone.
        np.copyto(peers, np.iinfo(np.int64).max, where=invalid)
        cols = _max_gain_columns(ids, attr, value, misplaced)
        intended = chosen
    return live[chosen], pick_columns(view, cols)[chosen], intended[chosen]


def _max_gain_columns(
    ids: np.ndarray, attr: np.ndarray, value: np.ndarray, misplaced: np.ndarray
) -> np.ndarray:
    """mod-JK partner selection: per node, the first misplaced view
    slot maximizing Equation 2's score over the view-plus-self items
    (``(c + 1, n)`` blocks, the node itself in row 0; ``misplaced`` is
    ``(c, n)``).  Nodes without a misplaced neighbor return 0."""
    items, count = ids.shape
    # One signed type for ranks (<= c), scores (|score| <= 2 c^2) and
    # the chosen slot, so no step below can overflow.
    dtype = np.min_scalar_type(-2 * items * items)
    l_alpha, l_rho = _pair_counted_ranks(ids, attr, value, dtype)
    best = np.full(count, np.iinfo(dtype).min, dtype=dtype)
    cols = np.zeros(count, dtype=dtype)
    gain = np.empty(count, dtype=dtype)
    term = np.empty(count, dtype=dtype)
    better = np.empty(count, dtype=bool)
    for slot in range(items - 1):
        la_peer, lr_peer = l_alpha[slot + 1], l_rho[slot + 1]
        # la_self * lr_peer + la_peer * lr_self - la_peer * lr_peer
        np.multiply(l_alpha[0], lr_peer, out=gain)
        np.subtract(l_rho[0], lr_peer, out=term)
        term *= la_peer
        gain += term
        # Strictly greater: the first slot keeps an equal score.
        np.greater(gain, best, out=better)
        better &= misplaced[slot]
        np.copyto(best, gain, where=better)
        np.copyto(cols, slot, where=better)
    return cols


def _pair_counted_ranks(
    ids: np.ndarray, attr: np.ndarray, value: np.ndarray, dtype
) -> tuple:
    """``(l_alpha, l_rho)``: every item's 0-based rank in its node's
    local attribute and random-value sequences, ties broken by id —
    the batched twin of ``ordering.local_sequences`` on ``(c + 1, n)``
    blocks.

    Ranks are counted, not sorted: for each pair of items ``p < q`` of
    a node, ``p`` precedes ``q`` iff ``key_p < key_q``, or the keys tie
    and ``id_p <= id_q`` (equal ids — a duplicated pointer, two invalid
    slots — keep their slot order, as a stable sort would).  Whoever
    comes second has one more item ahead of it."""
    items, count = ids.shape
    l_alpha = np.zeros((items, count), dtype=dtype)
    l_rho = np.zeros((items, count), dtype=dtype)
    id_first = np.empty(count, dtype=bool)
    tied = np.empty(count, dtype=bool)
    first = np.empty(count, dtype=bool)
    bit = first.view(np.uint8)
    for q in range(1, items):
        for p in range(q):
            np.less_equal(ids[p], ids[q], out=id_first)
            for keys, ranks in ((attr, l_alpha), (value, l_rho)):
                np.less(keys[p], keys[q], out=first)
                np.equal(keys[p], keys[q], out=tied)
                tied &= id_first
                first |= tied
                np.add(ranks[q], bit, out=ranks[q])
                np.logical_not(first, out=first)
                np.add(ranks[p], bit, out=ranks[p])
    return l_alpha, l_rho
