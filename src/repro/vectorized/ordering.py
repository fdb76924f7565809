"""Batched ordering rounds: JK / mod-JK (Section 4, vectorized).

:func:`select_exchanges` performs, for a block of live rows at once,
the selection half of what :class:`~repro.core.ordering.OrderingProtocol`
does per node:

* evaluate the misplacement predicate ``(a_j - a_i)(r_j - r_i) < 0``
  against every view neighbor's *current* values (the cycle model's
  "view is up-to-date when a message is sent");
* select a gossip partner per the configured policy — uniformly random
  (JK), uniformly random misplaced, or the Equation-2 max-gain
  misplaced neighbor (mod-JK), whose local-sequence ranks are computed
  with per-row ``argsort`` over the view-plus-self items.

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


def _local_ranks(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-row 0-based ranks of ``keys`` with ties broken by id —
    the batched twin of ``ordering.local_sequences``."""
    by_id = np.argsort(ids, axis=1, kind="stable")
    keys_by_id = np.take_along_axis(keys, by_id, axis=1)
    by_key = np.argsort(keys_by_id, axis=1, kind="stable")
    order = np.take_along_axis(by_id, by_key, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(keys.shape[1]), keys.shape), axis=1
    )
    return ranks


def select_exchanges(
    state: ArrayState, rows, live: np.ndarray, selection: str, draw_uniforms
):
    """The selection half of a round for the live nodes ``live`` (row
    index ``rows``): evaluate the misplacement predicate against every
    valid view neighbor and pick one gossip partner per node under
    ``selection``.  ``draw_uniforms()`` supplies the per-node uniforms
    of the two random policies (never called by max-gain, which draws
    none).  Returns ``(initiators, targets, intended)``, ascending by
    initiator."""
    view = take_rows(state.view_ids, rows)
    valid = _valid_slots(state, view)
    safe = np.where(valid, view, 0)
    a_self = take_rows(state.attribute, rows)[:, None]
    r_self = take_rows(state.value, rows)[:, None]
    a_peer = np.where(valid, np.take(state.attribute, safe), np.inf)
    r_peer = np.where(valid, np.take(state.value, safe), np.inf)
    misplaced = valid & ((a_peer - a_self) * (r_peer - r_self) < 0.0)

    if selection == SELECTION_RANDOM:
        chosen = valid.any(axis=1)
        cols = _random_valid_column_from(valid, draw_uniforms())
        intended = pick_columns(misplaced, cols)
    elif selection == SELECTION_RANDOM_MISPLACED:
        chosen = misplaced.any(axis=1)
        cols = _random_valid_column_from(misplaced, draw_uniforms())
        intended = chosen
    else:
        chosen = misplaced.any(axis=1)
        ids = np.concatenate([live[:, None], np.where(valid, view, EMPTY)], axis=1)
        cols = _max_gain_columns(
            ids,
            np.concatenate([a_self, a_peer], axis=1),
            np.concatenate([r_self, r_peer], axis=1),
            misplaced,
        )
        intended = chosen
    return live[chosen], pick_columns(view, cols)[chosen], intended[chosen]


def _max_gain_columns(
    ids: np.ndarray, attr: np.ndarray, value: np.ndarray, misplaced: np.ndarray
) -> np.ndarray:
    """mod-JK partner selection: per row, the misplaced neighbor
    maximizing Equation 2's score over the view-plus-self items
    (column 0 is the node itself; invalid slots carry ``EMPTY`` ids and
    ``+inf`` keys)."""
    # Invalid slots sort to the tail of both local sequences (same
    # +inf key in each), so valid items get the same local ranks the
    # reference computes over the valid items alone.
    ids_for_ties = np.where(ids == EMPTY, np.iinfo(np.int64).max, ids)
    l_alpha = _local_ranks(attr, ids_for_ties)
    l_rho = _local_ranks(value, ids_for_ties)
    la_self, lr_self = l_alpha[:, :1], l_rho[:, :1]
    la_peer, lr_peer = l_alpha[:, 1:], l_rho[:, 1:]
    gain = la_self * lr_peer + la_peer * lr_self - la_peer * lr_peer
    gain = np.where(misplaced, gain, -np.inf)
    return np.argmax(gain, axis=1)
