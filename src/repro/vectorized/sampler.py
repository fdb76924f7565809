"""Batched Cyclon-variant view refresh (Figure 3, vectorized).

The building blocks of the membership round the reference
:class:`~repro.sampling.cyclon_variant.CyclonVariantSampler` runs per
node, as array passes over a block of live rows.  The cycle
(:func:`repro.vectorized.cycle.refresh_phases`) strings them together:

1. every live node's entries age by one (line 1) and view slots
   pointing at dead nodes are purged (:func:`_age_and_purge`); empty
   slots are then refilled from the bootstrap service (the reference's
   failed connection attempt + ``random_live_ids`` recovery);
2. every live node proposes an exchange to its *oldest* neighbor
   (line 2, ties broken uniformly at random — :func:`_propose_to_oldest`);
3. proposals are scheduled into node-disjoint waves by the shared
   cycle plan (:mod:`repro.bulk.matching`) and each matched pair
   *swaps* views (:func:`_swap_views`): each side adopts the other's
   entries, drops pointers to itself, and receives a fresh zero-age
   descriptor of its partner (lines 3, 5-10).

The swap semantics — adopt-what-you-received, never copy — is the
property the reference implementation documents as essential: entries
are conserved, in-degrees stay balanced around ``c`` and the overlay
remains random-graph-like.  The vectorized exchange preserves it
exactly because views are swapped wholesale between the two sides.
"""

from __future__ import annotations

import numpy as np

from repro.vectorized.state import EMPTY, ArrayState, pick_columns, put_rows, take_rows

_NEVER = -1  # age sentinel: slot cannot be chosen as partner
_INT32_MAX = np.iinfo(np.int32).max


def _age_and_purge(state: ArrayState, rows) -> None:
    """Line 1 for the given live rows — every occupied entry ages by
    one — then failed-connection pruning of pointers to dead nodes."""
    ages = take_rows(state.view_ages, rows)
    ages += take_rows(state.view_ids, rows) != EMPTY
    if not isinstance(rows, slice):  # a gathered copy: write it back
        put_rows(state.view_ages, rows, ages)
    state.purge_dead_entries(rows)


def _oldest_columns(ids: np.ndarray, ages: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """Per row, the column of the oldest occupied slot (random ties).

    Rows with no occupied slot return column 0; callers must mask them
    via ``ids[row, col] == EMPTY``.  ``jitter`` is this block's rows of
    the plan's float32 tie-break draw (one central block; each shard
    is handed its row slice).
    """
    # Random tie-break: jitter in (0, 1) cannot reorder distinct ages.
    key = ages.astype(np.float32)
    key += jitter
    key[ids == EMPTY] = _NEVER
    return np.argmax(key, axis=1)


def _propose_to_oldest(state: ArrayState, rows, live: np.ndarray, jitter: np.ndarray):
    """Line 2 for the live nodes ``live`` (row index ``rows``): each
    proposes to its oldest neighbor.  Returns ``(initiators,
    partners)`` of the nodes that have one, ascending by initiator."""
    ids = take_rows(state.view_ids, rows)
    cols = _oldest_columns(ids, take_rows(state.view_ages, rows), jitter)
    partners = pick_columns(ids, cols)
    has_partner = partners != EMPTY
    return live[has_partner], partners[has_partner]


def _swap_views(state: ArrayState, side_a: np.ndarray, side_b: np.ndarray) -> None:
    """Exchange the full views of matched pairs (Figure 3, lines 3-10).

    Each side adopts the other's current entries; pointers to itself
    are dropped (lines 5-8) and one slot is overwritten with a fresh
    zero-age descriptor of the partner, so both sides learn each
    other's up-to-date existence.
    """
    if len(side_a) == 0:
        return
    # Both directions in one pass: receiver k adopts donor k's view.
    # The sides of a wave are node-disjoint, so the donor gathers (which
    # copy) all happen before any receiver write, and each row is
    # written exactly once — per-row identical to handling the two
    # directions separately, at half the gather/argmax/scatter passes.
    receivers = np.concatenate((side_a, side_b))
    donors = np.concatenate((side_b, side_a))
    new_ids = take_rows(state.view_ids, donors)
    new_ages = take_rows(state.view_ages, donors)
    self_ptr = new_ids == receivers[:, None]
    new_ids[self_ptr] = EMPTY
    new_ages[self_ptr] = 0
    # Fresh partner descriptor replaces an empty slot if one exists,
    # otherwise the oldest entry.
    key = np.where(new_ids == EMPTY, _INT32_MAX, new_ages)
    slot = np.arange(0, new_ids.size, state.view_size) + np.argmax(key, axis=1)
    new_ids.reshape(-1)[slot] = donors
    new_ages.reshape(-1)[slot] = 0
    put_rows(state.view_ids, receivers, new_ids)
    put_rows(state.view_ages, receivers, new_ages)
