"""Batched Cyclon-variant view refresh (Figure 3, vectorized).

One :func:`refresh_views` call performs the membership round the
reference :class:`~repro.sampling.cyclon_variant.CyclonVariantSampler`
runs per node, as array passes over the whole population:

1. every live node's entries age by one (line 1);
2. view slots pointing at dead nodes are purged and empty slots are
   refilled from the bootstrap service (the reference's failed
   connection attempt + ``random_live_ids`` recovery);
3. every live node proposes an exchange to its *oldest* neighbor
   (line 2, ties broken uniformly at random);
4. proposals are scheduled into node-disjoint waves by the shared
   cycle plan (:mod:`repro.bulk.matching`) and each matched pair
   *swaps* views: each side adopts the other's entries, drops pointers
   to itself, and receives a fresh zero-age descriptor of its partner
   (lines 3, 5-10).

The swap semantics — adopt-what-you-received, never copy — is the
property the reference implementation documents as essential: entries
are conserved, in-degrees stay balanced around ``c`` and the overlay
remains random-graph-like.  The vectorized exchange preserves it
exactly because views are swapped wholesale between the two sides.
"""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import NULL_TELEMETRY
from repro.vectorized.state import EMPTY, ArrayState, pick_columns, put_rows, take_rows

__all__ = ["refresh_views", "refresh_views_uniform", "fill_from_plan"]

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


def _oldest_columns(
    ids: np.ndarray,
    ages: np.ndarray,
    rng: np.random.Generator = None,
    jitter: np.ndarray = None,
) -> np.ndarray:
    """Per row, the column of the oldest occupied slot (random ties).

    Rows with no occupied slot return column 0; callers must mask them
    via ``ids[row, col] == EMPTY``.  The tie-break jitter is drawn from
    ``rng`` unless a pre-drawn float32 block of the same shape is given
    (the sharded backend draws one central block and hands each shard
    its row slice).
    """
    if jitter is None:
        jitter = rng.random(ids.shape, dtype=np.float32)
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
    cols = _oldest_columns(ids, take_rows(state.view_ages, rows), jitter=jitter)
    partners = pick_columns(ids, cols)
    has_partner = partners != EMPTY
    return live[has_partner], partners[has_partner]


def fill_from_plan(state: ArrayState, plan) -> None:
    """Refill empty view slots from the plan's bootstrap draws — the
    planned twin of :meth:`ArrayState.fill_empty_slots`."""
    live = state.live_ids()
    empty_rows, empty_cols = state.empty_live_slots()
    draws = plan.fill_draws(len(live), len(empty_rows))
    if len(empty_rows):
        state.apply_fill(empty_rows, empty_cols, live[draws])


def refresh_views(state: ArrayState, plan, telemetry=NULL_TELEMETRY) -> None:
    """One batched membership round over every live node, consuming
    the :class:`~repro.bulk.CyclePlan`'s sampler-phase schedule."""
    live, rows = state.live_ids(), state.live_rows()
    if len(live) < 2:
        return

    # Tie-break jitter first: its size depends only on the live count,
    # which age/purge/fill never change, so the sharded driver can draw
    # the identical block while its age/purge barrier is in flight.
    jitter = plan.partner_jitter(len(live), state.view_size)

    with telemetry.span("age_purge"):
        _age_and_purge(state, rows)
        fill_from_plan(state, plan)  # empty-view recovery

    with telemetry.span("partner_select"):
        initiators, partners = _propose_to_oldest(state, rows, live, jitter)

        # Transient partitions (fault model): a proposal whose partner
        # sits across the partition cannot connect this cycle — skip it,
        # exactly as the reference sampler's failed connection attempt.
        # Filtering preserves the ascending initiator order the sharded
        # driver's contiguous cutting relies on.
        if plan.faults_enabled:
            crossing = plan.partition_mask(initiators, partners)
            if crossing is not None:
                initiators = initiators[~crossing]
                partners = partners[~crossing]

    with telemetry.span("waves"):
        extra = np.zeros(len(initiators), dtype=bool)  # no payload needed
        waves = 0
        for side_a, side_b, _unused in plan.waves(
            "sampler", initiators, partners, extra, state.size
        ):
            _swap_views(state, side_a, side_b)
            waves += 1
    if telemetry.enabled:
        telemetry.count("sampler.exchanges", len(initiators))
        telemetry.count("sampler.waves", waves)


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


def refresh_views_uniform(state: ArrayState, plan) -> None:
    """The idealized uniform oracle (Figure 6(b)'s "uniform" curve):
    every live node's view is redrawn uniformly from the live set."""
    if state.live_count < 2:
        return
    rows = state.live_rows()
    state.view_ids[rows] = EMPTY
    state.view_ages[rows] = 0
    fill_from_plan(state, plan)
