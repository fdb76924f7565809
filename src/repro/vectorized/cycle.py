"""The bulk cycle, as a command sequence: plan centrally, apply per shard.

This is the one definition of what a cycle of the bulk engines does
between the plan and the metrics hooks.  Every cycle splits into
*plan* and *apply*:

* the **driver plans centrally** — one shared
  :class:`~repro.bulk.CyclePlan` per cycle supplies churn, every random
  draw and the exchange-wave pairing in the canonical stream order;
  the phase functions here only slice the planned blocks per shard and
  stage them in the executor's scratch;
* the **shards apply** — aging/purging/filling views, folding rank
  counters, computing partner choices and executing the wave swaps,
  each kernel (:mod:`repro.vectorized.kernels`) over its own contiguous
  id range (cross-shard wave pairs are fine: waves are node-disjoint).

The phase functions know nothing about *where* the kernels run: they
dispatch through an executor (:mod:`repro.vectorized.executor`), which
is the calling thread for ``backend="vectorized"``, that thread plus a
pool of others over the same arrays for ``"sharded"`` and framed
messages for ``"distributed"``.  Because the plan is identical for every executor
and each applied step is either row-local or wave-disjoint, a run's
arrays are **bitwise identical** whichever executor ran it, at any
worker count.

Each phase opens the same telemetry spans on every executor
(``refresh/age_purge``, ``refresh/partner_select``, ``refresh/waves``;
``ranking/fold``, ``ranking/targets``, ``ranking/upd_deliver``;
``ordering/select``, ``ordering/exchange``); the executors' ``cmd:*``
dispatch spans nest one level below.
"""

from __future__ import annotations

import numpy as np

from repro.bulk.concurrency import run_exchanges
from repro.core.ordering import SELECTION_RANDOM, SELECTION_RANDOM_MISPLACED

__all__ = [
    "refresh_phases",
    "ranking_phases",
    "ordering_phases",
    "ExchangeApplier",
    "prefix_offsets",
    "shard_run_payloads",
    "shard_cut",
]


def prefix_offsets(counts):
    """``(offsets, total)``: each shard's start in the concatenation
    of per-shard runs of the given lengths."""
    offsets, acc = [], 0
    for count in counts:
        offsets.append(acc)
        acc += count
    return offsets, acc


def shard_run_payloads(bounds, capacity, keys):
    """Per-shard ``{offset, count}`` runs of an ascending key array —
    proposals are gathered in shard order and wave/round selection
    preserves order, so each shard owns one contiguous run."""
    lows = [lo for lo, _hi in bounds]
    cuts = np.searchsorted(keys, lows + [capacity])
    return [
        {"offset": int(cuts[i]), "count": int(cuts[i + 1] - cuts[i])}
        for i in range(len(bounds))
    ]


def shard_cut(bounds, rows):
    """``(order, runs)`` for row ids in any order: the stable
    permutation that groups ``rows`` by owning shard — each shard's
    rows keep their relative order — and every shard's ``{offset,
    count}`` run of the grouped list.  One comparison pass per shard
    boundary and one index pass per shard: for the handful of shards a
    machine has cores for, a fraction of what sorting by owner costs."""
    owner = np.zeros(len(rows), dtype=np.min_scalar_type(len(bounds)))
    for lo, _hi in bounds[1:]:
        owner += rows >= lo
    groups = [np.flatnonzero(owner == shard) for shard in range(len(bounds))]
    offsets, _total = prefix_offsets(len(group) for group in groups)
    runs = [
        {"offset": offset, "count": len(group)}
        for offset, group in zip(offsets, groups)
    ]
    return np.concatenate(groups), runs


def _segments(executor, counts, name: str) -> list:
    """The per-shard segments the kernels published at their own ``lo``
    under one scratch name, in shard order — views, not copies."""
    array = executor.scratch[name]
    return [array[lo : lo + count] for (lo, _hi), count in zip(executor.bounds, counts)]


def _gather_proposals(executor, counts, names):
    """Compact those segments into one array per scratch name."""
    return tuple(np.concatenate(_segments(executor, counts, name)) for name in names)


def refresh_phases(executor, state, plan, uniform: bool, telemetry) -> list:
    """One batched membership round over every live node (Figure 3), or
    the uniform oracle's redraw (Figure 6(b)'s "uniform" curve).
    Returns the per-shard live-row counts the age pass reported."""
    shards = len(executor.bounds)
    scratch = executor.scratch
    scratch.begin_phase()
    with telemetry.span("age_purge"):
        occupancy = scratch.ensure("occupancy", np.int64, shards, keep=True)
        # The jitter comes before the fill draws in the canonical draw
        # order: its size depends only on the live count, which
        # age/purge/fill never change, while the fill size needs the
        # age pass's replies.  Drawn straight into its slot.
        if not uniform:
            slots = state.live_count * state.view_size
            plan.partner_jitter(scratch.ensure("jitter", np.float32, slots)[:slots])
        replies = executor.run(
            "refresh_age",
            [{"uniform": uniform, "shard": index} for index in range(shards)],
        )
        # Live counts ride the occupancy slots (one per shard, written
        # by refresh_age) — the load tracking shard_live_loads() reads.
        live_counts = [int(count) for count in occupancy[:shards]]
        empty_counts = [reply["empty"] for reply in replies]
        live_offsets, live_total = prefix_offsets(live_counts)
        if not uniform:
            # Every live row was purged (purge_dead_entries per shard).
            state.maybe_dead_entries = False
        empty_offsets, empty_total = prefix_offsets(empty_counts)
        draws = plan.fill_draws(live_total, empty_total)  # empty-view recovery
        if empty_total:
            # The driver resolves the draws to node ids itself: its
            # alive column is current on every executor, and the
            # concatenated per-shard live runs are exactly the
            # ascending global live ids.
            fill_ids = scratch.ensure("fill_ids", np.int64, empty_total)
            fill_ids[:empty_total] = state.live_at(draws)

    with telemetry.span("partner_select"):
        if not uniform:
            scratch.ensure("prop_a", np.int64, state.capacity)
            scratch.ensure("prop_b", np.int64, state.capacity)
        if empty_total or not uniform:
            replies = executor.run(
                "refresh_fill_partners",
                [
                    {
                        "fill_offset": fill_offset,
                        "fill_count": fill_count,
                        "jitter_offset": live_offset,
                        "live_count": live_count,
                        "partners": not uniform,
                    }
                    for fill_offset, fill_count, live_offset, live_count in zip(
                        empty_offsets, empty_counts, live_offsets, live_counts
                    )
                ],
            )
        if uniform:
            return live_counts
        initiators, partners = _gather_proposals(
            executor, [reply["props"] for reply in replies], ("prop_a", "prop_b")
        )
        # Transient partitions (fault model): a proposal whose partner
        # sits across the partition cannot connect this cycle — skip it,
        # exactly as the reference sampler's failed connection attempt.
        # Filtering preserves the ascending initiator order the
        # contiguous per-shard cutting relies on.
        if plan.faults_enabled:
            crossing = plan.partition_mask(initiators, partners)
            if crossing is not None:
                initiators = initiators[~crossing]
                partners = partners[~crossing]

    with telemetry.span("waves"):
        no_payload = np.zeros(len(initiators), dtype=bool)
        waves = plan.waves("sampler", initiators, partners, no_payload, state.size)
        largest = max([1] + [len(side_a) for side_a, _side_b, _unused in waves])
        wave_a = scratch.ensure("wave_a", np.int64, largest)
        wave_b = scratch.ensure("wave_b", np.int64, largest)
        for side_a, side_b, _unused in waves:
            # Consecutive waves can share nodes: one barrier per wave.
            wave_a[: len(side_a)] = side_a
            wave_b[: len(side_b)] = side_b
            executor.run(
                "refresh_swap",
                shard_run_payloads(executor.bounds, state.capacity, side_a),
            )
    if telemetry.enabled:
        telemetry.count("sampler.exchanges", len(initiators))
        telemetry.count("sampler.waves", len(waves))
    return live_counts


def ranking_phases(
    executor, state, plan, boundary_bias: bool, stats, queue, cycle: int, telemetry
) -> None:
    """One batched active round of the ranking algorithm (Figure 5).

    With a fault model attached, each one-way ``UPD`` draws a fate:
    lost (or partition-suppressed) messages are dropped from the event
    stream, delayed ones go to the ``queue`` mailbox with the sender's
    attribute frozen, and mail sent ``d`` cycles ago lands now —
    prepended to the stream, so the sliding window observes late events
    before this cycle's inline ones."""
    shards = len(executor.bounds)
    scratch = executor.scratch
    scratch.begin_phase()
    with telemetry.span("fold"):
        replies = executor.run("rank_fold", [{"boundary_bias": boundary_bias}] * shards)
    row_counts = [reply["rows"] for reply in replies]
    row_offsets, total_rows = prefix_offsets(row_counts)
    event_targets = np.empty(0, dtype=np.int64)
    event_senders = np.empty(0, dtype=np.float64)
    overlapping = 0
    sent = lost_count = delayed_count = matured_count = 0
    if total_rows:
        with telemetry.span("targets"):
            u1 = None
            if not boundary_bias:
                u1 = scratch.ensure("u1", np.float64, total_rows)[:total_rows]
            u2 = scratch.ensure("u2", np.float64, total_rows)[:total_rows]
            plan.ranking_uniforms(u1, u2)
            capacity = state.capacity
            scratch.ensure("tgt1", np.int64, capacity)
            scratch.ensure("tgt2", np.int64, capacity)
            scratch.ensure("sattr", np.float64, capacity)
            if plan.faults_enabled:
                scratch.ensure("sid", np.int64, capacity)
            executor.run(
                "rank_targets",
                [
                    {"offset": offset, "count": count, "sids": plan.faults_enabled}
                    for offset, count in zip(row_offsets, row_counts)
                ],
            )
            # Compact per-shard target segments into the global UPD
            # list: all j1 targets (shard order), then all j2 targets.
            event_targets = np.concatenate(
                _segments(executor, row_counts, "tgt1")
                + _segments(executor, row_counts, "tgt2")
            )
            event_senders = np.concatenate(2 * _segments(executor, row_counts, "sattr"))
            # Section 4.5.2: overlapping UPD messages are flushed after
            # the inline ones, in random order.  One-way messages
            # compare only immutable attributes, so overlap reorders
            # the event stream (which the sliding window observes)
            # without changing counters; the per-shard cut below keeps
            # the global order per row, so shards stay bitwise aligned.
            order, overlapping = plan.upd_schedule(2 * total_rows)
            if order is not None:
                event_targets = event_targets[order]
                event_senders = event_senders[order]
            sent = len(event_targets)

            # Fault fates: lost (or partition-crossing) UPDs vanish;
            # delayed ones are mailed with the sender attribute frozen.
            if plan.faults_enabled:
                sender_ids = np.concatenate(2 * _segments(executor, row_counts, "sid"))
                if order is not None:
                    sender_ids = sender_ids[order]
                crossing = plan.partition_mask(sender_ids, event_targets)
                lost, delay = plan.message_faults("upd", len(event_targets))
                if crossing is not None:
                    lost = lost | crossing
                delayed = ~lost & (delay > 0)
                if queue is not None and delayed.any():
                    delayed_idx = np.flatnonzero(delayed)
                    lateness = delay[delayed_idx]
                    for d in np.unique(lateness):
                        group = delayed_idx[lateness == d]
                        queue.push_upd(
                            cycle + int(d), event_targets[group], event_senders[group]
                        )
                lost_count = int(lost.sum())
                delayed_count = int(delayed.sum())
                if lost_count or delayed_count:
                    keep = ~(lost | delayed)
                    event_targets = event_targets[keep]
                    event_senders = event_senders[keep]

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
                event_targets = np.concatenate([matured_targets, event_targets])
                event_senders = np.concatenate([matured_attr, event_senders])

    n_events = len(event_targets)
    with telemetry.span("upd_deliver"):
        runs = [{"offset": 0, "count": n_events}] * shards
        if n_events:
            targets = scratch.ensure("targets", np.int64, n_events)
            senders = scratch.ensure("senders", np.float64, n_events)
            if shards > 1:
                # Cut the event list by target shard once, here, keeping
                # the global order within each shard (the sliding window
                # observes per-node event order).
                order, runs = shard_cut(executor.bounds, event_targets)
                np.take(event_targets, order, out=targets[:n_events], mode="clip")
                np.take(event_senders, order, out=senders[:n_events], mode="clip")
            else:  # one shard: a 1 ms copy at n=4e5, where the cut costs 5
                targets[:n_events] = event_targets
                senders[:n_events] = event_senders
        del event_targets, event_senders  # staged: not held through the kernel
        # One kernel delivers the events and recomputes the estimates.
        executor.run("rank_apply", runs)
    if sent or matured_count:
        stats.note_round(messages=sent, intended=0)
        stats.note_overlapping(overlapping)
        if lost_count:
            stats.note_lost(lost_count)
        if delayed_count:
            stats.note_delayed(delayed_count)
        if matured_count:
            stats.note_matured(matured_count)
    if telemetry.enabled:
        telemetry.count("ranking.upd_messages", n_events)


def ordering_phases(
    executor, state, plan, selection: str, live_counts, stats, queue, cycle: int,
    telemetry,
) -> None:
    """One batched active round of the configured ordering variant
    (Figure 2), including the planned message-overlap and fault models
    (``queue`` is the delayed-delivery mailbox, consulted only when the
    plan carries an enabled fault model).  ``live_counts`` are the
    per-shard live-row counts :func:`refresh_phases` returned."""
    scratch = executor.scratch
    scratch.begin_phase()
    live_offsets, live_total = prefix_offsets(live_counts)
    with telemetry.span("select"):
        if selection in (SELECTION_RANDOM, SELECTION_RANDOM_MISPLACED):
            u1 = scratch.ensure("u1", np.float64, live_total)
            u1[:live_total] = plan.ordering_uniforms(live_total)
        capacity = state.capacity
        scratch.ensure("prop_a", np.int64, capacity)
        scratch.ensure("prop_b", np.int64, capacity)
        scratch.ensure("prop_x", np.uint8, capacity)
        replies = executor.run(
            "ord_select",
            [
                {"selection": selection, "offset": offset, "count": count}
                for offset, count in zip(live_offsets, live_counts)
            ],
        )
        initiators, targets, intended = _gather_proposals(
            executor,
            [reply["props"] for reply in replies],
            ("prop_a", "prop_b", "prop_x"),
        )
        intended = intended.astype(bool)
    stats.note_round(messages=2 * len(initiators), intended=int(intended.sum()))
    with telemetry.span("exchange"):
        applier = ExchangeApplier(executor, capacity, len(initiators))
        run_exchanges(
            state, plan, initiators, targets, intended, applier, stats,
            queue=queue, cycle=cycle,
        )


class ExchangeApplier:
    """The mutating half of :func:`repro.bulk.concurrency.run_exchanges`.

    Each operation dispatches one phase to the shards: wave pairs are
    cut by initiator, delivery rounds by receiver (the plan sorts each
    round by receiver id), and the shards call the shared
    ``wave_exchange`` / ``deliver_one_sided`` primitives on their own
    contiguous runs.  Per-exchange outcomes land in scratch at the
    exchange's slot (``x_resp`` / ``x_reqs`` / ``x_ackv``), where both
    later phases and the driver's central swap accounting read them.
    """

    def __init__(self, executor, capacity: int, n_exchanges: int) -> None:
        self._executor = executor
        self._capacity = capacity
        self.n = n_exchanges
        scratch = executor.scratch
        size = max(1, n_exchanges)
        for name, dtype in (
            ("x_resp", np.uint8),
            ("x_reqs", np.uint8),
            ("x_ackv", np.float64),
            ("wave_a", np.int64),
            ("wave_b", np.int64),
            ("wave_d", np.uint8),
            ("wave_s", np.int64),
            ("del_r", np.int64),
            ("del_s", np.int64),
            ("del_p", np.float64),
            ("del_t", np.int64),
            ("del_a", np.float64),
        ):
            scratch.ensure(name, dtype, size)
        scratch["x_resp"][:n_exchanges] = 0
        scratch["x_reqs"][:n_exchanges] = 0

    def _cut_payloads(self, keys: np.ndarray):
        return shard_run_payloads(self._executor.bounds, self._capacity, keys)

    def wave(self, side_i, side_j, defer_ack, slots) -> None:
        scratch = self._executor.scratch
        count = len(side_i)
        scratch["wave_a"][:count] = side_i
        scratch["wave_b"][:count] = side_j
        scratch["wave_d"][:count] = defer_ack
        scratch["wave_s"][:count] = slots
        self._executor.run("conc_wave", self._cut_payloads(side_i))

    def _deliver(self, command, receivers, senders, slots) -> None:
        scratch = self._executor.scratch
        count = len(receivers)
        scratch["del_r"][:count] = receivers
        scratch["del_s"][:count] = senders
        scratch["del_t"][:count] = slots
        self._executor.run(command, self._cut_payloads(receivers))

    def deliver_req(self, receivers, senders, payloads, slots) -> None:
        self._executor.scratch["del_p"][: len(receivers)] = payloads
        self._deliver("conc_req", receivers, senders, slots)

    def deliver_ack(self, receivers, senders, slots) -> None:
        self._deliver("conc_ack", receivers, senders, slots)

    def deliver_matured(self, receivers, sender_attributes, payloads) -> None:
        # Matured delayed mail: attributes and payloads were frozen at
        # send time, and no exchange slot exists to record against.
        # The matured batch can exceed this cycle's exchange count, so
        # the staging buffers are re-ensured at the batch size.
        scratch = self._executor.scratch
        count = len(receivers)
        size = max(1, count)
        del_r = scratch.ensure("del_r", np.int64, size)
        del_a = scratch.ensure("del_a", np.float64, size)
        del_p = scratch.ensure("del_p", np.float64, size)
        del_r[:count] = receivers
        del_a[:count] = sender_attributes
        del_p[:count] = payloads
        self._executor.run("fault_deliver", self._cut_payloads(receivers))

    def ack_values(self):
        return self._executor.scratch["x_ackv"][: self.n]

    def results(self):
        scratch = self._executor.scratch
        return (
            scratch["x_resp"][: self.n].astype(bool),
            scratch["x_reqs"][: self.n].astype(bool),
        )
