"""The paper's artificial message-overlap model, batched (Section 4.5.2).

The reference engine models concurrency per message: an overlapping
message carries the sender's state at send time but is applied against
the receiver's state only after other exchanges of the cycle may have
modified it — the stale payload can turn an intended swap into an
*unsuccessful* one-sided swap (:mod:`repro.engine.network`).  The bulk
backends reproduce the same physics with planned masks:

* every exchange's REQ and ACK message overlaps independently with the
  plan's probability (1/2 for ``half``, 1 for ``full``);
* exchanges whose REQ does **not** overlap execute in node-disjoint
  waves against current state — atomically when the ACK is inline too,
  responder-side only when the ACK overlaps (the requester's half is
  deferred with the responder's pre-swap value as the ACK payload);
* overlapping REQs are flushed afterwards in random order as one-sided
  deliveries: the responder applies the misplacement predicate between
  its *current* value and the *stale* payload (the initiator's value
  at send time) and adopts it when the predicate holds;
* finally every deferred ACK is delivered, again in random order: the
  requester applies the predicate against the responder's pre-swap
  value.  Under full concurrency this reduces to the paper's "every
  REQ of a cycle is delivered before any ACK".

:func:`run_exchanges` orchestrates those phases once over an *applier*
that performs the state mutations.  The one applier
(:class:`repro.vectorized.cycle.ExchangeApplier`) dispatches each phase
as a command through the run's executor; every shard then calls
:func:`wave_exchange` / :func:`deliver_one_sided` on its own rows — so
every executor runs, bit for bit, the same schedule.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wave_exchange", "deliver_one_sided", "run_exchanges"]


def wave_exchange(
    state,
    side_i: np.ndarray,
    side_j: np.ndarray,
    defer_ack: np.ndarray,
):
    """One node-disjoint wave of REQ/ACK exchanges.

    Re-checks the misplacement predicate at processing time (Figure 2,
    lines 10-19).  Pairs whose ACK is inline swap atomically — both
    sides together, as the reference engine's synchronous delivery
    does.  Pairs flagged in ``defer_ack`` apply the responder side
    only; the requester's half happens later, from the returned ACK
    payload.  Returns ``(swap, ack_payload)`` where ``swap`` is the
    responder-side outcome and ``ack_payload`` the responder's
    pre-swap value.
    """
    a_i, r_i = state.attribute[side_i], state.value[side_i]
    a_j, r_j = state.attribute[side_j], state.value[side_j]
    swap = (a_j - a_i) * (r_j - r_i) < 0.0
    state.value[side_j[swap]] = r_i[swap]
    atomic = swap & ~defer_ack
    state.value[side_i[atomic]] = r_j[atomic]
    return swap, r_j


def deliver_one_sided(
    state,
    receivers: np.ndarray,
    sender_attributes: np.ndarray,
    payload_values: np.ndarray,
):
    """Deliver one receiver-disjoint round of stale messages.

    Each receiver applies the misplacement predicate between its
    *current* value and the frozen payload, adopting the payload value
    when it holds — the reference engine's one-sided swap.  Returns
    ``(swap, pre_values)`` with the receivers' pre-delivery values
    (the payload of a generated ACK).
    """
    a_recv, r_recv = state.attribute[receivers], state.value[receivers]
    swap = (sender_attributes - a_recv) * (payload_values - r_recv) < 0.0
    state.value[receivers[swap]] = payload_values[swap]
    return swap, r_recv


def run_exchanges(
    state, plan, initiators, targets, intended, applier, stats, queue=None, cycle=0
):
    """Execute one cycle's REQ/ACK exchanges under the plan's overlap
    and fault models (see the module docstring for the phase
    semantics).

    ``state`` is only *read* here (send-time payload capture); all
    mutation goes through the ``applier``: ``wave(side_i, side_j,
    defer_ack, slots)``, ``deliver_req(receivers, senders, payloads,
    slots)``, ``deliver_ack(receivers, senders, slots)`` and
    ``deliver_matured(receivers, sender_attributes, payloads)`` apply
    one phase each and record per-exchange outcomes at the exchange's
    slot, read back through ``ack_values()`` (the responders' pre-swap
    values, i.e. the ACK payloads) and ``results()`` (did the
    responder / the requester adopt a value).  Swap-outcome accounting
    lands in ``stats``: ``swaps`` counts exchanges whose responder
    adopted the requester's value (identical to the atomic pair count
    when concurrency is off) and ``unsuccessful`` the intended swaps
    that did not complete on both sides (Figure 4(c)'s numerator).
    Matching the reference engine, only exchanges touched by an
    overlapping message — or, with a fault model attached, by a lost,
    delayed, or partition-suppressed message — can be unsuccessful: an
    inline REQ/ACK pair is delivered synchronously, so its send-time
    intent and its processing-time outcome are definitionally the same
    check.

    With faults enabled (``plan.faults_enabled``) the pipeline grows a
    Phase 0 and per-message fates:

    * Phase 0 delivers every *matured* delayed message from ``queue``
      (sent ``d`` cycles ago, landing now) to its still-alive
      receivers, in receiver-disjoint rounds on the ``faults`` stream;
    * a REQ that is lost or crosses an active partition kills its
      exchange outright; a *delayed* REQ freezes its payload now and
      mails it — it will be delivered one-sided, so the requester never
      sees an ACK (the same duplication hazard a lost ACK creates);
    * a lost ACK leaves the responder's one-sided swap in place; a
      delayed ACK is mailed back to the requester with the responder's
      pre-swap value frozen as payload.
    """
    faults_on = plan.faults_enabled

    # Phase 0: deliver matured delayed mail (runs even when this
    # cycle's own exchange set is empty).
    if faults_on and queue is not None:
        matured = queue.pop_values(cycle)
        if matured is not None:
            m_recv, m_attr, m_payload = matured
            alive = state.alive[m_recv]
            m_recv, m_attr, m_payload = (
                m_recv[alive],
                m_attr[alive],
                m_payload[alive],
            )
            if stats is not None and len(m_recv):
                stats.note_matured(len(m_recv))
            for round_positions in plan.delivery_rounds(
                m_recv, stream=plan.FAULTS_STREAM
            ):
                applier.deliver_matured(
                    m_recv[round_positions],
                    m_attr[round_positions],
                    m_payload[round_positions],
                )

    n = len(initiators)
    if n == 0:
        return

    if faults_on:
        crossing = plan.partition_mask(initiators, targets)
        req_lost, req_delay = plan.message_faults("req", n)
        ack_lost, ack_delay = plan.message_faults("ack", n)
        if crossing is not None:
            req_lost = req_lost | crossing
            # A partitioned link suppresses the ACK too; folding it
            # into the REQ fate (the exchange never starts) models it.
        req_dead = req_lost
        req_delayed = ~req_dead & (req_delay > 0)
        live_inline = ~(req_dead | req_delayed)
        ack_deferred_fault = ack_lost | (ack_delay > 0)
    else:
        live_inline = np.ones(n, dtype=bool)
        req_dead = req_delayed = np.zeros(n, dtype=bool)
        ack_lost = ack_deferred_fault = req_dead
        ack_delay = np.zeros(n, dtype=np.int64)

    req_overlap, ack_overlap = plan.exchange_overlap(n)
    slots = np.arange(n, dtype=np.int64)

    # Delayed REQs freeze their payload at send time and go to the
    # mailbox; they land as one-sided deliveries d cycles from now.
    if faults_on and queue is not None and req_delayed.any():
        delayed_idx = np.flatnonzero(req_delayed)
        frozen_attr = state.attribute[initiators[delayed_idx]]
        frozen_value = state.value[initiators[delayed_idx]]
        lateness = req_delay[delayed_idx]
        for d in np.unique(lateness):
            group = lateness == d
            queue.push_values(
                cycle + int(d),
                targets[delayed_idx[group]],
                frozen_attr[group],
                frozen_value[group],
            )

    # Overlapping REQs carry the sender's state at send time (fancy
    # indexing copies, freezing the payload against later swaps).
    overlapped = np.flatnonzero(live_inline & req_overlap)
    req_payload = state.value[initiators[overlapped]]

    # Phase 1: inline REQs execute in node-disjoint waves.  An ACK that
    # is lost, delayed, or overlapping defers the requester's half.
    inline = live_inline & ~req_overlap
    defer = ack_overlap | ack_deferred_fault
    for side_i, side_j, wave_slots in plan.waves(
        "ordering", initiators[inline], targets[inline], slots[inline], state.size
    ):
        applier.wave(side_i, side_j, defer[wave_slots], wave_slots)

    # Phase 2: flush the overlapping REQs (random order, one-sided).
    for round_positions in plan.delivery_rounds(targets[overlapped]):
        idx = overlapped[round_positions]
        applier.deliver_req(
            targets[idx],
            initiators[idx],
            req_payload[round_positions],
            idx,
        )

    # Phase 3: deliver every deferred ACK back to its requester — except
    # those the fault model killed (lost) or postponed (delayed).
    deferred = np.flatnonzero(
        live_inline & (req_overlap | ack_overlap) & ~ack_deferred_fault
    )
    for round_positions in plan.delivery_rounds(initiators[deferred]):
        idx = deferred[round_positions]
        applier.deliver_ack(initiators[idx], targets[idx], idx)

    # Delayed ACKs: the responder processed the REQ, so its pre-swap
    # value (the ACK payload) is on record; mail it to the requester
    # with the responder's attribute frozen now.
    ack_delayed = live_inline & ~ack_lost & (ack_delay > 0)
    if faults_on and queue is not None and ack_delayed.any():
        ack_idx = np.flatnonzero(ack_delayed)
        ack_payload = np.asarray(applier.ack_values())[ack_idx]
        responder_attr = state.attribute[targets[ack_idx]]
        lateness = ack_delay[ack_idx]
        for d in np.unique(lateness):
            group = lateness == d
            queue.push_values(
                cycle + int(d),
                initiators[ack_idx[group]],
                responder_attr[group],
                ack_payload[group],
            )

    if stats is not None:
        resp_swapped, req_swapped = applier.results()
        touched = req_overlap | ack_overlap
        if faults_on:
            touched = touched | req_dead | req_delayed
            touched = touched | (live_inline & ack_deferred_fault)
            n_lost = int(req_dead.sum()) + int((live_inline & ack_lost).sum())
            n_delayed = int(req_delayed.sum()) + int(ack_delayed.sum())
            if n_lost:
                stats.note_lost(n_lost)
            if n_delayed:
                stats.note_delayed(n_delayed)
        completed = resp_swapped & req_swapped
        stats.note_overlapping(int(req_overlap.sum()) + int(ack_overlap.sum()))
        stats.note_swaps(
            swapped=int(resp_swapped.sum()),
            unsuccessful=int((intended & touched & ~completed).sum()),
        )
