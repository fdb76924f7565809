"""One cycle's full random schedule, drawn in canonical stream order.

The bulk backends plan centrally and apply in bulk: every random
quantity a cycle consumes — churn events, bootstrap view fills,
partner-selection jitter, protocol uniforms, exchange-wave pairing,
message-overlap masks, flush delivery order — is produced here, by one
:class:`CyclePlan` per cycle, in a canonical order.  The cycle's
phase functions (:mod:`repro.vectorized.cycle`) stage the planned
blocks in the executor's scratch — the large ones are drawn straight
into their slot — and hand each shard its slice.
Because the plan is the *only* code that draws, a run is bitwise
identical on every executor — in-process, on one thread or many, or
message transport — at every worker count.

Canonical per-cycle draw order (streams in parentheses):

1. ``churn``            (churn)        — departure/arrival draws;
2. ``partner_jitter``   (sampler)      — oldest-neighbor tie-breaks;
3. ``fill_draws``       (sampler)      — bootstrap view refills;
4. ``waves('sampler')`` (sampler)      — view-exchange wave priorities;
5. protocol uniforms    (ranking/ordering) — j1/j2 or partner picks;
6. fault fates          (faults)       — loss/delay masks per message,
   drawn only when a :class:`~repro.bulk.faults.FaultModel` is attached
   (partition masks are RNG-free but traced);
7. overlap masks        (concurrency)  — per-message overlap flags;
8. exchange waves       (ordering)     — REQ/ACK wave priorities;
9. delivery rounds      (concurrency/faults) — flush shuffles.

A plan records every step it serves (:attr:`steps`); the parity tests
compare traces across executors, which turns "every executor runs the
same schedule" from a convention into an assertion.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.bulk.faults import FAULTS_STREAM, FaultModel
from repro.bulk.matching import iter_disjoint_waves
from repro.bulk.rebalance import (
    RebalancePlan,
    live_load_ratio,
    occupancy_counts,
    validate_rebalance_knobs,
)

__all__ = ["CyclePlan"]


class CyclePlan:
    """The per-cycle schedule every bulk backend consumes.

    Parameters
    ----------
    rng_of:
        Callable ``name -> np.random.Generator`` returning the named
        deterministic substream (the simulation's ``np_rng``).
    overlap_probability:
        The paper's artificial-concurrency knob: the probability that
        any one protocol message is an *overlapping* message
        (Section 4.5.2).  0 models atomic exchanges; 0.5 and 1.0 are
        the paper's ``half`` and ``full`` regimes.
    rebalance_every, rebalance_threshold:
        Dead-row compaction triggers (:mod:`repro.bulk.rebalance`):
        compact on every ``rebalance_every``-th cycle, and/or whenever
        the max/min live-load ratio over the fixed probe partition
        exceeds ``rebalance_threshold``.  ``None`` disables a trigger;
        both ``None`` (the default) disables rebalancing entirely.
    fault_model:
        Optional :class:`~repro.bulk.faults.FaultModel`.  When set (and
        enabled), :meth:`message_faults` draws per-message loss/delay
        fates from the dedicated ``faults`` stream and
        :meth:`partition_mask` suppresses cross-group pairings during
        scheduled partition windows.  ``None`` (the default) keeps the
        plan's draw sequence bitwise identical to a fault-free run.
    cycle:
        The cycle this plan schedules — the fault model's partition
        windows and the delayed-delivery landing times are cycle-indexed.
    """

    #: Stream used for overlap masks and flush shuffles.  Separate from
    #: the protocol streams so a ``concurrency="none"`` run draws
    #: exactly what it drew before the concurrency model existed.
    CONCURRENCY_STREAM = "concurrency"

    #: Stream used for per-message fault fates (same isolation
    #: contract: a fault-free run never touches it).
    FAULTS_STREAM = FAULTS_STREAM

    def __init__(
        self,
        rng_of: Callable[[str], np.random.Generator],
        overlap_probability: float = 0.0,
        rebalance_every: Optional[int] = None,
        rebalance_threshold: Optional[float] = None,
        fault_model: Optional[FaultModel] = None,
        cycle: int = 0,
    ) -> None:
        if not 0.0 <= overlap_probability <= 1.0:
            raise ValueError(
                f"overlap probability must be in [0, 1], got {overlap_probability}"
            )
        validate_rebalance_knobs(rebalance_every, rebalance_threshold)
        self._rng_of = rng_of
        self.overlap_probability = float(overlap_probability)
        self.rebalance_every = rebalance_every
        self.rebalance_threshold = rebalance_threshold
        self.fault_model = fault_model
        self.cycle = int(cycle)
        #: Trace of plan points served: ``(name, size)`` tuples.
        self.steps: List[Tuple[str, int]] = []

    def rng(self, name: str) -> np.random.Generator:
        return self._rng_of(name)

    def _note(self, name: str, size: int) -> None:
        self.steps.append((name, int(size)))

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def churn(self, bulk_churn, state, cycle: int):
        """Apply one cycle of planned churn; returns ``(departed,
        joined)`` id arrays.  The draw rides the ``churn`` stream."""
        departed, joined = bulk_churn.apply(state, cycle, self.rng("churn"))
        self._note("churn", len(departed) + len(joined))
        return departed, joined

    # ------------------------------------------------------------------
    # Shard load rebalancing (dead-row compaction)
    # ------------------------------------------------------------------

    def rebalance(self, state, cycle: int) -> Optional[RebalancePlan]:
        """Decide whether this cycle compacts the dead rows away.

        The decision is a pure function of the state, the cycle counter
        and the knobs — no RNG, and no dependence on the worker count
        (the skew probe uses the fixed
        :data:`~repro.bulk.rebalance.REBALANCE_PROBE_SHARDS` partition)
        — so every backend and every worker count reaches the same
        decision and applies the same permutation, preserving bitwise
        parity.  Returns the :class:`RebalancePlan` to apply, or
        ``None``.
        """
        every, threshold = self.rebalance_every, self.rebalance_threshold
        if every is None and threshold is None:
            return None
        live = state.live_ids()
        if len(live) < 2 or len(live) == state.size:
            return None  # nothing dead below the high-water mark
        ratio = live_load_ratio(occupancy_counts(live, state.size))
        triggered = every is not None and (cycle + 1) % every == 0
        if threshold is not None and ratio > threshold:
            triggered = True
        if not triggered:
            return None
        self._note("rebalance", len(live))
        return RebalancePlan(
            live=live.copy(), old_size=int(state.size), ratio=float(ratio)
        )

    # ------------------------------------------------------------------
    # View refresh (the Cyclon-variant membership round)
    # ------------------------------------------------------------------

    def fill_draws(self, live_total: int, empty_total: int) -> np.ndarray:
        """Bootstrap refills: one uniform index into the live set per
        empty view slot (row-major slot order).  Drawn *after* the
        partner jitter: the jitter's size depends only on the live
        count, the fill's on what the age/purge pass reports
        (``empty_total``)."""
        self._note("fill", empty_total)
        if empty_total == 0:
            return np.empty(0, dtype=np.int64)
        return self.rng("sampler").integers(0, live_total, size=empty_total)

    def partner_jitter(self, out: np.ndarray) -> None:
        """Tie-break jitter for the oldest-neighbor choice, one float32
        per view slot of every live node, drawn straight into ``out``
        (the stream is consumed as by a fresh ``random(len(out))``)."""
        self._note("jitter", len(out))
        self.rng("sampler").random(out=out, dtype=np.float32)

    # ------------------------------------------------------------------
    # Exchange-wave pairing
    # ------------------------------------------------------------------

    def waves(
        self,
        stream: str,
        initiators: np.ndarray,
        targets: np.ndarray,
        extra: np.ndarray,
        n_rows: int,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The full node-disjoint wave decomposition of a proposal set,
        materialized.  Wave priorities ride ``stream`` (``sampler`` for
        view exchanges, ``ordering`` for REQ/ACK exchanges); ``extra``
        is per-proposal payload carried through unchanged."""
        self._note(f"waves:{stream}", len(initiators))
        return [
            (side_a, side_b, wave_extra)
            for side_a, side_b, wave_extra in iter_disjoint_waves(
                initiators, targets, extra, self.rng(stream), n_rows
            )
            if len(side_a)
        ]

    # ------------------------------------------------------------------
    # Protocol uniforms
    # ------------------------------------------------------------------

    def ranking_uniforms(self, u1: Optional[np.ndarray], u2: np.ndarray) -> None:
        """The ranking round's target-selection uniforms, drawn into the
        given blocks: ``u1`` for a random ``j1`` (``None`` unless the
        boundary bias is ablated), then ``u2`` for the uniformly random
        ``j2``."""
        rng = self.rng("ranking")
        for name, out in (("rank-u1", u1), ("rank-u2", u2)):
            if out is not None:
                self._note(name, len(out))
                rng.random(out=out)

    def ordering_uniforms(self, rows: int) -> np.ndarray:
        """Per-node partner-pick uniforms for the random ordering
        selections (JK / random-misplaced)."""
        self._note("ord-u1", rows)
        return self.rng("ordering").random(rows)

    # ------------------------------------------------------------------
    # Concurrency: overlap masks and flush scheduling
    # ------------------------------------------------------------------

    def exchange_overlap(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-exchange overlap flags for the REQ and the ACK message,
        each independently overlapping with ``overlap_probability``."""
        self._note("overlap", n)
        p = self.overlap_probability
        if p <= 0.0:
            zeros = np.zeros(n, dtype=bool)
            return zeros, zeros
        if p >= 1.0:
            return np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        rng = self.rng(self.CONCURRENCY_STREAM)
        return rng.random(n) < p, rng.random(n) < p

    def upd_schedule(self, n: int) -> Tuple[Optional[np.ndarray], int]:
        """Delivery order for the ranking round's one-way ``UPD``
        messages: overlapping messages are queued behind the inline
        ones and flushed in random order.  Returns ``(order,
        overlapping_count)``; ``order=None`` means canonical order
        (no concurrency)."""
        self._note("upd-order", n)
        p = self.overlap_probability
        if p <= 0.0 or n == 0:
            return None, 0
        rng = self.rng(self.CONCURRENCY_STREAM)
        if p >= 1.0:
            overlapped = np.ones(n, dtype=bool)
        else:
            overlapped = rng.random(n) < p
        deferred = np.flatnonzero(overlapped)
        order = np.concatenate(
            [np.flatnonzero(~overlapped), deferred[rng.permutation(len(deferred))]]
        )
        return order, int(overlapped.sum())

    def delivery_rounds(
        self, receivers: np.ndarray, stream: str = CONCURRENCY_STREAM
    ) -> List[np.ndarray]:
        """Flush scheduling for one-sided message deliveries.

        The reference bus shuffles its queue and delivers sequentially;
        deliveries to *distinct* receivers commute (payloads are frozen
        at send time), so the shuffled order is regrouped into
        *receiver-disjoint rounds*: round ``k`` holds every receiver's
        ``(k+1)``-th message in shuffle order.  Applying the rounds in
        sequence reproduces, per receiver, exactly the shuffled
        sequential outcome, while each round applies as one batched
        pass.  Rounds are sorted by receiver id so the sharded driver
        can cut them into contiguous per-shard runs.

        ``stream`` picks the shuffle's RNG stream: overlap flushes ride
        ``concurrency``; matured delayed-delivery flushes ride
        ``faults`` so fault scheduling never perturbs concurrency
        draws.
        """
        receivers = np.asarray(receivers, dtype=np.int64)
        n = len(receivers)
        if stream == self.CONCURRENCY_STREAM:
            self._note("delivery", n)
        else:
            self._note(f"delivery:{stream}", n)
        if n == 0:
            return []
        perm = self.rng(stream).permutation(n)
        order = np.argsort(receivers[perm], kind="stable")
        sorted_receivers = receivers[perm][order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_receivers[1:] != sorted_receivers[:-1]))
        )
        counts = np.diff(np.append(starts, n))
        occurrence = np.arange(n) - np.repeat(starts, counts)
        by_receiver = perm[order]
        return [by_receiver[occurrence == k] for k in range(int(counts.max()))]

    # ------------------------------------------------------------------
    # Network faults: loss/delay fates and partition masks
    # ------------------------------------------------------------------

    @property
    def faults_enabled(self) -> bool:
        """True when a fault model is attached and any axis can fire.
        Callers gate every fault-path plan call on this, so a fault-free
        run serves exactly the steps (and draws exactly the bits) it
        served before the fault model existed."""
        return self.fault_model is not None and self.fault_model.enabled

    @property
    def partition_active(self):
        """The :class:`~repro.bulk.faults.PartitionWindow` covering this
        plan's cycle, or ``None``."""
        if self.fault_model is None:
            return None
        return self.fault_model.partition_for(self.cycle)

    def message_faults(self, kind: str, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-message fault fates for ``n`` messages of one ``kind``
        (``"req"``, ``"ack"``, ``"upd"``).

        Returns ``(lost, delay)``: a boolean drop mask and an int64
        delay-in-cycles vector (0 = inline).  Both ride the dedicated
        ``faults`` stream; a lost message still gets a delay draw so the
        stream position is independent of the loss outcome (the same
        draw-count canonicalism the overlap masks use).  Degenerate
        probabilities short-circuit without drawing, so ``loss=1.0``
        (total blackout) consumes no randomness and cannot overflow.
        """
        model = self.fault_model
        if model is None:
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
        self._note(f"faults:{kind}", n)
        rng = self.rng(self.FAULTS_STREAM)
        if model.loss <= 0.0:
            lost = np.zeros(n, dtype=bool)
        elif model.loss >= 1.0:
            lost = np.ones(n, dtype=bool)
        else:
            lost = rng.random(n) < model.loss
        if model.delay <= 0.0:
            delay = np.zeros(n, dtype=np.int64)
        else:
            if model.delay >= 1.0:
                delayed = np.ones(n, dtype=bool)
            else:
                delayed = rng.random(n) < model.delay
            if model.delay_max <= 1:
                lateness = np.ones(n, dtype=np.int64)
            else:
                lateness = rng.integers(
                    1, model.delay_max + 1, size=n, dtype=np.int64
                )
            delay = np.where(delayed, lateness, 0)
        return lost, delay

    def partition_mask(
        self, senders: np.ndarray, receivers: np.ndarray
    ) -> Optional[np.ndarray]:
        """Cross-group suppression mask for one sender/receiver pairing
        set, or ``None`` when no partition window covers this cycle.

        Node ``i`` belongs to group ``i % groups``; a ``True`` entry
        marks a pairing that crosses groups and must be suppressed
        (message dropped, sampler pairing skipped).  RNG-free — the
        mask is a pure function of ids and the schedule — but noted in
        the step trace so partition scheduling is parity-checked like
        every other plan point.
        """
        window = self.partition_active
        if window is None:
            return None
        self._note("partition", len(senders))
        groups = window.groups
        return (
            np.asarray(senders, dtype=np.int64) % groups
            != np.asarray(receivers, dtype=np.int64) % groups
        )
