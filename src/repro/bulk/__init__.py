"""Shared cycle-plan layer of the bulk backends.

The bulk engines — :mod:`repro.vectorized`, :mod:`repro.sharded` and
:mod:`repro.distributed` — run one definition of the per-cycle
schedule (churn, view refresh, protocol round;
:mod:`repro.vectorized.cycle`) — in process, on one thread or on
many, or over a message transport.  Their headline
invariant is that a run is *bitwise identical* across the three (and
across every worker count), which requires every random draw to
happen in exactly the same stream order and every exchange to be
scheduled into exactly the same node-disjoint waves.

This package is the single source of that schedule:

* :class:`~repro.bulk.plan.CyclePlan` — one cycle's full random
  schedule: churn events, every random block in canonical stream
  order, exchange-wave pairing, message-overlap masks and flush
  delivery rounds.  A cycle constructs exactly one plan and requests
  every random quantity through it; no executor carries its own copy
  of the draw-order logic.
* :mod:`~repro.bulk.matching` — conflict-free scheduling of batched
  pairwise exchanges into node-disjoint waves.
* :mod:`~repro.bulk.concurrency` — the paper's Section-4.5.2
  artificial message-overlap model in batched form: planned overlap
  masks split each exchange into a REQ phase and a deferred-ACK apply
  phase, reproducing the reference engine's stale one-sided swaps.
* :mod:`~repro.bulk.faults` — plan-level network realism: a
  :class:`~repro.bulk.faults.FaultModel` (loss probability, delay
  distribution in cycles, scheduled transient partitions that heal)
  whose per-message fates ride a dedicated ``faults`` RNG stream, plus
  the :class:`~repro.bulk.faults.FaultQueue` delayed-delivery mailbox
  that lands messages ``d`` cycles late with payloads frozen at send
  time.
* :mod:`~repro.bulk.rebalance` — plan-level shard load rebalancing:
  dead-row compaction as an RNG-free relabeling permutation, its
  worker-count-independent trigger (occupancy probe + live-load
  ratio), and the recomputed shard boundaries.

The plan records a step trace (:attr:`CyclePlan.steps`); the parity
tests assert every executor is served identical traces, which is what
"single-sourced schedule" means operationally.
"""

from repro.bulk.concurrency import deliver_one_sided, run_exchanges, wave_exchange
from repro.bulk.faults import (
    FaultModel,
    FaultQueue,
    PartitionWindow,
    build_fault_model,
)
from repro.bulk.matching import iter_disjoint_waves
from repro.bulk.plan import CyclePlan
from repro.bulk.rebalance import RebalancePlan

__all__ = [
    "CyclePlan",
    "FaultModel",
    "FaultQueue",
    "PartitionWindow",
    "RebalancePlan",
    "build_fault_model",
    "deliver_one_sided",
    "iter_disjoint_waves",
    "run_exchanges",
    "wave_exchange",
]
