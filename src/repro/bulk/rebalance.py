"""Plan-level shard load rebalancing: dead-row compaction.

The sharded backend partitions the array state by *fixed id ranges*.
Node ids are stable for the whole run and dead rows are never reused,
so long correlated-churn runs (the paper's Section-4 model: lowest
attributes leave, above-max attributes join) slowly concentrate dead
rows in the low id ranges — the original cohort dies off while every
joiner lands at the top — and the low shards idle while the top shard
does all the work.

The fix is a **compaction permutation**: relabel the live rows onto
``[0, live_count)`` preserving their order, purge view entries that
point at dead rows, and recompute the shard boundaries over the
compacted (now gap-free) live span.  Crucially the permutation is a
*plan decision*, not a backend one:

* it is a pure function of the state and the cycle counter — **no
  RNG** — so it obeys the plan-layer invariant (no draw and no
  scheduling decision outside :class:`~repro.bulk.plan.CyclePlan`);
* the trigger (every ``rebalance_every`` cycles, or when the live-load
  ratio over a *fixed* probe partition crosses
  ``rebalance_threshold``) is deliberately independent of the worker
  count, so a sharded run stays bitwise identical at every worker
  count;
* the vectorized backend applies the same permutation as an in-place
  relabeling (:func:`compact_state`), which keeps it bitwise identical
  to the sharded backend's pack/unpack row migration.

Relabeling is visible through the compatibility API: after a rebalance
the id a node was known by may name a different live node (or nothing).
Runs that rely on stable external node ids should leave the knobs off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.bulk.blocks import row_blocks

__all__ = [
    "EMPTY",
    "REBALANCE_PROBE_SHARDS",
    "RebalancePlan",
    "occupancy_counts",
    "live_load_ratio",
    "rebalance_bounds",
    "migration_columns",
    "remap_views",
    "compact_state",
    "validate_rebalance_knobs",
]

#: Empty-view-slot sentinel.  Must equal
#: :data:`repro.vectorized.state.EMPTY`; duplicated here (and pinned by
#: ``tests/bulk/test_rebalance_plan.py``) because the plan layer must
#: not import the backend packages — ``repro.vectorized`` imports the
#: plan, not the other way around.
EMPTY = -1

#: Granularity of the trigger's occupancy probe: live-row counts are
#: taken over this many equal id ranges of ``[0, size)``.  A *fixed*
#: probe (rather than the actual shard count) keeps the trigger — and
#: therefore the whole run — independent of the worker count, which is
#: what preserves bitwise parity across workers and with the
#: vectorized backend.
REBALANCE_PROBE_SHARDS = 8


def validate_rebalance_knobs(
    rebalance_every: Optional[int], rebalance_threshold: Optional[float]
) -> None:
    """Fail fast on malformed rebalancing knobs (shared by the engines,
    the plan, and the backend registry's service-level validation)."""
    if rebalance_every is not None:
        if (
            isinstance(rebalance_every, bool)
            or not isinstance(rebalance_every, int)
            or rebalance_every < 1
        ):
            raise ValueError(
                "rebalance_every must be a positive integer (cycles) or "
                f"None, got {rebalance_every!r}"
            )
    if rebalance_threshold is not None:
        if (
            isinstance(rebalance_threshold, bool)
            or not isinstance(rebalance_threshold, (int, float))
            or not rebalance_threshold > 1.0
        ):
            raise ValueError(
                "rebalance_threshold is a max/min live-load ratio and "
                f"must be a number > 1.0 (or None), got {rebalance_threshold!r}"
            )


@dataclass(frozen=True)
class RebalancePlan:
    """One planned compaction: live row ``live[k]`` is relabeled to
    ``k``.  ``ratio`` records the observed live-load ratio at decision
    time (``inf`` when a probe range held no live rows at all)."""

    #: Old ids of the live rows, ascending — the gather permutation.
    live: np.ndarray = field(repr=False)
    #: Row count before compaction (``state.size`` at decision time).
    old_size: int
    #: Live-load ratio observed by the trigger probe.
    ratio: float

    @property
    def new_size(self) -> int:
        return len(self.live)

    def id_map(self) -> np.ndarray:
        """Old id -> new id; dead rows map to ``EMPTY`` so view entries
        pointing at them purge during the remap."""
        id_map = np.full(self.old_size, EMPTY, dtype=np.int64)
        id_map[self.live] = np.arange(self.new_size, dtype=np.int64)
        return id_map


def occupancy_counts(
    live: np.ndarray, size: int, shards: int = REBALANCE_PROBE_SHARDS
) -> np.ndarray:
    """Live-row counts over ``shards`` equal id ranges of ``[0, size)``
    (``live`` must be ascending).  The trigger's skew measure."""
    shards = max(1, min(int(shards), int(size)))
    edges = np.linspace(0, size, shards + 1).astype(np.int64)
    return np.diff(np.searchsorted(live, edges))


def live_load_ratio(counts) -> float:
    """Max/min live-load ratio of a per-range occupancy vector: 1.0
    means perfectly even, ``inf`` means some range is completely dead
    while another still holds live rows."""
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) == 0:
        return 1.0
    highest = int(counts.max())
    lowest = int(counts.min())
    if highest == 0:
        return 1.0
    if lowest == 0:
        return float("inf")
    return highest / lowest


def rebalance_bounds(
    live_total: int, workers: int, capacity: int
) -> List[Tuple[int, int]]:
    """Shard boundaries over a compacted state: the live span
    ``[0, live_total)`` splits evenly, and the last shard absorbs the
    spare capacity (where future joiners are appended)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    edges = np.linspace(0, live_total, workers + 1).astype(np.int64)
    bounds = [(int(edges[i]), int(edges[i + 1])) for i in range(workers)]
    low, _high = bounds[-1]
    bounds[-1] = (low, int(capacity))
    return bounds


def migration_columns(state) -> List[str]:
    """The state columns a rebalance moves, in apply order.  ``alive``
    is excluded (the driver rewrites liveness wholesale), and
    ``view_ids`` precedes ``view_ages`` because the age zeroing reads
    the remapped ids."""
    names = [
        "attribute",
        "value",
        "joined_at",
        "obs_le",
        "obs_total",
        "view_ids",
        "view_ages",
    ]
    if state.window is not None:
        names += ["win_bits", "win_pos", "win_len"]
    return names


def remap_views(view: np.ndarray, ages: np.ndarray, id_map: np.ndarray) -> None:
    """Relabel a view-id block in place through ``id_map``; entries
    pointing at dead rows become ``EMPTY`` with age 0 (the same purge
    the refresh would perform)."""
    occupied = view != EMPTY
    view[occupied] = id_map[view[occupied]]
    ages[view == EMPTY] = 0


def compact_state(state, plan: RebalancePlan) -> None:
    """Apply a planned compaction to an :class:`ArrayState` in place —
    the single-process twin of the sharded backend's pack/unpack row
    migration, byte-for-byte identical in effect.

    Each column moves one ascending :func:`~repro.bulk.blocks.row_blocks`
    block at a time, in place: new row ``k`` reads old row ``live[k] >=
    k``, so a finished block never overwrote a row a later block still
    gathers.  Rows beyond the new size keep whatever column data they
    held (both backends leave them untouched, preserving bitwise parity)
    but are marked dead; ``add_nodes`` fully initializes rows it reuses.
    """
    new_size = plan.new_size
    for name in migration_columns(state):
        column = getattr(state, name)
        for lo, hi in row_blocks(column.strides[0], 0, new_size):
            column[lo:hi] = np.take(column, plan.live[lo:hi], axis=0)
    id_map = plan.id_map()
    for lo, hi in row_blocks(state.view_ids.strides[0], 0, new_size):
        remap_views(state.view_ids[lo:hi], state.view_ages[lo:hi], id_map)
    state.alive[:new_size] = True
    state.alive[new_size : plan.old_size] = False
    state.size = new_size
    state._live_dirty = True
    # Every surviving view entry now points at a live row.
    state.maybe_dead_entries = False
