"""Struct-of-arrays node store for the vectorized backend.

The reference engine models each peer as a :class:`~repro.engine.node.
Node` object owning a sampler and a slicer instance.  That is faithful
to the paper's per-node pseudocode but caps simulations around 10^4
nodes.  :class:`ArrayState` stores the same information *columnar*:

* ``attribute[i]``  — node *i*'s immutable attribute value ``a_i``;
* ``value[i]``      — its current ``r`` (random value for the ordering
  algorithms, rank estimate for the ranking algorithm);
* ``alive[i]``      — liveness mask (dead rows are never reused, so a
  node id is a stable array index for the whole run);
* ``obs_le`` / ``obs_total`` — the ranking algorithm's comparison
  counters (``l`` and ``g`` of Figure 5);
* ``view_ids`` / ``view_ages`` — the Table-1 views as an ``(n, c)``
  id matrix plus an age matrix.  ``-1`` marks an empty slot.  Unlike
  the reference :class:`~repro.sampling.view.ViewEntry`, a slot stores
  only the neighbor's *id*: attributes are immutable and protocol
  rounds read the neighbor's current ``value`` directly, which matches
  the cycle model's "view is up-to-date when a message is sent"
  reading (Section 4.5.2).

A cycle of any protocol is then a handful of array passes over these
columns — the property that makes 10^6-node runs tractable.  Whole rows
of the view columns are addressed through :func:`row_index` /
:func:`take_rows` / :func:`put_rows`, never ``column[live]`` (see
"Row access" in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.bulk.blocks import row_blocks

__all__ = [
    "ArrayState",
    "EMPTY",
    "COLUMNS",
    "WINDOW_COLUMNS",
    "column_spec",
    "row_index",
    "take_rows",
    "put_rows",
    "pick_columns",
]

#: Sentinel id marking an empty view slot.
EMPTY = -1

#: Membership events retained for incremental consumers (the alpha
#: rank index).  Consumers whose cursor falls off the back rebuild
#: from scratch, so the cap only bounds memory, never correctness.
MEMBERSHIP_LOG_CAP = 256

#: The always-present columns: attribute name -> (dtype, per-row width).
#: Width 1 means a flat ``(capacity,)`` array; ``"view"`` means
#: ``(capacity, view_size)``.  The distributed backend's workers build
#: their replicas from this table.
COLUMNS = {
    "attribute": (np.float64, 1),
    "value": (np.float64, 1),
    "alive": (np.bool_, 1),
    "joined_at": (np.int64, 1),
    "obs_le": (np.float64, 1),
    "obs_total": (np.float64, 1),
    "view_ids": (np.int64, "view"),
    "view_ages": (np.int32, "view"),
}

#: Extra columns of the exact sliding-window variant (``enable_window``):
#: bit-packed observation ring buffers plus per-node write position and
#: fill level.  ``"window"`` means ``(capacity, ceil(window / 8))``.
WINDOW_COLUMNS = {
    "win_bits": (np.uint8, "window"),
    "win_pos": (np.int64, 1),
    "win_len": (np.int64, 1),
}


def column_spec(
    view_size: int, window: Optional[int] = None
) -> Dict[str, Tuple[np.dtype, int]]:
    """Resolve :data:`COLUMNS` (plus window columns when ``window`` is
    given) into ``name -> (dtype, row_width)`` with concrete widths."""
    spec = {}
    for table in (COLUMNS,) if window is None else (COLUMNS, WINDOW_COLUMNS):
        for name, (dtype, width) in table.items():
            if width == "view":
                width = view_size
            elif width == "window":
                width = (window + 7) // 8
            spec[name] = (np.dtype(dtype), width)
    return spec


def row_index(live: np.ndarray, lo: int, hi: int):
    """Row index for ``live``, the ascending live ids of ``[lo, hi)``:
    the zero-copy ``slice(lo, hi)`` when no row of the range is dead,
    the id array itself otherwise."""
    return slice(lo, hi) if len(live) == hi - lo else live


def take_rows(column: np.ndarray, rows) -> np.ndarray:
    """Whole rows of ``column``: a view for a slice, else one
    ``np.take`` (a memcpy per row, where ``column[rows]`` walks the
    fancy-index machinery per element)."""
    if isinstance(rows, slice):
        return column[rows]
    return np.take(column, rows, axis=0)


def put_rows(column: np.ndarray, rows, block) -> None:
    """``column[rows] = block`` for whole rows (``rows`` distinct).  An
    id-array scatter of a row block into a matrix goes through a
    row-wide ``np.void`` view, so each row moves as one element."""
    block = np.asarray(block, dtype=column.dtype)
    if isinstance(rows, slice) or block.ndim != 2 or not column.flags.c_contiguous:
        column[rows] = block
        return
    row = np.dtype((np.void, column.dtype.itemsize * column.shape[1]))
    column.view(row)[:, 0][rows] = np.ascontiguousarray(block).view(row)[:, 0]


def pick_columns(block: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``block[i, cols[i]]`` for every row ``i``, as one flat take."""
    count, width = block.shape
    return np.take(block.reshape(-1), np.arange(0, count * width, width) + cols)


class ArrayState:
    """Columnar node store with stable ids and amortized growth.

    Parameters
    ----------
    view_size:
        View capacity ``c`` shared by every node.
    capacity:
        Initial number of rows to allocate (grows by a quarter).
    """

    def __init__(self, view_size: int, capacity: int = 16) -> None:
        if view_size <= 0:
            raise ValueError(f"view size must be positive, got {view_size}")
        self.view_size = int(view_size)
        capacity = max(int(capacity), 1)
        self.size = 0  # rows in use == next node id
        self.attribute = np.zeros(capacity, dtype=np.float64)
        self.value = np.zeros(capacity, dtype=np.float64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.joined_at = np.zeros(capacity, dtype=np.int64)
        self.obs_le = np.zeros(capacity, dtype=np.float64)
        self.obs_total = np.zeros(capacity, dtype=np.float64)
        self.view_ids = np.full((capacity, view_size), EMPTY, dtype=np.int64)
        self.view_ages = np.zeros((capacity, view_size), dtype=np.int32)
        # Sliding-window columns (absent until enable_window).
        self.window: Optional[int] = None
        self.win_bits: Optional[np.ndarray] = None
        self.win_pos: Optional[np.ndarray] = None
        self.win_len: Optional[np.ndarray] = None
        # Fixed-capacity states (a transport worker's replica, and the
        # driver's copy of it) cannot grow.
        self.fixed_capacity = False
        self._live_cache: np.ndarray = np.empty(0, dtype=np.int64)
        self._live_dirty = True
        # True while some view may still hold a pointer to a dead node;
        # cleared by the driver once every live row was purged, so
        # protocol rounds can skip the per-slot liveness gather in the
        # (common) churn-free steady state.
        self.maybe_dead_entries = False
        self._membership_log: list = []
        self._membership_seq = 0

    @classmethod
    def from_arrays(
        cls,
        view_size: int,
        arrays: Dict[str, np.ndarray],
        size: int,
        window: Optional[int] = None,
        fixed_capacity: bool = True,
    ) -> "ArrayState":
        """Build a state over externally allocated column arrays (a
        transport worker's replica).  The arrays are adopted, not
        copied.  ``fixed_capacity`` states refuse to grow.
        """
        state = cls.__new__(cls)
        state.view_size = int(view_size)
        state.size = int(size)
        for name in COLUMNS:
            setattr(state, name, arrays[name])
        state.window = window
        if window is not None:
            for name in WINDOW_COLUMNS:
                setattr(state, name, arrays[name])
        else:
            state.win_bits = state.win_pos = state.win_len = None
        state.fixed_capacity = fixed_capacity
        state._live_cache = np.empty(0, dtype=np.int64)
        state._live_dirty = True
        state.maybe_dead_entries = False
        state._membership_log = []
        state._membership_seq = 0
        return state

    def enable_window(self, window: int) -> None:
        """Allocate the exact sliding-window columns: a bit-packed ring
        buffer of the last ``window`` comparison outcomes per node
        (``ceil(window / 8)`` bytes/node) plus write position and fill
        level.  See :func:`repro.vectorized.ranking.window_push`."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if self.window is not None:
            if self.window != window:
                raise ValueError(
                    f"window already enabled at {self.window}, got {window}"
                )
            return
        self.window = int(window)
        nbytes = (window + 7) // 8
        self.win_bits = np.zeros((self.capacity, nbytes), dtype=np.uint8)
        self.win_pos = np.zeros(self.capacity, dtype=np.int64)
        self.win_len = np.zeros(self.capacity, dtype=np.int64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self.attribute)

    def live_ids(self) -> np.ndarray:
        """Ids of the live nodes, ascending.  Do not mutate."""
        if self._live_dirty:
            self._live_cache = np.flatnonzero(self.alive[: self.size])
            self._live_dirty = False
        return self._live_cache

    def live_rows(self):
        """Row index of the live nodes (see :func:`row_index`): a
        zero-copy slice until the first removal leaves a hole."""
        return row_index(self.live_ids(), 0, self.size)

    @property
    def live_count(self) -> int:
        return len(self.live_ids())

    def is_alive(self, node_id: int) -> bool:
        return 0 <= node_id < self.size and bool(self.alive[node_id])

    # ------------------------------------------------------------------
    # Membership event log (incremental rank maintenance)
    # ------------------------------------------------------------------

    def log_membership(self, kind: str, ids: np.ndarray, keys=None) -> None:
        """Append one membership event — ``("add", ids, keys)``,
        ``("remove", ids, keys)`` or ``("relabel", id_map, None)`` —
        for incremental consumers (the alpha rank index).  Arrays are
        stored as given; callers pass copies that no later mutation
        touches.  Past :data:`MEMBERSHIP_LOG_CAP` pending events the
        log is dropped wholesale and consumers rebuild."""
        if len(self._membership_log) >= MEMBERSHIP_LOG_CAP:
            self._membership_log.clear()
        self._membership_log.append((kind, ids, keys))
        self._membership_seq += 1

    def membership_events_since(self, cursor: int):
        """``(events, new_cursor, stale)``: the events appended since
        ``cursor``.  ``stale=True`` means the log was trimmed past the
        cursor — the consumer's copy of the order is unrecoverable and
        it must rebuild from the state arrays."""
        start = self._membership_seq - len(self._membership_log)
        if cursor < start:
            return [], self._membership_seq, True
        return (
            self._membership_log[cursor - start :],
            self._membership_seq,
            False,
        )

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------

    def _ensure_capacity(self, rows: int) -> None:
        if rows <= self.capacity:
            return
        if self.fixed_capacity:
            raise RuntimeError(
                f"state is at its fixed capacity of {self.capacity} rows "
                f"({rows} needed); the workers' replicas cannot grow — "
                "construct the simulation with a larger spare_capacity"
            )
        # A quarter more, like the transport's spare: while a column is
        # copied the old and the new array are both live, so the step
        # sets the peak.
        new_capacity = max(rows, self.capacity + max(1024, self.capacity // 4))
        grow = new_capacity - self.capacity
        self.attribute = np.concatenate([self.attribute, np.zeros(grow)])
        self.value = np.concatenate([self.value, np.zeros(grow)])
        self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
        self.joined_at = np.concatenate(
            [self.joined_at, np.zeros(grow, dtype=np.int64)]
        )
        self.obs_le = np.concatenate([self.obs_le, np.zeros(grow)])
        self.obs_total = np.concatenate([self.obs_total, np.zeros(grow)])
        self.view_ids = np.concatenate(
            [self.view_ids, np.full((grow, self.view_size), EMPTY, dtype=np.int64)]
        )
        self.view_ages = np.concatenate(
            [self.view_ages, np.zeros((grow, self.view_size), dtype=np.int32)]
        )
        if self.window is not None:
            self.win_bits = np.concatenate(
                [self.win_bits, np.zeros((grow, self.win_bits.shape[1]), np.uint8)]
            )
            self.win_pos = np.concatenate(
                [self.win_pos, np.zeros(grow, dtype=np.int64)]
            )
            self.win_len = np.concatenate(
                [self.win_len, np.zeros(grow, dtype=np.int64)]
            )

    def add_nodes(
        self,
        attributes: np.ndarray,
        values: np.ndarray,
        joined_at: int = 0,
    ) -> np.ndarray:
        """Append nodes with the given attributes and initial ``r``
        values; returns their (contiguous) ids."""
        attributes = np.asarray(attributes, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if attributes.shape != values.shape:
            raise ValueError("attributes and values must have the same length")
        count = len(attributes)
        rows = slice(self.size, self.size + count)
        self._ensure_capacity(rows.stop)
        self.attribute[rows] = attributes
        self.value[rows] = values
        self.alive[rows] = True
        self.joined_at[rows] = joined_at
        self.obs_le[rows] = 0.0
        self.obs_total[rows] = 0.0
        self.view_ids[rows] = EMPTY
        self.view_ages[rows] = 0
        if self.window is not None:
            self.win_bits[rows] = 0
            self.win_pos[rows] = 0
            self.win_len[rows] = 0
        ids = np.arange(rows.start, rows.stop, dtype=np.int64)
        self.size = rows.stop
        self._live_dirty = True
        if count:
            self.log_membership("add", ids.copy(), attributes.copy())
        return ids

    def remove_nodes(self, ids: np.ndarray) -> None:
        """Mark the given nodes dead.  Their rows are retained (ids are
        stable) but they drop out of ``live_ids`` immediately; view
        entries pointing at them are purged by
        :meth:`purge_dead_entries` at the next refresh."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return
        departing = ids[self.alive[ids]]
        if len(departing):
            self.log_membership(
                "remove", departing.copy(), np.array(self.attribute[departing])
            )
        self.alive[ids] = False
        self._live_dirty = True
        self.maybe_dead_entries = True

    # ------------------------------------------------------------------
    # View bookkeeping
    # ------------------------------------------------------------------

    def purge_dead_entries(self, rows=None) -> int:
        """Blank view slots that point at dead nodes; returns how many
        were purged (the churn-bookkeeping invariant the tests check).

        ``rows=None`` purges every row; a shard's refresh passes its
        own live rows, from its own thread.  The ``maybe_dead_entries``
        flag is read here and never written: a purge of some rows says
        nothing about the others, so the caller that knows every live
        row has been purged (dead rows' views are never read) clears it
        — the driver, after the refresh's age barrier — letting
        protocol rounds skip their per-slot liveness checks until the
        next removal.
        """
        if not self.maybe_dead_entries:
            return 0
        rows = slice(None) if rows is None else rows
        view = take_rows(self.view_ids, rows)
        occupied = view != EMPTY
        dead = occupied & ~np.take(self.alive, np.where(occupied, view, 0))
        if isinstance(rows, slice):
            view[dead] = EMPTY
            self.view_ages[rows][dead] = 0
        else:
            # Write back only the rows that held a dead pointer.
            hit = np.unique(np.flatnonzero(dead) // self.view_size)
            hit_rows, hit_dead = rows[hit], dead[hit]
            ids, ages = view[hit], take_rows(self.view_ages, hit_rows)
            ids[hit_dead] = EMPTY
            ages[hit_dead] = 0
            put_rows(self.view_ids, hit_rows, ids)
            put_rows(self.view_ages, hit_rows, ages)
        return int(np.count_nonzero(dead))

    def fill_empty_slots(self, rng: np.random.Generator) -> None:
        """Refill empty view slots with fresh uniform random live
        neighbors — the bootstrap/recovery service of the reference
        engine (``random_live_ids``), batched; on fresh rows (all empty,
        :meth:`add_nodes`) it is the initial bootstrap of every view.

        Slots that happen to draw the owner or a duplicate are blanked
        again rather than re-drawn; they get another chance next cycle.
        One draw per :func:`~repro.bulk.blocks.row_blocks` block of the
        view — a generator keeps the unused half of a 64-bit word between
        calls, so the blocks' draws are the values, and leave the state,
        of one draw for every empty slot (``tests/property/
        test_property_fill.py``) — and nothing here is whole-state sized.
        """
        live_count = self.live_count
        if live_count < 2:
            return
        for lo, hi in row_blocks(self.view_ids.strides[0], 0, self.size):
            slots, count = self.empty_live_slots(lo, hi)
            picks = rng.integers(0, live_count, size=count)
            self.apply_fill(slots, self.live_at(picks))

    def live_at(self, positions: np.ndarray) -> np.ndarray:
        """Resolve int64 ``positions`` into the live set to node ids
        (``live_ids()[positions]``) in place, and return them: an add,
        not a gather, while the live ids are one contiguous range (until
        the first removal, and again after every compaction)."""
        live = self.live_ids()
        if len(live) and live[-1] - live[0] == len(live) - 1:
            positions += live[0]
        else:
            np.take(live, positions, out=positions)
        return positions

    def empty_live_slots(self, lo: int = 0, hi: Optional[int] = None):
        """``(slots, count)``: the empty view slots of live nodes in the
        row range ``[lo, hi)`` and how many there are.  ``slots`` is the
        row slice itself when every slot of those rows is empty and every
        row live (a fresh or blanked block), else the flat slot indices
        ``row * view_size + col``, ascending — so per-shard results
        concatenated in shard order equal the whole-state result."""
        hi = self.size if hi is None else min(hi, self.size)
        if hi <= lo:
            return np.empty(0, dtype=np.int64), 0
        empty = self.view_ids[lo:hi] == EMPTY
        alive = self.alive[lo:hi]
        if not alive.all():
            empty &= alive[:, None]
        elif empty.all():  # stops at the first occupied slot
            return slice(lo, hi), empty.size
        slots = np.flatnonzero(empty)
        slots += lo * self.view_size
        return slots, len(slots)

    def apply_fill(self, slots, draws: np.ndarray) -> None:
        """Write bootstrap draws (node ids, one per slot, in slot order)
        into the empty slots :meth:`empty_live_slots` named, dropping
        self-pointers and blanking duplicates.  A row slice is written
        as one block, flat indices slot by slot; either way each slot is
        written once.  Touches only the rows ``slots`` names, so shards
        may apply their own slice of a global draw block concurrently."""
        if isinstance(slots, slice):
            ids = self.view_ids[slots]
            ids[...] = draws.reshape(ids.shape)
            own = np.arange(slots.start, slots.stop)[:, None]
            np.putmask(ids, ids == own, EMPTY)  # no self-pointers
            self.view_ages[slots] = 0
            self._blank_duplicates(slots)
            return
        if len(slots) == 0:
            return
        rows = slots // self.view_size
        self.view_ids.put(slots, np.where(draws == rows, EMPTY, draws))
        self.view_ages.put(slots, 0)
        # Slots ascend, so their rows do: keep the first of each run.
        first = np.ones(len(rows), dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        touched = rows[first]
        self._blank_duplicates(row_index(touched, touched[0], touched[-1] + 1))

    def _blank_duplicates(self, rows) -> None:
        """Blank later duplicates of the same id within each row of
        ``rows`` (a :func:`row_index`: a slice is read in place)."""
        # Cheap detection pass first: rows holding a duplicate are rare
        # (collision probability ~ c^2/2n), so the exact positional
        # dedup below usually runs on a tiny subset.
        view = take_rows(self.view_ids, rows)
        ordered = np.sort(view, axis=1)
        repeats = ordered[:, 1:] == ordered[:, :-1]
        repeats &= ordered[:, 1:] != EMPTY
        if not repeats.any():
            return
        hit = np.flatnonzero(repeats.any(axis=1))
        rows = hit + rows.start if isinstance(rows, slice) else rows[hit]
        view = view[hit]
        order = np.argsort(view, axis=1, kind="stable")
        ordered = np.take_along_axis(view, order, axis=1)
        dup_sorted = np.zeros_like(ordered, dtype=bool)
        dup_sorted[:, 1:] = (ordered[:, 1:] == ordered[:, :-1]) & (
            ordered[:, 1:] != EMPTY
        )
        dup = np.zeros_like(dup_sorted)
        np.put_along_axis(dup, order, dup_sorted, axis=1)
        view[dup] = EMPTY
        put_rows(self.view_ids, rows, view)
        ages = take_rows(self.view_ages, rows)
        ages[dup] = 0
        put_rows(self.view_ages, rows, ages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayState(live={self.live_count}, rows={self.size}, "
            f"c={self.view_size})"
        )
