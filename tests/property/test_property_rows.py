"""Property-based tests for the row-access primitive and the bulk
kernels built on it.

Four invariants:

* ``take_rows`` / ``put_rows`` / ``pick_columns`` equal plain fancy
  indexing for any capacity, live set and column dtype; the row index of
  a hole-free live range is a slice whose rows *share* the column's
  memory, any other live set gathers a copy;
* ``_swap_views`` equals a per-pair Python transcription of Figure 3,
  lines 3-10, on random node-disjoint waves;
* the age pass, the oldest-neighbor proposal, the ranking fold, the
  ``j1`` / ``j2`` choice and the ordering selection (all three policies)
  produce **bitwise** the same arrays whether they are handed the
  zero-copy ``slice(0, n)`` or the gathered ``np.arange(n)`` — with EMPTY
  slots and dead pointers present, on equal- and unequal-width
  partitions (where ``j1`` must also equal the per-slot
  ``boundary_distance`` evaluation it replaced);
* the max-gain partner ``select_exchanges`` picks equals a per-node
  Python transcription of Section 4.3 through ``local_sequences`` and
  ``pairwise_gain`` — with tied attributes and duplicated random values,
  at view sizes on both sides of a rank-dtype change.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ordering import (
    SELECTION_MAX_GAIN,
    SELECTION_RANDOM,
    SELECTION_RANDOM_MISPLACED,
    is_misplaced,
    local_sequences,
    pairwise_gain,
)
from repro.core.slices import SlicePartition
from repro.vectorized.metrics import PartitionArrays
from repro.vectorized.ordering import (
    _random_valid_column_from,
    _row_counts,
    select_exchanges,
)
from repro.vectorized.ranking import boundary_columns, fold_views, sender_rows
from repro.vectorized.sampler import (
    _age_and_purge,
    _oldest_columns,
    _propose_to_oldest,
    _swap_views,
)
from repro.vectorized.state import (
    EMPTY,
    ArrayState,
    pick_columns,
    put_rows,
    row_index,
    take_rows,
)

DTYPES = (np.int64, np.int32, np.float64, np.float32, np.uint8, np.bool_)


def _column(rng, capacity, width, dtype):
    shape = (capacity,) if width == 0 else (capacity, width)
    return rng.integers(0, 2 if dtype is np.bool_ else 100, shape).astype(dtype)


# ----------------------------------------------------------------------
# take_rows / put_rows / pick_columns / row_index
# ----------------------------------------------------------------------


@st.composite
def live_sets(draw):
    """``(alive, lo, hi)``: a liveness mask and a shard range over it,
    drawn so contiguous, holed, empty and single-row sets all occur."""
    capacity = draw(st.integers(1, 40))
    lo = draw(st.integers(0, capacity))
    hi = draw(st.integers(lo, capacity))
    kind = draw(st.sampled_from(["full", "holed", "empty", "single"]))
    alive = np.zeros(capacity, dtype=bool)
    if kind == "full":
        alive[:] = True
    elif kind == "holed":
        alive[:] = draw(
            st.lists(st.booleans(), min_size=capacity, max_size=capacity)
        )
    elif kind == "single" and hi > lo:
        alive[draw(st.integers(lo, hi - 1))] = True
    return alive, lo, hi


@given(
    live_sets(),
    st.integers(0, 12),
    st.sampled_from(DTYPES),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_rows_equal_fancy_indexing(live_set, width, dtype, seed):
    alive, lo, hi = live_set
    rng = np.random.default_rng(seed)
    live = lo + np.flatnonzero(alive[lo:hi])
    rows = row_index(live, lo, hi)
    column = _column(rng, len(alive), width, dtype)

    taken = take_rows(column, rows)
    assert taken.dtype == column.dtype
    assert np.array_equal(taken, column[live])
    if len(live) == hi - lo:  # no hole in the range: zero-copy
        assert isinstance(rows, slice)
        assert len(live) == 0 or np.shares_memory(taken, column)
    else:
        assert rows is live
        assert not np.shares_memory(taken, column)

    block = _column(rng, len(live), width, dtype)
    expected = column.copy()
    expected[live] = block
    put_rows(column, rows, block)
    assert np.array_equal(column, expected)

    # An id array always takes the gathered path, whatever it holds.
    assert np.array_equal(take_rows(column, live), column[live])
    assert not np.shares_memory(take_rows(column, live), column)
    shuffled = rng.permutation(live)
    block = _column(rng, len(live), width, dtype)
    expected[shuffled] = block
    put_rows(column, shuffled, block)
    assert np.array_equal(column, expected)

    if width:
        cols = rng.integers(0, width, len(live))
        picked = pick_columns(taken, cols)
        assert np.array_equal(picked, taken[np.arange(len(live)), cols])


@given(st.integers(1, 30), st.lists(st.integers(0, 29), max_size=12, unique=True))
@settings(max_examples=100, deadline=None)
def test_state_live_rows_is_a_slice_until_the_first_hole(size, removed):
    state = ArrayState(view_size=3, capacity=4)
    state.add_nodes(np.arange(size, dtype=float), np.zeros(size))
    assert state.live_rows() == slice(0, size)
    removed = [node for node in removed if node < size]
    state.remove_nodes(np.array(removed, dtype=np.int64))
    rows = state.live_rows()
    if removed:
        assert np.array_equal(rows, state.live_ids())
    else:
        assert rows == slice(0, size)
    assert np.array_equal(
        take_rows(state.view_ids, rows), state.view_ids[state.live_ids()]
    )


# ----------------------------------------------------------------------
# _swap_views vs Figure 3, lines 3-10
# ----------------------------------------------------------------------


def _random_state(rng, live, dead, view_size, empty_share, dead_share=0.0):
    """A state whose rows ``[0, live)`` are alive and ``[live, live +
    dead)`` dead, with random duplicate-free views holding EMPTY slots
    and (``dead_share``) pointers at the dead rows."""
    size = live + dead
    state = ArrayState(view_size=view_size, capacity=size + 3)
    state.add_nodes(rng.random(size), rng.random(size))
    for row in range(size):
        others = np.delete(np.arange(live), row) if row < live else np.arange(live)
        pool = rng.permutation(others)[:view_size]
        entries = np.full(view_size, EMPTY, dtype=np.int64)
        entries[: len(pool)] = pool
        if dead:
            stale = rng.random(view_size) < dead_share
            entries[stale] = rng.integers(live, size, int(stale.sum()))
        entries[rng.random(view_size) < empty_share] = EMPTY
        state.view_ids[row] = rng.permutation(entries)
    state.view_ages[:size] = rng.integers(0, 6, (size, view_size))
    state.view_ages[:size][state.view_ids[:size] == EMPTY] = 0
    state.obs_le[:size] = rng.integers(0, 50, size)
    state.obs_total[:size] = state.obs_le[:size] + rng.integers(0, 50, size)
    if dead:
        state.remove_nodes(np.arange(live, size))
    return state


def _adopt(ids, ages, receiver, donor):
    """Lines 5-10 for one side: the received view minus pointers at the
    receiver, plus a fresh descriptor of the donor in the first empty
    slot if there is one, else over the (first) oldest entry."""
    ids, ages = ids.copy(), ages.copy()
    for slot in range(len(ids)):
        if ids[slot] == receiver:
            ids[slot], ages[slot] = EMPTY, 0
    empties = [slot for slot in range(len(ids)) if ids[slot] == EMPTY]
    slot = empties[0] if empties else int(np.argmax(ages))
    ids[slot], ages[slot] = donor, 0
    return ids, ages


@given(
    st.integers(2, 24),
    st.integers(1, 6),
    st.floats(0.0, 0.6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_swap_views_matches_per_pair_reference(size, view_size, empty_share, seed):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, size, 0, view_size, empty_share)
    nodes = rng.permutation(size)
    pairs = int(rng.integers(0, size // 2 + 1))
    side_a, side_b = nodes[:pairs], nodes[pairs : 2 * pairs]
    # Most exchanges happen because a knows b: plant the pointer often.
    for a, b in zip(side_a, side_b):
        if rng.random() < 0.7 and b not in state.view_ids[a]:
            state.view_ids[a, rng.integers(view_size)] = b

    ids, ages = state.view_ids.copy(), state.view_ages.copy()
    for a, b in zip(side_a, side_b):
        view_a = (state.view_ids[a].copy(), state.view_ages[a].copy())
        view_b = (state.view_ids[b].copy(), state.view_ages[b].copy())
        ids[a], ages[a] = _adopt(*view_b, receiver=a, donor=b)
        ids[b], ages[b] = _adopt(*view_a, receiver=b, donor=a)

    _swap_views(state, side_a, side_b)
    assert np.array_equal(state.view_ids, ids)
    assert np.array_equal(state.view_ages, ages)


# ----------------------------------------------------------------------
# slice(0, n) vs np.arange(n): age, proposal, fold, j1, j2
# ----------------------------------------------------------------------

PARTITIONS = (
    SlicePartition.equal(1),
    SlicePartition.equal(2),
    SlicePartition.equal(10),
    SlicePartition.from_boundaries([0.5]),
    SlicePartition.from_boundaries([0.07, 0.3, 0.35, 0.9]),
)


SELECTIONS = (SELECTION_RANDOM, SELECTION_RANDOM_MISPLACED, SELECTION_MAX_GAIN)


def _view_columns(state):
    return state.view_ids.copy(), state.view_ages.copy()


@given(
    st.integers(2, 30),
    st.integers(0, 5),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.0, 0.2, 0.9]),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from(PARTITIONS),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_kernels_agree_on_slice_and_gathered_rows(
    live, dead, view_size, empty_share, dead_share, partition, window_exact, seed
):
    geometry = PartitionArrays(partition)
    jitter = np.random.default_rng(seed + 1).random(
        (live, view_size), dtype=np.float32
    )
    u2 = np.random.default_rng(seed + 2).random(live)
    results = []
    for rows in (slice(0, live), np.arange(live)):
        rng = np.random.default_rng(seed)
        state = _random_state(rng, live, dead, view_size, empty_share, dead_share)
        if window_exact:
            state.enable_window(8)
        ids = np.arange(live)
        out = {}

        # Selection, fold and j1/j2 first, while the dead pointers are
        # still there.
        for selection in SELECTIONS:
            out[selection] = select_exchanges(state, rows, ids, selection, lambda: u2)
        view, valid, counts, a_self = fold_views(state, rows, ids)
        expected_valid = state.view_ids[:live] != EMPTY
        expected_valid &= state.alive[np.where(expected_valid, view, 0)]
        assert np.array_equal(valid, expected_valid)
        assert np.array_equal(counts, valid.sum(axis=1))
        assert np.array_equal(counts, _row_counts(valid))
        senders = np.flatnonzero(counts)
        sub_view, sub_valid, sub_counts = sender_rows(senders, view, valid, counts)
        if len(senders):
            node_distance = geometry.boundary_distance(state.value[: state.size])
            j1 = boundary_columns(node_distance, sub_view, sub_valid, sub_counts)
            # What it replaced: the distance evaluated per view slot.
            r_peer = state.value[np.where(sub_valid, sub_view, 0)]
            per_slot = np.where(sub_valid, geometry.boundary_distance(r_peer), np.inf)
            assert np.array_equal(j1, np.argmin(per_slot, axis=1))
            j2 = _random_valid_column_from(sub_valid, u2[senders], sub_counts)
            assert np.array_equal(j2, _random_valid_column_from(sub_valid, u2[senders]))
            assert sub_valid[np.arange(len(senders)), j1].all()
            assert sub_valid[np.arange(len(senders)), j2].all()
            out["targets"] = (pick_columns(sub_view, j1), pick_columns(sub_view, j2))
        out["fold"] = (
            np.array(view),
            np.array(a_self),
            state.obs_le.copy(),
            state.obs_total.copy(),
            None if state.window is None else state.win_bits.copy(),
        )

        before = _view_columns(state)
        dead_pointers = state.maybe_dead_entries
        _age_and_purge(state, rows)
        # The flag is the driver's to clear, never a kernel's.
        assert state.maybe_dead_entries == dead_pointers
        after = _view_columns(state)
        # Exactly the valid entries survive, aged by one; blanked slots
        # read age 0; rows outside the range are untouched.
        kept = after[0][:live] != EMPTY
        assert np.array_equal(kept, valid)
        assert np.array_equal(after[1][:live][kept], before[1][:live][kept] + 1)
        assert not after[1][:live][~kept].any()
        assert np.array_equal(after[0][live:], before[0][live:])
        out["aged"] = after

        cols = _oldest_columns(
            take_rows(state.view_ids, rows),
            take_rows(state.view_ages, rows),
            jitter=jitter,
        )
        out["proposal"] = (cols,) + _propose_to_oldest(state, rows, ids, jitter)
        results.append(out)

    sliced, gathered = results
    assert sliced.keys() == gathered.keys()
    for key in sliced:
        for left, right in zip(sliced[key], gathered[key]):
            if left is None:
                assert right is None
                continue
            assert left.dtype == right.dtype
            assert np.array_equal(left, right), key


# ----------------------------------------------------------------------
# max-gain selection vs Section 4.3, per node
# ----------------------------------------------------------------------


def _max_gain_partner(state, node):
    """mod-JK's choice for one node, as the reference protocol makes
    it: local sequences over the node plus its valid neighbors, then
    the first misplaced neighbor (in view-slot order) with the largest
    Equation-2 score.  ``None`` when no neighbor is misplaced."""
    a, r = state.attribute, state.value
    peers = [
        int(peer)
        for peer in state.view_ids[node]
        if peer != EMPTY and state.alive[peer]
    ]
    items = [(node, a[node], r[node])] + [(peer, a[peer], r[peer]) for peer in peers]
    l_alpha, l_rho = local_sequences(items)
    best_gain, best_peer = None, None
    for peer in peers:
        if not is_misplaced(a[node], r[node], a[peer], r[peer]):
            continue
        gain = pairwise_gain(l_alpha, l_rho, node, peer)
        if best_gain is None or gain > best_gain:
            best_gain, best_peer = gain, peer
    return best_peer


@given(
    live=st.integers(2, 30),
    dead=st.integers(0, 5),
    view_size=st.integers(1, 12),
    empty_share=st.sampled_from([0.0, 0.2, 0.9]),
    dead_share=st.sampled_from([0.0, 0.3]),
    attribute_levels=st.sampled_from([None, 2, 5]),
    value_levels=st.sampled_from([None, 3, 8]),
    unbounded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# From view size 128 on, ranks and scores are held in a wider integer type.
@example(
    live=140, dead=3, view_size=130, empty_share=0.2, dead_share=0.3,
    attribute_levels=5, value_levels=None, unbounded=False, seed=11,
)
@settings(max_examples=200, deadline=None)
def test_max_gain_selection_matches_per_node_reference(
    live, dead, view_size, empty_share, dead_share,
    attribute_levels, value_levels, unbounded, seed,
):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, live, dead, view_size, empty_share, dead_share)
    # Few distinct keys: ties in either local sequence fall to the id,
    # and a random value held by two nodes is what a one-sided swap
    # under message overlap leaves behind.
    for column, levels in (
        (state.attribute, attribute_levels),
        (state.value, value_levels),
    ):
        if levels is not None:
            column[: state.size] = rng.integers(0, levels, state.size) / levels
    if unbounded:
        # A legal attribute that ties with the padding of invalid slots.
        state.attribute[: state.size][rng.random(state.size) < 0.2] = np.inf

    ids = np.arange(live)
    with np.errstate(invalid="ignore"):  # inf - inf in the predicate
        initiators, targets, intended = select_exchanges(
            state, slice(0, live), ids, SELECTION_MAX_GAIN, None
        )
        expected = {node: _max_gain_partner(state, node) for node in range(live)}
    expected = {node: peer for node, peer in expected.items() if peer is not None}
    assert dict(zip(initiators.tolist(), targets.tolist())) == expected
    assert np.array_equal(initiators, sorted(expected))
    assert intended.all()
