"""The blocked bootstrap fill is the one-draw fill.

``ArrayState.fill_empty_slots`` draws once per
:func:`~repro.bulk.blocks.row_blocks` block of the view and writes each
block on one of two branches, chosen from the state: a block whose
empty live slots are all of its slots (fresh or blanked rows, none
dead) is written as a row slice, any other block slot by slot through
flat indices.  Whatever the block size — one row, seven rows, all rows —
and whichever branch each block takes, the views must end byte-equal to
:func:`one_draw_fill` below, a plain restatement of the fill (one draw
for every empty slot of every live node, in row-major order; draws of
the owner dropped; later duplicates within a filled row blanked), and
the generator must be left in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk import blocks
from repro.vectorized.state import EMPTY, ArrayState


def one_draw_fill(state: ArrayState, rng: np.random.Generator) -> None:
    """The fill as one draw over all rows, row by row — the reference,
    sharing no code with the state's fill path."""
    live = np.flatnonzero(state.alive[: state.size])
    if len(live) < 2:
        return
    ids, ages = state.view_ids, state.view_ages
    empty = (ids[: state.size] == EMPTY) & state.alive[: state.size, None]
    rows, cols = np.nonzero(empty)
    draws = live[rng.integers(0, len(live), size=len(rows))]
    for row, col, draw in zip(rows, cols, draws):
        ids[row, col] = EMPTY if draw == row else draw
        ages[row, col] = 0
    for row in np.unique(rows):
        seen = set()
        for col in range(state.view_size):
            node = ids[row, col]
            if node != EMPTY and node in seen:
                ids[row, col] = EMPTY
                ages[row, col] = 0
            seen.add(node)


def random_state(seed, n, view_size, blank, fill, dead):
    """``n`` rows, a ``dead`` share of them removed.  A ``blank`` share
    of the rows have wholly empty views; in the others each slot is
    occupied with probability ``fill`` by a uniform id (so stale
    pointers, self-pointers and duplicates all occur) at a random age."""
    rng = np.random.default_rng(seed)
    state = ArrayState(view_size, capacity=n + 3)  # spare rows stay untouched
    state.add_nodes(rng.random(n), rng.random(n))
    ids = rng.integers(0, n, (n, view_size))
    ids[rng.random((n, view_size)) >= fill] = EMPTY
    ids[rng.random(n) < blank] = EMPTY
    state.view_ids[:n] = ids
    state.view_ages[:n] = np.where(ids == EMPTY, 0, rng.integers(0, 9, ids.shape))
    state.remove_nodes(np.flatnonzero(rng.random(n) < dead))
    return state


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(1, 12),
    st.sampled_from([1.0, 0.9, 0.5, 0.0]),
    st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    st.sampled_from([0.0, 0.2, 0.95]),
)
@settings(max_examples=150, deadline=None)
def test_blocked_fill_equals_whole_state_fill(seed, n, view_size, blank, fill, dead):
    expected = random_state(seed, n, view_size, blank, fill, dead)
    expected_rng = np.random.default_rng(seed + 1)
    one_draw_fill(expected, expected_rng)

    row_bytes = expected.view_ids.strides[0]
    default = blocks.BLOCK_BYTES
    try:
        for rows_per_block in (1, 7, n + 1):
            blocks.BLOCK_BYTES = rows_per_block * row_bytes
            state = random_state(seed, n, view_size, blank, fill, dead)
            rng = np.random.default_rng(seed + 1)
            state.fill_empty_slots(rng)
            assert state.view_ids.tobytes() == expected.view_ids.tobytes()
            assert state.view_ages.tobytes() == expected.view_ages.tobytes()
            assert rng.bit_generator.state == expected_rng.bit_generator.state
    finally:
        blocks.BLOCK_BYTES = default


def test_the_check_reaches_both_branches():
    """Both write branches occur among the states the check draws:
    blank live blocks are written as row slices, blocks with dead rows
    or occupied slots through flat indices."""
    dense = random_state(1, 40, 4, blank=1.0, fill=0.0, dead=0.0)
    assert dense.empty_live_slots(0, 7) == (slice(0, 7), 28)
    for state in (
        random_state(1, 40, 4, blank=1.0, fill=0.0, dead=0.2),
        random_state(1, 40, 4, blank=0.0, fill=0.3, dead=0.0),
    ):
        slots, count = state.empty_live_slots(0, 40)
        assert isinstance(slots, np.ndarray) and len(slots) == count > 0
