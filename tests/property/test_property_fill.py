"""The blocked bootstrap fill is the whole-state fill.

``ArrayState.fill_empty_slots`` draws once for every empty slot of every
live node and applies the draw over :func:`~repro.bulk.blocks.
row_blocks` of the view, so that nothing derived from it is ever
whole-state sized.  Whatever the block size — one row, seven rows, all
rows — the views must end byte-equal to the unblocked fill below (one
``empty_live_slots()`` over all rows, one ``apply_fill``), and the
generator must be left in the same state: same draws, same per-row
writes, same duplicate blanking.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk import blocks
from repro.vectorized.state import EMPTY, ArrayState


def whole_state_fill(state: ArrayState, rng: np.random.Generator) -> None:
    """The fill as one pass over all rows — the reference."""
    live = state.live_ids()
    if len(live) < 2:
        return
    rows, cols = state.empty_live_slots()
    if len(rows) == 0:
        return
    picks = rng.integers(0, len(live), size=len(rows))
    state.apply_fill(rows, cols, live[picks])


def random_state(seed: int, n: int, view_size: int, fill: float, dead: float):
    """``n`` rows, a ``dead`` share of them removed, each view slot
    occupied with probability ``fill`` by a uniform id (so stale
    pointers, self-pointers and duplicates all occur) at a random age."""
    rng = np.random.default_rng(seed)
    state = ArrayState(view_size, capacity=n + 3)  # spare rows stay untouched
    state.add_nodes(rng.random(n), rng.random(n))
    ids = rng.integers(0, n, (n, view_size))
    ids[rng.random((n, view_size)) >= fill] = EMPTY
    state.view_ids[:n] = ids
    state.view_ages[:n] = np.where(ids == EMPTY, 0, rng.integers(0, 9, ids.shape))
    state.remove_nodes(np.flatnonzero(rng.random(n) < dead))
    return state


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    st.sampled_from([0.0, 0.2, 0.95]),
)
@settings(max_examples=150, deadline=None)
def test_blocked_fill_equals_whole_state_fill(seed, n, view_size, fill, dead):
    expected = random_state(seed, n, view_size, fill, dead)
    expected_rng = np.random.default_rng(seed + 1)
    whole_state_fill(expected, expected_rng)

    row_bytes = expected.view_ids.strides[0]
    default = blocks.BLOCK_BYTES
    try:
        for rows_per_block in (1, 7, n + 1):
            blocks.BLOCK_BYTES = rows_per_block * row_bytes
            state = random_state(seed, n, view_size, fill, dead)
            rng = np.random.default_rng(seed + 1)
            state.fill_empty_slots(rng)
            assert state.view_ids.tobytes() == expected.view_ids.tobytes()
            assert state.view_ages.tobytes() == expected.view_ages.tobytes()
            assert rng.bit_generator.state == expected_rng.bit_generator.state
    finally:
        blocks.BLOCK_BYTES = default
