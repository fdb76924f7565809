"""Property-based tests for the exact sliding-window kernels
(``repro.vectorized.ranking``, Section 5.3.4 in bulk form).

Two invariants:

* ``window_push`` equals a per-event Python ring — the reference
  :class:`~repro.core.estimators.SlidingWindowRankEstimator` for
  ``obs_le`` / ``obs_total``, plus the explicit slot contents, write
  cursor and fill level — for any window, any event stream and any way
  of cutting the stream into pushes: repeated ids, a node handed more
  than ``window`` events in one push, empty pushes, rings that are
  already filled and wrapped;
* the fold's column rounds equal ``window_push(np.repeat(live, counts),
  le_bits[valid])`` — the generic grouped push of the same events in
  row-major order — on views with EMPTY slots and dead pointers, for the
  zero-copy ``slice(0, n)`` and the gathered ``np.arange(n)`` rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import SlidingWindowRankEstimator
from repro.vectorized.ranking import fold_views, window_push
from repro.vectorized.state import EMPTY, WINDOW_COLUMNS, ArrayState

COLUMNS = ("obs_le", "obs_total", *WINDOW_COLUMNS)

#: How a push picks its targets: no event; a few; several per node on
#: average; one node handed more than ``window`` events among the rest.
PUSHES = ("empty", "sparse", "dense", "flood")


class _Ring:
    """One node's window, one event at a time."""

    def __init__(self, window):
        self.estimator = SlidingWindowRankEstimator(window)
        self.slots = [0] * window
        self.pos = 0

    def push(self, bit):
        self.estimator.observe(bool(bit))
        self.slots[self.pos] = int(bit)
        self.pos = (self.pos + 1) % len(self.slots)


def _push_ids(rng, kind, rows, window):
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "sparse":
        return rng.integers(0, rows, int(rng.integers(1, 4)))
    ids = rng.integers(0, rows, int(rng.integers(1, 3 * rows + 2)))
    if kind == "flood":
        flood = np.full(window + int(rng.integers(1, 4)), rng.integers(0, rows))
        ids = rng.permutation(np.concatenate([ids, flood]))
    return ids


def _state(rng, rows, window, view_size=4):
    state = ArrayState(view_size=view_size, capacity=rows + 3)
    # Few attribute levels: the fold's ``<=`` meets equal attributes.
    state.add_nodes(rng.integers(0, 4, rows) / 4.0, np.zeros(rows))
    state.enable_window(window)
    return state


@given(
    st.integers(1, 70),
    st.integers(1, 40),
    st.lists(st.sampled_from(PUSHES), min_size=1, max_size=8),
    st.sampled_from([0.5, 0.5, 0.0, 1.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_window_push_matches_per_event_ring(window, rows, pushes, ones, seed):
    rng = np.random.default_rng(seed)
    state = _state(rng, rows, window)
    rings = [_Ring(window) for _ in range(rows)]
    for kind in pushes:
        ids = _push_ids(rng, kind, rows, window)
        bits = rng.random(len(ids)) < ones
        window_push(state, ids, bits.astype(np.float64))
        for node, bit in zip(ids, bits):
            rings[node].push(bit)

        slots = np.unpackbits(state.win_bits[:rows], axis=1, bitorder="little")
        assert not slots[:, window:].any()  # the last byte's padding
        for node, ring in enumerate(rings):
            assert state.obs_le[node] == sum(ring.estimator._bits), node
            assert state.obs_total[node] == ring.estimator.sample_count, node
            assert state.win_len[node] == ring.estimator.sample_count, node
            assert state.win_pos[node] == ring.pos, node
            assert slots[node, :window].tolist() == ring.slots, node
    assert not state.win_bits[rows:].any() and not state.win_len[rows:].any()


@given(
    st.integers(1, 70),
    st.integers(2, 30),
    st.integers(0, 5),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.0, 0.2, 0.9]),
    st.sampled_from(["none", "dense", "flood"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_fold_column_rounds_equal_the_grouped_push(
    window, live, dead, view_size, empty_share, prefill, seed
):
    size = live + dead
    ids = np.arange(live)
    results = []
    for rows in (None, slice(0, live), ids):
        rng = np.random.default_rng(seed)
        state = _state(rng, size, window, view_size)
        view = rng.integers(0, size, (size, view_size))  # dead pointers too
        view[rng.random(view.shape) < empty_share] = EMPTY
        state.view_ids[:size] = view
        if prefill != "none":  # mostly ones: a lost or cleared bit shows
            for _ in range(2):
                targets = _push_ids(rng, prefill, live, window)
                window_push(state, targets, rng.random(len(targets)) < 0.9)
        if dead:
            state.remove_nodes(np.arange(live, size))

        if rows is None:  # the same events through the generic push
            view = state.view_ids[:live]
            valid = (view != EMPTY) & state.alive[view]
            le_bits = state.attribute[view] <= state.attribute[:live, None]
            counts = valid.sum(axis=1)
            window_push(state, np.repeat(ids, counts), le_bits[valid])
        else:
            _, valid, counts, _ = fold_views(state, rows, ids)
        results.append(
            [valid, counts] + [getattr(state, name).copy() for name in COLUMNS]
        )

    pushed, sliced, gathered = results
    for index, expected in enumerate(pushed):
        assert np.array_equal(sliced[index], expected), index
        assert np.array_equal(gathered[index], expected), index
