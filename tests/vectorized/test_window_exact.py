"""The exact bit-packed sliding window (Section 5.3.4, bulk form).

``window_push`` must reproduce, for every node at once, what the
reference :class:`~repro.core.estimators.SlidingWindowRankEstimator`
does one observation at a time: keep the last ``window`` comparison
bits in a FIFO and expose their sum/count.  The oracle below replays
the same event streams through the reference estimator.
"""

import numpy as np
import pytest

from repro.core.estimators import SlidingWindowRankEstimator
from repro.core.slices import SlicePartition
from repro.vectorized.ranking import window_push
from repro.vectorized.simulation import VectorSimulation
from repro.vectorized.state import ArrayState


def make_state(rows, window):
    state = ArrayState(view_size=4, capacity=rows)
    state.add_nodes(np.linspace(0.1, 0.9, rows), np.zeros(rows))
    state.enable_window(window)
    return state


def reference_counts(window, events_per_node):
    """(le, total) per node after replaying through the reference FIFO."""
    out = {}
    for node, bits in events_per_node.items():
        estimator = SlidingWindowRankEstimator(window)
        for bit in bits:
            estimator.observe(bool(bit))
        out[node] = (sum(estimator._bits), estimator.sample_count)
    return out


@pytest.mark.parametrize("window", [1, 3, 8, 13, 64])
def test_matches_reference_fifo_under_random_streams(window):
    rng = np.random.default_rng(42)
    rows = 20
    state = make_state(rows, window)
    replay = {node: [] for node in range(rows)}
    for _push in range(12):
        count = rng.integers(0, 4 * window, size=1)[0]
        ids = rng.integers(0, rows, size=count).astype(np.int64)
        bits = rng.integers(0, 2, size=count)
        window_push(state, ids, bits.astype(np.float64))
        for node, bit in zip(ids, bits):
            replay[int(node)].append(int(bit))
    expected = reference_counts(window, replay)
    for node, (le, total) in expected.items():
        assert state.obs_le[node] == le, f"node {node} le"
        assert state.obs_total[node] == total, f"node {node} total"


def test_overfull_single_push_keeps_last_window_bits():
    window = 5
    state = make_state(2, window)
    # 13 events in one push for node 0: only the last 5 must survive.
    bits = np.array([1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1], dtype=np.float64)
    window_push(state, np.zeros(13, dtype=np.int64), bits)
    assert state.obs_total[0] == window
    assert state.obs_le[0] == bits[-window:].sum()
    assert state.obs_total[1] == 0


def test_eviction_wraps_the_ring():
    window = 4
    state = make_state(1, window)
    ids = np.zeros(1, dtype=np.int64)
    for bit in (1, 1, 1, 1):
        window_push(state, ids, np.array([float(bit)]))
    assert state.obs_le[0] == 4
    for bit in (0, 0, 0, 0, 0):
        window_push(state, ids, np.array([float(bit)]))
    assert state.obs_le[0] == 0
    assert state.obs_total[0] == window


def test_windowed_run_tracks_correlated_churn_better_than_cumulative():
    """Figure 6(d)'s motivation: under attribute-correlated churn the
    bounded window keeps following the live population."""
    from repro.churn.models import RegularChurn

    partition = SlicePartition.equal(10)
    results = {}
    for protocol, window in (("ranking", None), ("ranking-window", 60)):
        sim = VectorSimulation(
            size=600,
            partition=partition,
            protocol=protocol,
            window=window,
            view_size=10,
            seed=21,
            churn=RegularChurn(rate=0.005, period=1),
        )
        sim.run(80)
        results[protocol] = sim.slice_disorder()
    assert results["ranking-window"] < results["ranking"]


def test_window_counters_are_exact_in_window_counts():
    exact = VectorSimulation(
        size=300,
        partition=SlicePartition.equal(10),
        protocol="ranking-window",
        window=16,
        view_size=8,
        seed=4,
    )
    assert exact.state.window == 16
    exact.run(6)
    # The sample count is capped at the window...
    live = exact.state.live_ids()
    assert exact.state.obs_total[live].max() <= 16
    # ...and the window holds integer in-window counts,
    assert np.array_equal(exact.state.obs_le[live], exact.state.obs_le[live].round())
    # equal to the buffer popcounts.
    popcount = np.unpackbits(
        exact.state.win_bits[live], axis=1, bitorder="little"
    )[:, :16].sum(axis=1)
    assert np.array_equal(popcount, exact.state.obs_le[live].astype(int))


def test_window_columns_grow_with_capacity():
    state = make_state(4, window=9)
    state.add_nodes(np.linspace(0.2, 0.8, 50), np.zeros(50))
    assert state.win_bits.shape == (state.capacity, 2)
    assert state.win_len.max() == 0
