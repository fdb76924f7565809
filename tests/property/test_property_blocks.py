"""The block size never shows in a run.

Inside the cycle as outside it, state is worked on one
:data:`~repro.bulk.blocks.BLOCK_BYTES` block of what a step costs per
row at a time: the bootstrap fill and the compaction (one column's
rows), the age/purge pass, the view swaps of a wave (in pair chunks),
the ranking fold, the oldest-neighbour proposals and the ordering
round's partner selection (their temporaries).  Every one of those is
row-local, and the selection's and the proposals' uniforms and jitter
are drawn per row and cut per block — which is why JK and
random-misplaced, the two policies that draw, are sampled beside
mod-JK.  So whatever the block — one row, seven view rows, about seven
rows of the costliest kernel, the whole state — and however many
threads share the rows, a churned run must end every cycle with the
bytes of the unpatched run in every column, the same counters, and
every random stream in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk import blocks
from repro.experiments.config import RunSpec, build_simulation
from repro.vectorized.state import column_spec

CYCLES = 4


def snapshots(spec: RunSpec, block_bytes=None) -> list:
    """Everything a cycle leaves behind, after each of ``CYCLES``."""
    default = blocks.BLOCK_BYTES
    if block_bytes is not None:
        blocks.BLOCK_BYTES = block_bytes
    try:
        with build_simulation(spec) as sim:
            seen = []
            for _ in range(CYCLES):
                sim.run_cycle()
                state, stats = sim.state, sim.bus_stats
                record = {
                    name: getattr(state, name)[: state.size].tobytes()
                    for name in column_spec(state.view_size, state.window)
                }
                record["size"] = state.size
                record["stats"] = (stats.sent, stats.swaps, stats.unsuccessful_swaps)
                record["rebalances"] = sim.rebalance_count
                record["rng"] = {
                    name: repr(rng.bit_generator.state)
                    for name, rng in sorted(sim._np_rngs.items())
                }
                seen.append(record)
            return seen
    finally:
        blocks.BLOCK_BYTES = default


@given(
    st.integers(0, 2**31 - 1),
    st.integers(12, 160),
    st.integers(2, 9),
    st.sampled_from(["ranking", "ranking-window", "mod-jk", "jk", "random-misplaced"]),
    st.sampled_from(["none", "half"]),
)
@settings(max_examples=20, deadline=None)
def test_block_size_and_thread_count_never_show(seed, n, view_size, protocol, overlap):
    spec = dict(
        n=n, protocol=protocol, slice_count=4, view_size=view_size, seed=seed,
        concurrency=overlap, churn="regular", churn_rate=0.1, churn_period=1,
        rebalance_every=2,
    )
    expected = snapshots(RunSpec(backend="vectorized", **spec))
    assert expected[-1]["rebalances"] > 0  # compaction ran in blocks too
    row_bytes = 8 * view_size  # a view row; the selection costs ~7 of them
    for block_bytes in (1, 7 * row_bytes, 49 * row_bytes, 1 << 40):
        for workers in (1, 3):
            seen = snapshots(
                RunSpec(backend="sharded", workers=workers, **spec), block_bytes
            )
            for cycle, (want, got) in enumerate(zip(expected, seen)):
                for key in want:
                    assert got[key] == want[key], (block_bytes, workers, cycle, key)
