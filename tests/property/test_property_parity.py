"""One generative check of the bulk backends' bitwise-parity contract.

Every bulk backend runs one cycle over one :class:`~repro.bulk.CyclePlan`;
only the executor differs — worker threads over the driver's own
arrays, or a message transport to state replicas — and every step is
row-local or wave-disjoint, worked one
:data:`~repro.bulk.blocks.BLOCK_BYTES` block at a time.  So a run drawn
from the policy table (:data:`~repro.core.backends.PROTOCOLS` ×
the bulk :data:`~repro.core.backends.SAMPLERS`) and the paper's
regimes (concurrency, churn, faults) plus rebalancing, on 1–4 workers
of either executor and under any block size — one byte, 7 or 49 view
rows, the whole state — must end every cycle with the unpatched
``vectorized`` run's bytes in every column, the same counters, every
numpy stream in the same state and the same rebalance count, and then
read the same five metrics.

The recorded bitwise oracle is the golden matrix
(``tests/bulk/test_golden_digests.py``); this check covers the space
around it and the parity classes in ``tests/sharded/test_parity.py`` and
``tests/distributed/test_parity.py`` pin fixed points of it.
"""

from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk import blocks
from repro.core.backends import PROTOCOLS, SAMPLERS, get_backend, register_backend
from repro.distributed import DistributedSimulation
from repro.experiments.config import RunSpec, build_simulation
from repro.vectorized.state import column_spec

CYCLES = 4
EXECUTORS = {"threads": "sharded", "loopback": "distributed"}
CHURN = (
    {},
    dict(churn="regular", churn_rate=0.1, churn_period=1),
    dict(churn="burst", churn_rate=0.1, churn_burst_end=3),
)
FAULTS = ({}, dict(loss=0.1, delay="0.25:3", partitions="1:2:2"))
REBALANCE = ({}, dict(rebalance_every=2), dict(rebalance_threshold=1.2))


@st.composite
def runs(draw, protocol: str, backend: str):
    """``(spec, block_bytes)``: a :class:`RunSpec` of ``protocol`` on
    ``backend`` with every other axis drawn, and a block size."""
    view_size = draw(st.integers(2, 9))
    spec = RunSpec(
        backend=backend,
        n=draw(st.integers(12, 64)),
        slice_count=4,
        view_size=view_size,
        protocol=protocol,
        sampler=draw(
            st.sampled_from([s for s, p in SAMPLERS.items() if backend in p.backends])
        ),
        concurrency=draw(st.sampled_from(["none", "half", "full"])),
        workers=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31 - 1)),
        **draw(st.sampled_from(CHURN)),
        **draw(st.sampled_from(FAULTS)),
        **draw(st.sampled_from(REBALANCE)),
    )
    row = 8 * view_size  # a view row; the selection costs ~7 of them
    return spec, draw(st.sampled_from([1, 7 * row, 49 * row, 1 << 40]))


@contextmanager
def loopback_transport():
    """The ``distributed`` row building ``DistributedSimulation(
    transport="loopback")`` — no ``RunSpec`` field names a transport."""
    tcp = get_backend("distributed")
    factory = partial(DistributedSimulation, transport="loopback")
    register_backend(replace(tcp, factory=factory))
    try:
        yield
    finally:
        register_backend(tcp)


def trace(spec: RunSpec) -> list:
    """What the run leaves behind after each of ``CYCLES`` cycles, then
    its five metric reads."""
    with build_simulation(spec) as sim:
        seen = []
        for _ in range(CYCLES):
            sim.run_cycle()
            state, stats = sim.sync_state(), sim.bus_stats
            record = {
                name: getattr(state, name)[: state.size].tobytes()
                for name in column_spec(state.view_size, state.window)
            }
            record["size"] = state.size
            record["stats"] = dict(vars(stats))
            record["rebalances"] = sim.rebalance_count
            record["rng"] = {
                name: repr(rng.bit_generator.state)
                for name, rng in sorted(sim._np_rngs.items())
            }
            seen.append(record)
        seen.append(
            {
                "sdm": sim.slice_disorder(),
                "gdm": sim.global_disorder(),
                "accuracy": sim.accuracy(),
                "confident": sim.confident_fraction(),
                "sizes": sim.slice_sizes(),
            }
        )
        return seen


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_matches_vectorized(protocol, executor, data):
    spec, block_bytes = data.draw(runs(protocol, EXECUTORS[executor]))
    expected = trace(spec.with_overrides(backend="vectorized", workers=None))
    default = blocks.BLOCK_BYTES
    blocks.BLOCK_BYTES = block_bytes
    try:
        with loopback_transport():
            seen = trace(spec)
    finally:
        blocks.BLOCK_BYTES = default
    for cycle, (want, got) in enumerate(zip(expected, seen)):
        for key in want:
            assert got[key] == want[key], (cycle, key)
