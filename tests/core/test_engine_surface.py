"""Every engine serves the one engine surface
(:class:`~repro.core.backends.SimulationBackend`).

Built from a tiny :class:`~repro.experiments.config.RunSpec`, each
registered backend is an instance of the protocol and answers the
slicing queries as the per-node oracle of :mod:`repro.metrics.disorder`
does over its own ``live_nodes()``: exactly on the reference engine,
whose queries *are* that oracle, and to rounding on the bulk engines,
which compute them from arrays.  The distributed backend runs on the
loopback transport.
"""

import pytest

from repro.churn import RegularChurn
from repro.core.backends import SimulationBackend, backend_names, get_backend
from repro.core.service import SliceChange, SlicingService
from repro.experiments.config import RunSpec, build_simulation
from repro.metrics.disorder import global_disorder, slice_disorder, true_slice_indices

SPEC = RunSpec(
    n=60,
    cycles=6,
    slice_count=4,
    view_size=6,
    churn="regular",
    churn_rate=0.05,
    churn_period=2,
    seed=5,
)


def per_node_oracle(sim) -> dict:
    """Every slicing query, answered from ``sim.live_nodes()`` alone."""
    nodes = sim.live_nodes()
    partition = sim.partition
    truth = true_slice_indices(nodes, partition)
    sizes = [0] * len(partition)
    for node in nodes:
        sizes[node.slice_index] += 1
    return {
        "slice_disorder": slice_disorder(nodes, partition),
        "global_disorder": global_disorder(nodes),
        "accuracy": sum(
            node.slice_index == truth[node.node_id] for node in nodes
        ) / len(nodes),
        "slice_sizes": sizes,
        "ids": [node.node_id for node in nodes],
        "slices": [node.slice_index for node in nodes],
    }


@pytest.fixture(params=["ranking", "mod-jk"])
def protocol(request):
    return request.param


@pytest.fixture(params=backend_names())
def engine(request, protocol, monkeypatch):
    monkeypatch.setenv("REPRO_DISTRIBUTED_TRANSPORT", "loopback")
    backend = request.param
    workers = 2 if get_backend(backend).multiprocess else None
    spec = SPEC.with_overrides(backend=backend, protocol=protocol, workers=workers)
    sim = build_simulation(spec)
    try:
        sim.run(spec.cycles)
        yield backend, sim
    finally:
        sim.close()


def test_every_engine_is_a_simulation_backend(engine):
    _backend, sim = engine
    assert isinstance(sim, SimulationBackend)


def test_queries_match_the_per_node_oracle(engine):
    backend, sim = engine
    expected = per_node_oracle(sim)
    ids, slices = sim.slice_assignment()
    counts = {
        "slice_sizes": sim.slice_sizes(),
        "ids": ids.tolist(),
        "slices": slices.tolist(),
    }
    measures = {
        "slice_disorder": sim.slice_disorder(),
        "global_disorder": sim.global_disorder(),
        "accuracy": sim.accuracy(),
    }
    assert counts == {key: expected.pop(key) for key in counts}
    if backend == "reference":
        assert measures == expected
    else:
        assert measures == pytest.approx(expected)


def dict_diff(sim, last: dict):
    """The reference engine's former ``SlicingService`` change feed: a
    dict of live node -> slice compared with the previous one (an
    unseen node's old slice is ``None``).  Returns the changes and the
    new dict."""
    current = {node.node_id: node.slice_index for node in sim.live_nodes()}
    changes = [
        SliceChange(sim.now, node_id, last.get(node_id), new_slice)
        for node_id, new_slice in current.items()
        if last.get(node_id) != new_slice and new_slice is not None
    ]
    return changes, current


def test_subscribe_emits_the_dict_diff_sequence_joins_included():
    service = SlicingService(
        size=40, slices=4, seed=6, churn=RegularChurn(rate=0.05, period=2)
    )
    events = []
    service.subscribe(events.append)
    sim = service.simulation
    _none, last = dict_diff(sim, {})
    expected = []
    for cycle in range(12):
        if cycle % 4 == 1:
            service.join(attribute=0.5 + cycle)
            service.leave(sim.live_nodes()[0].node_id)
        service.run(1)
        changes, last = dict_diff(sim, last)
        expected.extend(changes)
    assert events == expected
    assert any(change.old_slice is None for change in expected)  # joins
    assert any(change.old_slice is not None for change in expected)
