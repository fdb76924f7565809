"""VectorSimulation behaviour: protocol rounds, the compatibility
surface, churn paths, and agreement between the bulk metrics and the
scalar implementations they mirror."""

import numpy as np
import pytest

from repro.analysis.sample_size import slice_estimate_is_confident
from repro.churn.models import BurstChurn, RegularChurn, TraceChurn
from repro.core.slices import SlicePartition
from repro.core.service import SlicingService
from repro.experiments.config import RunSpec, build_simulation
from repro.metrics.collectors import (
    GlobalDisorderCollector,
    PopulationCollector,
    SliceDisorderCollector,
)
from repro.metrics.disorder import global_disorder, slice_disorder
from repro.vectorized import VectorSimulation
from repro.vectorized.state import EMPTY


def make_sim(n=300, protocol="ranking", slice_count=10, view_size=8, seed=7, **kw):
    partition = SlicePartition.equal(slice_count)
    return VectorSimulation(
        size=n,
        partition=partition,
        protocol=protocol,
        view_size=view_size,
        seed=seed,
        **kw,
    )


class TestConstruction:
    def test_rejects_tiny_system(self):
        with pytest.raises(ValueError):
            make_sim(n=1)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            make_sim(protocol="quantum")

    def test_rejects_unsupported_sampler(self):
        # Built directly, past the registry: Cyclon must not run silently.
        for sampler in ("cyclon", "newscast"):
            with pytest.raises(ValueError, match=f"sampler={sampler!r}"):
                make_sim(sampler=sampler)

    def test_rejects_malformed_concurrency(self):
        with pytest.raises(ValueError, match="unknown concurrency"):
            make_sim(concurrency="sometimes")
        with pytest.raises(ValueError, match="probability"):
            make_sim(concurrency=1.5)

    @pytest.mark.parametrize("concurrency", ["none", "half", "full", 0.25])
    def test_accepts_concurrency_regimes(self, concurrency):
        sim = make_sim(concurrency=concurrency)
        sim.run_cycle()
        assert sim.now == 1

    def test_explicit_attributes(self):
        attrs = [0.1 * i for i in range(10)]
        sim = make_sim(n=10, attributes=attrs)
        assert np.allclose(
            np.sort(sim.state.attribute[:10]), np.sort(np.array(attrs))
        )

    def test_explicit_attribute_count_mismatch(self):
        with pytest.raises(ValueError):
            make_sim(n=10, attributes=[0.5, 0.6])

    def test_deterministic_in_seed(self):
        a = make_sim(seed=3); a.run(10)
        b = make_sim(seed=3); b.run(10)
        assert np.array_equal(a.state.value[:300], b.state.value[:300])
        c = make_sim(seed=4); c.run(10)
        assert not np.array_equal(a.state.value[:300], c.state.value[:300])


class TestProtocolRounds:
    @pytest.mark.parametrize(
        "protocol", ["ranking", "ranking-window", "jk", "mod-jk", "random-misplaced"]
    )
    def test_disorder_decreases(self, protocol):
        sim = make_sim(protocol=protocol)
        initial = sim.slice_disorder()
        sim.run(40)
        assert sim.slice_disorder() < initial / 2

    def test_ordering_conserves_value_multiset(self):
        sim = make_sim(protocol="mod-jk", n=200)
        before = np.sort(sim.state.value[sim.state.live_ids()])
        sim.run(30)
        after = np.sort(sim.state.value[sim.state.live_ids()])
        assert np.allclose(before, after)

    def test_ranking_accumulates_samples(self):
        sim = make_sim(protocol="ranking", n=100)
        sim.run(5)
        totals = sim.state.obs_total[sim.state.live_ids()]
        # Each cycle folds the view (c entries) plus ~2 expected UPDs.
        assert totals.min() >= 5
        assert totals.mean() > 5 * sim.view_size * 0.8

    def test_window_caps_effective_samples(self):
        sim = make_sim(protocol="ranking-window", window=50, n=100)
        sim.run(30)
        totals = sim.state.obs_total[sim.state.live_ids()]
        assert totals.max() <= 50 + 1e-9

    def test_uniform_sampler_converges(self):
        sim = make_sim(protocol="ranking", sampler="uniform")
        initial = sim.slice_disorder()
        sim.run(30)
        assert sim.slice_disorder() < initial / 2

    def test_message_stats_counted(self):
        sim = make_sim(protocol="ranking", n=100)
        sim.run(3)
        # Two UPD messages per node with a non-empty view per cycle.
        assert sim.bus_stats.sent == pytest.approx(2 * 100 * 3, rel=0.05)
        sim2 = make_sim(protocol="mod-jk", n=100)
        sim2.run(3)
        assert sim2.bus_stats.sent > 0
        assert sim2.bus_stats.swaps > 0


class TestCompatibilitySurface:
    def test_reference_collectors_work(self):
        sim = make_sim(n=120)
        sdm = SliceDisorderCollector()
        gdm = GlobalDisorderCollector()
        pop = PopulationCollector()
        sim.run(10, collectors=[sdm, gdm, pop])
        assert len(sdm.series) == 11  # time 0 + 10 cycles
        assert sdm.series.final < sdm.series.values[0]
        assert pop.series.final == 120.0

    def test_scalar_and_bulk_metrics_agree(self):
        sim = make_sim(n=150)
        sim.run(8)
        nodes = sim.live_nodes()
        assert sim.slice_disorder() == pytest.approx(
            slice_disorder(nodes, sim.partition)
        )
        assert sim.global_disorder() == pytest.approx(global_disorder(nodes))

    def test_confident_fraction_matches_scalar_test(self):
        sim = make_sim(n=80, slice_count=4)
        sim.run(25)
        expected = 0
        for node in sim.live_nodes():
            samples = node.slicer.sample_count
            if samples and slice_estimate_is_confident(
                min(max(node.slicer.rank_estimate, 0.0), 1.0),
                samples,
                sim.partition,
            ):
                expected += 1
        assert sim.confident_fraction() == pytest.approx(expected / sim.live_count)

    def test_node_proxy_surface(self):
        sim = make_sim(n=50)
        sim.run(2)
        node = sim.node(7)
        assert node.alive
        assert 0.0 <= node.attribute <= 1.0
        assert node.value == node.rank_estimate
        assert node.slice_index == sim.partition.index_of(node.value)
        assert node.slicer is node
        with pytest.raises(KeyError):
            sim.node(10_000)

    def test_add_and_remove_node(self):
        sim = make_sim(n=50)
        new = sim.add_node(0.75)
        assert new.alive and sim.live_count == 51
        sim.remove_node(new.node_id)
        assert sim.live_count == 50
        assert not sim.is_alive(new.node_id)

    def test_random_live_ids_excludes(self):
        sim = make_sim(n=30)
        ids = sim.random_live_ids(10, exclude=3)
        assert len(ids) == 10 and 3 not in ids
        assert len(set(ids)) == 10


class TestChurn:
    def test_bulk_churn_keeps_views_clean(self):
        sim = make_sim(n=400, churn=RegularChurn(rate=0.02, period=2))
        sim.run(20)
        live = sim.state.live_ids()
        view = sim.state.view_ids[live]
        occupied = view != EMPTY
        assert sim.state.alive[np.where(occupied, view, 0)][occupied].all()
        assert sim._bulk_churn is not None

    def test_burst_churn_grows_attribute_range(self):
        sim = make_sim(
            n=300, churn=BurstChurn(rate=0.01, start=0, end=10), seed=2
        )
        sim.run(12)
        live = sim.state.live_ids()
        # Correlated churn: arrivals stack above the initial [0, 1) range.
        assert sim.state.attribute[live].max() > 1.0
        assert sim.live_count == 300

    def test_trace_churn_falls_back_to_object_path(self):
        events = {1: (4, [5.0, 6.0, 7.0])}
        sim = make_sim(n=100, churn=TraceChurn(events))
        assert sim._bulk_churn is None
        sim.run(3)
        assert sim.live_count == 99

    def test_ranking_tracks_population_under_churn(self):
        sim = make_sim(
            n=400, protocol="ranking", churn=RegularChurn(rate=0.01, period=2)
        )
        initial = sim.slice_disorder()
        sim.run(40)
        assert sim.slice_disorder() < initial


class TestServiceIntegration:
    def test_service_vectorized_backend(self):
        service = SlicingService(
            size=400, slices=10, algorithm="ranking", backend="vectorized", seed=1
        )
        before = service.disorder()
        service.run(25)
        assert service.disorder() < before
        assert sum(service.slice_sizes()) == 400
        assert 0.0 <= service.confident_fraction() <= 1.0
        assert service.members(0)
        assert service.slice_of(0) in range(10)

    def test_service_ordering_alias(self):
        service = SlicingService(
            size=200, slices=4, algorithm="ordering", backend="vectorized", seed=1
        )
        service.run(15)
        assert service.accuracy() > 0.5

    def test_service_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SlicingService(size=100, backend="gpu")

    def test_service_events_fire(self):
        service = SlicingService(
            size=200, slices=4, algorithm="ranking", backend="vectorized", seed=1
        )
        changes = []
        service.subscribe(changes.append)
        service.run(10)
        assert changes
        assert all(0 <= change.new_slice < 4 for change in changes)


class TestRunSpecIntegration:
    def test_build_simulation_dispatches(self):
        spec = RunSpec(n=100, cycles=5, protocol="ranking", backend="vectorized")
        sim = build_simulation(spec)
        assert isinstance(sim, VectorSimulation)
        sim.run(5)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            build_simulation(RunSpec(backend="quantum"))

    def test_vectorized_rejects_unsupported_sampler(self):
        spec = RunSpec(n=100, sampler="newscast", backend="vectorized")
        with pytest.raises(ValueError, match="sampler"):
            build_simulation(spec)

    def test_describe_mentions_backend(self):
        assert "backend=vectorized" in RunSpec(backend="vectorized").describe()
        assert "backend" not in RunSpec().describe()
