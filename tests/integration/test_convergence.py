"""Cross-module integration: convergence across distributions,
samplers and partitions.

The slicing problem is rank-based, so a correct implementation must
converge regardless of how skewed the attribute distribution is and
which membership protocol feeds it.
"""

import pytest

from repro.core.ordering import OrderingProtocol
from repro.core.ranking import RankingProtocol
from repro.core.slices import SlicePartition
from repro.engine.simulator import CycleSimulation
from repro.metrics.disorder import global_disorder, slice_disorder
from repro.sampling.cyclon import CyclonSampler
from repro.sampling.cyclon_variant import CyclonVariantSampler
from repro.sampling.uniform import UniformOracleSampler
from repro.workloads.attributes import (
    BimodalAttributes,
    ExponentialAttributes,
    NormalAttributes,
    ParetoAttributes,
    UniformAttributes,
)

DISTRIBUTIONS = {
    "uniform": UniformAttributes(),
    "pareto": ParetoAttributes(shape=1.2),
    "exponential": ExponentialAttributes(),
    "normal": NormalAttributes(mu=1.7, sigma=0.2),
    "bimodal": BimodalAttributes(),
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
class TestDistributionInsensitivity:
    def test_ordering_converges(self, name):
        partition = SlicePartition.equal(5)
        sim = CycleSimulation(
            size=120, partition=partition,
            slicer_factory=lambda: OrderingProtocol(partition),
            attributes=DISTRIBUTIONS[name], view_size=10, seed=4,
        )
        sim.run(80)
        assert global_disorder(sim.live_nodes()) < 1.0

    def test_ranking_converges(self, name):
        partition = SlicePartition.equal(5)
        sim = CycleSimulation(
            size=120, partition=partition,
            slicer_factory=lambda: RankingProtocol(partition),
            attributes=DISTRIBUTIONS[name], view_size=10, seed=4,
        )
        initial = slice_disorder(sim.live_nodes(), partition)
        sim.run(60)
        assert slice_disorder(sim.live_nodes(), partition) < initial / 3


class TestSamplerInsensitivity:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda nid: CyclonVariantSampler(nid, 10),
            lambda nid: CyclonSampler(nid, 10),
            lambda nid: UniformOracleSampler(nid, 10),
        ],
        ids=["cyclon-variant", "cyclon", "uniform"],
    )
    def test_ranking_on_each_sampler(self, factory):
        partition = SlicePartition.equal(5)
        sim = CycleSimulation(
            size=120, partition=partition,
            slicer_factory=lambda: RankingProtocol(partition),
            sampler_factory=factory, view_size=10, seed=6,
        )
        initial = slice_disorder(sim.live_nodes(), partition)
        sim.run(60)
        assert slice_disorder(sim.live_nodes(), partition) < initial / 3


class TestPartitionShapes:
    def test_unequal_slices(self):
        # The paper's motivating example: the 20% "best" nodes.
        partition = SlicePartition.from_boundaries([0.8])
        sim = CycleSimulation(
            size=150, partition=partition,
            slicer_factory=lambda: RankingProtocol(partition),
            view_size=10, seed=8,
        )
        sim.run(80)
        nodes = sorted(sim.live_nodes(), key=lambda n: (n.attribute, n.node_id))
        top = nodes[-20:]   # clearly inside the top 20% (rank >= 0.87)
        bottom = nodes[:100]  # clearly inside the bottom 80%
        top_correct = sum(1 for node in top if node.slice_index == 1)
        bottom_correct = sum(1 for node in bottom if node.slice_index == 0)
        assert top_correct >= 18
        assert bottom_correct >= 95

    def test_single_slice_trivial(self):
        partition = SlicePartition.equal(1)
        sim = CycleSimulation(
            size=50, partition=partition,
            slicer_factory=lambda: RankingProtocol(partition),
            view_size=8, seed=8,
        )
        sim.run(10)
        assert slice_disorder(sim.live_nodes(), partition) == 0.0

    def test_many_slices(self):
        partition = SlicePartition.equal(50)
        sim = CycleSimulation(
            size=200, partition=partition,
            slicer_factory=lambda: RankingProtocol(partition),
            view_size=10, seed=8,
        )
        initial = slice_disorder(sim.live_nodes(), partition)
        sim.run(80)
        assert slice_disorder(sim.live_nodes(), partition) < initial / 3
