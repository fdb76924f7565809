"""Unit + behaviour tests for the SlicingService facade."""

import pytest

from repro.core.service import SliceChange, SlicingService
from repro.core.slices import SlicePartition
from repro.obs import Telemetry


class TestConstruction:
    def test_equal_slices_from_int(self):
        service = SlicingService(size=50, slices=5, seed=1)
        assert len(service.partition) == 5

    def test_proportions(self):
        service = SlicingService(size=50, slices=[0.5, 0.3, 0.2], seed=1)
        widths = [s.width for s in service.partition]
        assert widths == pytest.approx([0.5, 0.3, 0.2])

    def test_partition_passthrough(self):
        partition = SlicePartition.equal(3)
        service = SlicingService(size=50, slices=partition, seed=1)
        assert service.partition is partition

    def test_bad_proportions(self):
        with pytest.raises(ValueError):
            SlicingService(size=50, slices=[0.5, 0.2], seed=1)
        with pytest.raises(ValueError):
            SlicingService(size=50, slices=[0.5, 0.5, -0.0], seed=1)

    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            SlicingService(size=50, algorithm="oracle", seed=1)

    @pytest.mark.parametrize("algorithm", ["ranking", "ranking-window", "ordering"])
    def test_all_algorithms_run(self, algorithm):
        service = SlicingService(size=50, slices=4, algorithm=algorithm, seed=1)
        service.run(5)
        assert service.cycle == 5


class TestQueries:
    def test_members_partition_the_population(self):
        service = SlicingService(size=60, slices=4, seed=2)
        service.run(20)
        all_members = []
        for index in range(4):
            all_members.extend(service.members(index))
        assert sorted(all_members) == sorted(
            node.node_id for node in service.simulation.live_nodes()
        )

    def test_members_bad_index(self):
        service = SlicingService(size=20, slices=2, seed=2)
        with pytest.raises(IndexError):
            service.members(5)

    def test_slice_sizes_sum_to_population(self):
        service = SlicingService(size=60, slices=4, seed=2)
        service.run(10)
        assert sum(service.slice_sizes()) == 60

    def test_accuracy_improves(self):
        service = SlicingService(size=100, slices=4, seed=3)
        early = service.accuracy()
        service.run(60)
        assert service.accuracy() > early
        assert service.accuracy() > 0.8

    def test_disorder_decreases(self):
        service = SlicingService(size=100, slices=4, seed=3)
        initial = service.disorder()
        service.run(40)
        assert service.disorder() < initial / 2

    def test_confident_fraction_grows(self):
        service = SlicingService(size=100, slices=4, seed=3)
        service.run(5)
        early = service.confident_fraction()
        service.run(80)
        assert service.confident_fraction() >= early
        assert service.confident_fraction() > 0.5

    def test_confident_fraction_zero_for_ordering(self):
        service = SlicingService(size=50, slices=4, algorithm="ordering", seed=3)
        service.run(10)
        assert service.confident_fraction() == 0.0


class TestMembership:
    def test_join_and_leave(self):
        service = SlicingService(size=30, slices=3, seed=4)
        node_id = service.join(attribute=99.0)
        assert service.size == 31
        assert service.slice_of(node_id) is not None
        service.leave(node_id)
        assert service.size == 30

    @pytest.mark.parametrize("backend", ["reference", "vectorized", "sharded"])
    def test_slice_of_a_departed_node_raises(self, backend):
        with SlicingService(size=30, slices=3, seed=4, backend=backend) as service:
            service.leave(5)
            with pytest.raises(KeyError):
                service.slice_of(5)

    def test_joiner_finds_high_slice(self):
        service = SlicingService(
            size=60,
            slices=3,
            seed=4,
            attributes=[float(i) for i in range(60)],
        )
        service.run(30)
        node_id = service.join(attribute=1000.0)  # above everyone
        service.run(40)
        assert service.slice_of(node_id) == 2


class TestSubscriptions:
    def test_changes_fire_on_reassignment(self):
        service = SlicingService(size=60, slices=4, seed=5)
        changes = []
        service.subscribe(changes.append)
        service.run(30)
        assert changes  # convergence implies reassignments
        first = changes[0]
        assert isinstance(first, SliceChange)
        assert first.old_slice != first.new_slice

    def test_no_changes_after_convergence(self):
        service = SlicingService(size=40, slices=2, seed=5)
        service.run(120)
        late_changes = []
        service.subscribe(late_changes.append)
        service.run(5)
        # A converged static system reassigns (almost) nobody.
        assert len(late_changes) <= 2


class TestTelemetry:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_run_flushes_the_last_cycles_metrics_span(self, backend):
        """Every metrics record has its ``metrics_stream`` span on the
        stream when ``run`` returns, the last cycle's included."""
        telemetry = Telemetry(metrics_every=1)
        with SlicingService(size=50, backend=backend, telemetry=telemetry) as service:
            service.run(3)
        records = telemetry.records
        streams = [
            record
            for record in records
            if record["kind"] == "ambient" and "metrics_stream" in record["spans"]
        ]
        assert sum(record["kind"] == "metrics" for record in records) == 3
        assert len(streams) == 3
