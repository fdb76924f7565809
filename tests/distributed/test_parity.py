"""Cross-backend parity for the distributed (message-transport) driver.

The acceptance bar of the distributed backend: because it consumes the
same :class:`~repro.bulk.CyclePlan` and shard kernels as the other bulk
backends and only replaces shared memory with framed messages, a run
over the **TCP transport** must be *bitwise identical* to the
vectorized backend at workers 1/2/4, under none/half/full concurrency,
with rebalancing off and on — and the loopback transport must produce
the same bytes as TCP.
"""

import numpy as np
import pytest

from repro.bulk.blocks import block_rows
from repro.churn.models import RegularChurn
from repro.core.slices import SlicePartition
from repro.distributed import DistributedSimulation
from repro.sharded import ShardedSimulation
from repro.vectorized.simulation import VectorSimulation
from repro.vectorized.state import column_spec

STATE_COLUMNS = ("attribute", "value", "alive", "obs_le", "obs_total")


def assert_states_identical(vectorized, distributed):
    state_d = distributed.sync_state()
    state_v = vectorized.state
    assert state_v.size == state_d.size
    n = state_v.size
    for column in STATE_COLUMNS:
        assert np.array_equal(
            getattr(state_v, column)[:n], getattr(state_d, column)[:n]
        ), f"{column} diverged"
    assert np.array_equal(state_v.view_ids[:n], state_d.view_ids[:n])
    assert np.array_equal(state_v.view_ages[:n], state_d.view_ages[:n])
    assert vectorized.bus_stats.sent == distributed.bus_stats.sent
    assert vectorized.bus_stats.swaps == distributed.bus_stats.swaps
    assert (
        vectorized.bus_stats.unsuccessful_swaps
        == distributed.bus_stats.unsuccessful_swaps
    )
    assert vectorized.bus_stats.overlapping == distributed.bus_stats.overlapping


def skewed_churn(rate=0.05):
    """Correlated churn (lowest leave, above-max join) — concentrates
    dead rows so the rebalancing path actually fires."""
    return RegularChurn(rate=rate, period=1)


def paired_runs(protocol, workers, transport, cycles=6, size=200, **overrides):
    kwargs = dict(
        size=size,
        partition=SlicePartition.equal(10),
        protocol=protocol,
        view_size=8,
        seed=13,
        **overrides,
    )
    vectorized = VectorSimulation(**kwargs)
    vectorized.run(cycles)
    distributed = DistributedSimulation(
        workers=workers, transport=transport, **kwargs
    )
    distributed.run(cycles)
    return vectorized, distributed


class TestTcpAcceptanceMatrix:
    """The ISSUE acceptance matrix, over real localhost TCP sockets:
    workers x concurrency x rebalancing, all bitwise."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("concurrency", ["none", "half", "full"])
    def test_rebalancing_off(self, workers, concurrency):
        vectorized, distributed = paired_runs(
            "mod-jk", workers, "tcp", concurrency=concurrency
        )
        try:
            assert vectorized.rebalance_count == 0
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("concurrency", ["none", "half", "full"])
    def test_rebalancing_on(self, workers, concurrency):
        vectorized, distributed = paired_runs(
            "mod-jk",
            workers,
            "tcp",
            cycles=8,
            churn=skewed_churn(),
            concurrency=concurrency,
            rebalance_every=2,
        )
        try:
            assert vectorized.rebalance_count > 0
            assert distributed.rebalance_count == vectorized.rebalance_count
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_service_over_tcp_matches_vectorized(self, workers):
        # The acceptance criterion verbatim: the *service* facade with
        # backend="distributed" over the (default) TCP transport.
        from repro.core.service import SlicingService

        spec = dict(
            size=150, slices=8, algorithm="ranking", view_size=6, seed=17
        )
        with SlicingService(
            backend="distributed", workers=workers, **spec
        ) as service:
            assert service.simulation.transport == "tcp"
            service.run(5)
            with SlicingService(backend="vectorized", **spec) as reference:
                reference.run(5)
                assert service.disorder() == reference.disorder()
                assert service.accuracy() == reference.accuracy()
                assert service.slice_sizes() == reference.slice_sizes()
                assert (
                    service.confident_fraction()
                    == reference.confident_fraction()
                )

    def test_ranking_with_churn_over_tcp(self):
        vectorized, distributed = paired_runs(
            "ranking", 2, "tcp", cycles=8, churn=RegularChurn(rate=0.02, period=2)
        )
        try:
            assert vectorized.state.size > 200  # churn actually fired
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()


class TestLoopbackParity:
    """The in-process loopback transport: same framed bytes, no
    process spawn — the full protocol matrix runs here."""

    @pytest.mark.parametrize(
        "protocol", ["ranking", "mod-jk", "jk", "random-misplaced"]
    )
    def test_protocols_identical(self, protocol):
        vectorized, distributed = paired_runs(protocol, 2, "loopback")
        try:
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()

    def test_exact_window_identical(self):
        vectorized, distributed = paired_runs(
            "ranking-window", 2, "loopback", window=15
        )
        try:
            assert_states_identical(vectorized, distributed)
            n = vectorized.state.size
            assert np.array_equal(
                vectorized.state.win_bits[:n], distributed.state.win_bits[:n]
            )
        finally:
            distributed.close()

    def test_exact_window_identical_with_rebalancing(self):
        # The migration must ship the bit-packed window columns too.
        vectorized, distributed = paired_runs(
            "ranking-window",
            2,
            "loopback",
            cycles=10,
            window=15,
            churn=skewed_churn(),
            rebalance_every=2,
        )
        try:
            assert vectorized.rebalance_count > 0
            assert_states_identical(vectorized, distributed)
            n = vectorized.state.size
            for column in ("win_bits", "win_pos", "win_len"):
                assert np.array_equal(
                    getattr(vectorized.state, column)[:n],
                    getattr(distributed.state, column)[:n],
                ), column
        finally:
            distributed.close()

    def test_block_size_changes_nothing(self, monkeypatch):
        # State moves in BLOCK_BYTES blocks (bootstrap fill, replication,
        # migration, sync, the row-local kernels); at test sizes a column
        # is one block, so shrink the block until every column is many.
        spec = dict(
            cycles=10, window=15, churn=skewed_churn(), rebalance_every=2, size=300
        )
        whole, _unused = paired_runs("ranking-window", 1, "loopback", **spec)
        _unused.close()
        monkeypatch.setattr("repro.bulk.blocks.BLOCK_BYTES", 256)
        vectorized, distributed = paired_runs("ranking-window", 3, "loopback", **spec)
        kwargs = dict(spec, partition=SlicePartition.equal(10), view_size=8, seed=13)
        cycles = kwargs.pop("cycles")
        pooled = ShardedSimulation(protocol="ranking-window", workers=2, **kwargs)
        try:
            pooled.run(cycles)
            assert whole.rebalance_count > 0
            assert block_rows(whole.state.win_bits.strides[0]) < whole.state.size // 2
            assert_states_identical(vectorized, distributed)
            n = whole.state.size
            for other in (vectorized, distributed, pooled):
                assert other.state.size == n
                for column in column_spec(8, 15):
                    assert np.array_equal(
                        getattr(whole.state, column)[:n],
                        getattr(other.state, column)[:n],
                    ), column
        finally:
            distributed.close()
            pooled.close()

    def test_uniform_oracle_identical(self):
        vectorized, distributed = paired_runs(
            "ranking", 2, "loopback", sampler="uniform"
        )
        try:
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()

    def test_threshold_rebalance_identical_and_loads_even(self):
        vectorized, distributed = paired_runs(
            "ranking",
            4,
            "loopback",
            cycles=10,
            churn=skewed_churn(),
            rebalance_threshold=1.5,
        )
        try:
            assert vectorized.rebalance_count > 0
            loads = distributed.shard_live_loads()
            assert len(loads) == 4
            assert sum(loads) == distributed.live_count
            assert distributed.shard_load_ratio() <= 2.0
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()

    @pytest.mark.parametrize("workers", [2, 5])
    def test_tree_reduced_metrics_exactly_equal_vectorized(self, workers):
        # The driver computes the metrics from its replicated columns
        # (obs_total pulled for confident_fraction) — the same code as
        # vectorized, so bitwise executor- and worker-count independent.
        vectorized, distributed = paired_runs(
            "ranking",
            workers,
            "loopback",
            cycles=8,
            churn=skewed_churn(),
            rebalance_every=3,
        )
        try:
            assert distributed.slice_disorder() == vectorized.slice_disorder()
            assert distributed.accuracy() == vectorized.accuracy()
            assert (
                distributed.confident_fraction()
                == vectorized.confident_fraction()
            )
            assert distributed.slice_sizes() == vectorized.slice_sizes()
            assert distributed.global_disorder() == vectorized.global_disorder()
        finally:
            distributed.close()

    def test_compat_churn_api_identical(self):
        # add_node/remove_node between cycles must replicate to the
        # workers (the object-API churn path).
        kwargs = dict(
            size=120,
            partition=SlicePartition.equal(8),
            protocol="ranking",
            view_size=6,
            seed=5,
        )
        vectorized = VectorSimulation(**kwargs)
        distributed = DistributedSimulation(
            workers=2, transport="loopback", **kwargs
        )
        try:
            for sim in (vectorized, distributed):
                sim.run(2)
                sim.add_node(0.77)
                sim.remove_node(3)
                sim.run(3)
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()


class TestTransportEquivalence:
    """TCP and loopback are the same protocol over different sockets:
    identical results, byte for byte."""

    @pytest.mark.parametrize(
        "scenario",
        [
            dict(protocol="ranking"),
            dict(protocol="mod-jk", concurrency="half"),
            dict(
                protocol="ranking",
                churn=skewed_churn(),
                rebalance_every=2,
                cycles=8,
            ),
        ],
        ids=["ranking", "modjk-half", "rebalancing"],
    )
    def test_loopback_equals_tcp(self, scenario):
        scenario = dict(scenario)
        cycles = scenario.pop("cycles", 6)
        kwargs = dict(
            size=150,
            partition=SlicePartition.equal(8),
            view_size=6,
            seed=21,
            **scenario,
        )
        over_tcp = DistributedSimulation(workers=2, transport="tcp", **kwargs)
        over_loopback = DistributedSimulation(
            workers=2, transport="loopback", **kwargs
        )
        try:
            over_tcp.run(cycles)
            over_loopback.run(cycles)
            state_t = over_tcp.sync_state()
            state_l = over_loopback.sync_state()
            n = state_t.size
            assert state_l.size == n
            for column in STATE_COLUMNS + ("view_ids", "view_ages"):
                assert np.array_equal(
                    getattr(state_t, column)[:n], getattr(state_l, column)[:n]
                ), column
        finally:
            over_tcp.close()
            over_loopback.close()


class TestFaultParityBitwise:
    """Loss + delay + partitions over the message transports: the fault
    fates are drawn in the plan and shipped as payload slices, so the
    distributed backend is bitwise identical to vectorized under every
    fault regime."""

    def fault_runs(self, protocol, workers, transport, cycles=8, **overrides):
        from repro.bulk.faults import build_fault_model

        faults = build_fault_model(loss=0.15, delay="0.25:3", partition="2:3:2")
        return paired_runs(
            protocol,
            workers,
            transport,
            cycles=cycles,
            faults=faults,
            **overrides,
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("protocol", ["ranking", "mod-jk"])
    def test_loopback_full_fault_regime(self, workers, protocol):
        vectorized, distributed = self.fault_runs(protocol, workers, "loopback")
        try:
            assert vectorized.bus_stats.lost > 0
            assert distributed.bus_stats.lost == vectorized.bus_stats.lost
            assert distributed.bus_stats.delayed == vectorized.bus_stats.delayed
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()

    def test_tcp_full_fault_regime(self):
        vectorized, distributed = self.fault_runs("mod-jk", 2, "tcp")
        try:
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()

    def test_faults_with_rebalancing_identical(self):
        vectorized, distributed = self.fault_runs(
            "ranking",
            2,
            "loopback",
            cycles=10,
            churn=skewed_churn(),
            rebalance_every=2,
        )
        try:
            assert vectorized.rebalance_count > 0
            assert_states_identical(vectorized, distributed)
        finally:
            distributed.close()
