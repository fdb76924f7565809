"""Cross-backend parity: reference vs vectorized vs sharded.

Two levels of agreement are asserted:

* **bitwise** — every bulk backend runs one cycle definition over one
  :class:`~repro.bulk.CyclePlan`; only the executor differs.  So the
  executor's worker threads must produce arrays *identical* to the
  single-threaded run's (``VectorSimulation``) at every worker count,
  and ``ShardedSimulation(workers=1)`` must *be* a ``VectorSimulation``,
  not a third thing;
* **statistical** — all three backends, from one seed, produce the
  same SDM/accuracy story at n = 1k (the backends draw from different
  streams, so trajectories can only agree in distribution).
"""

import numpy as np
import pytest

from repro.churn.models import RegularChurn
from repro.core.slices import SlicePartition
from repro.distributed import DistributedSimulation
from repro.experiments.config import RunSpec, build_simulation
from repro.metrics.collectors import SliceDisorderCollector
from repro.sharded import ShardedSimulation
from repro.vectorized.simulation import VectorSimulation

STATE_COLUMNS = ("attribute", "value", "alive", "obs_le", "obs_total")


def assert_states_identical(sim_a, sim_b):
    state_a, state_b = sim_a.state, sim_b.state
    assert state_a.size == state_b.size
    n = state_a.size
    for column in STATE_COLUMNS:
        a = getattr(state_a, column)[:n]
        b = getattr(state_b, column)[:n]
        assert np.array_equal(a, b), f"{column} diverged"
    assert np.array_equal(state_a.view_ids[:n], state_b.view_ids[:n])
    assert np.array_equal(state_a.view_ages[:n], state_b.view_ages[:n])
    assert sim_a.bus_stats.sent == sim_b.bus_stats.sent
    assert sim_a.bus_stats.swaps == sim_b.bus_stats.swaps
    assert sim_a.bus_stats.unsuccessful_swaps == sim_b.bus_stats.unsuccessful_swaps
    assert sim_a.bus_stats.overlapping == sim_b.bus_stats.overlapping


def paired_runs(protocol, workers, cycles=6, size=300, **overrides):
    partition = SlicePartition.equal(10)
    kwargs = dict(
        size=size,
        partition=partition,
        protocol=protocol,
        view_size=8,
        seed=13,
        **overrides,
    )
    vectorized = VectorSimulation(**kwargs)
    vectorized.run(cycles)
    sharded = ShardedSimulation(workers=workers, **kwargs)
    sharded.run(cycles)
    return vectorized, sharded


class TestWorkersOneBitwise:
    """`sharded` with workers=1 *is* `vectorized`: the constructor
    hands back a plain ``VectorSimulation`` (no thread pool, one shard
    context) with every option forwarded — and so the same bits."""

    @staticmethod
    def assert_same_backend(vectorized, sharded):
        assert type(sharded) is VectorSimulation
        assert not sharded.state.fixed_capacity
        assert_states_identical(vectorized, sharded)

    @pytest.mark.parametrize(
        "protocol", ["ranking", "mod-jk", "jk", "random-misplaced"]
    )
    def test_protocols_identical(self, protocol):
        vectorized, sharded = paired_runs(protocol, workers=1)
        self.assert_same_backend(vectorized, sharded)
        assert sharded.slice_disorder() == vectorized.slice_disorder()
        assert sharded.accuracy() == vectorized.accuracy()

    def test_identical_under_correlated_churn(self):
        # Regression: workers=1 used to pin a fixed capacity of
        # size + max(1024, size // 8) rows although it owns no shared
        # memory, and died once append-only churn outgrew it.
        vectorized, sharded = paired_runs(
            "ranking", workers=1, cycles=20, size=2000,
            churn=RegularChurn(rate=0.05, period=1),
        )
        assert vectorized.state.size == 4000  # past the old 3024-row cap
        self.assert_same_backend(vectorized, sharded)

    def test_identical_with_exact_window(self):
        vectorized, sharded = paired_runs(
            "ranking-window", workers=1, window=15
        )
        self.assert_same_backend(vectorized, sharded)
        state_v, state_s = vectorized.state, sharded.state
        assert np.array_equal(
            state_v.win_bits[: state_v.size], state_s.win_bits[: state_s.size]
        )

    def test_identical_with_uniform_oracle(self):
        vectorized, sharded = paired_runs("ranking", workers=1, sampler="uniform")
        self.assert_same_backend(vectorized, sharded)


class TestPoolBitwise:
    """Real worker threads produce the same bits: results are
    independent of the worker count."""

    def test_pool_matches_vectorized(self):
        vectorized, sharded = paired_runs("ranking", workers=2)
        try:
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()

    def test_pool_matches_inline_under_churn(self):
        partition = SlicePartition.equal(10)
        kwargs = dict(
            size=250,
            partition=partition,
            protocol="mod-jk",
            view_size=8,
            seed=5,
            churn=RegularChurn(rate=0.01, period=2),
        )
        inline = ShardedSimulation(workers=1, **kwargs)
        inline.run(8)
        with ShardedSimulation(workers=3, **kwargs) as pooled:
            pooled.run(8)
            assert_states_identical(inline, pooled)
        inline.close()


class TestConcurrencyParity:
    """The planned message-overlap model is part of the shared cycle
    plan, so sharded output stays bitwise identical to vectorized at
    every worker count under ``half``/``full`` concurrency too."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("concurrency", ["half", "full"])
    def test_ordering_identical(self, workers, concurrency):
        vectorized, sharded = paired_runs(
            "mod-jk", workers=workers, concurrency=concurrency
        )
        try:
            assert_states_identical(vectorized, sharded)
            assert vectorized.bus_stats.overlapping > 0
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_jk_full_identical(self, workers):
        vectorized, sharded = paired_runs(
            "jk", workers=workers, concurrency="full"
        )
        try:
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()

    def test_exact_window_identical_under_concurrency(self):
        # Overlap reorders the UPD event stream, which the exact
        # bit-packed window observes — the order must be planned once.
        vectorized, sharded = paired_runs(
            "ranking-window", workers=2, window=15, concurrency="half"
        )
        try:
            assert_states_identical(vectorized, sharded)
            state_v, state_s = vectorized.state, sharded.state
            assert np.array_equal(
                state_v.win_bits[: state_v.size], state_s.win_bits[: state_s.size]
            )
        finally:
            sharded.close()

    def test_identical_under_concurrency_and_churn(self):
        churn = RegularChurn(rate=0.01, period=2)
        vectorized, sharded = paired_runs(
            "mod-jk", workers=3, cycles=8, churn=churn, concurrency="half"
        )
        try:
            assert vectorized.state.size > 300  # churn actually fired
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()


def skewed_churn(rate=0.05):
    """The paper's correlated-churn policy at an aggressive rate:
    lowest attributes leave every cycle, above-max attributes join, so
    the original id range [0, size) dies off while every joiner lands
    at the top — dead rows concentrate in one (low) id range."""
    return RegularChurn(rate=rate, period=1)


class TestRebalancingParity:
    """The tentpole invariant: the plan-driven rebalance (dead-row
    compaction + shard-boundary recompute) preserves bitwise parity
    with the vectorized backend at every worker count — rebalancing
    off, every-K, and threshold-triggered alike — under the
    correlated/skewed churn that motivates it."""

    KNOBS = [
        {},
        {"rebalance_every": 3},
        {"rebalance_threshold": 1.2},
    ]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "knobs", KNOBS, ids=["off", "every-3", "threshold-1.2"]
    )
    def test_skewed_churn_identical(self, workers, knobs):
        vectorized, sharded = paired_runs(
            "ranking", workers=workers, cycles=10, churn=skewed_churn(), **knobs
        )
        try:
            if knobs:
                # The scenario is only meaningful if compaction fired.
                assert vectorized.rebalance_count > 0
            else:
                assert vectorized.rebalance_count == 0
            assert sharded.rebalance_count == vectorized.rebalance_count
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("concurrency", ["none", "half", "full"])
    def test_identical_under_concurrency_with_rebalancing(
        self, workers, concurrency
    ):
        vectorized, sharded = paired_runs(
            "mod-jk",
            workers=workers,
            cycles=10,
            churn=skewed_churn(),
            concurrency=concurrency,
            rebalance_every=2,
        )
        try:
            assert vectorized.rebalance_count > 0
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()

    def test_exact_window_identical_with_rebalancing(self):
        # The migration must move the bit-packed window columns too.
        vectorized, sharded = paired_runs(
            "ranking-window",
            workers=2,
            cycles=10,
            window=15,
            churn=skewed_churn(),
            rebalance_every=2,
        )
        try:
            assert vectorized.rebalance_count > 0
            assert_states_identical(vectorized, sharded)
            state_v, state_s = vectorized.state, sharded.state
            n = state_v.size
            assert np.array_equal(state_v.win_bits[:n], state_s.win_bits[:n])
            assert np.array_equal(state_v.win_pos[:n], state_s.win_pos[:n])
            assert np.array_equal(state_v.win_len[:n], state_s.win_len[:n])
        finally:
            sharded.close()

    def test_compaction_reclaims_capacity(self):
        # Ids are append-only, so without rebalancing this churn
        # schedule keeps adding rows (the state grows under the worker
        # threads); compaction recycles the dead rows, so the same run
        # fits in its first allocation indefinitely.
        partition = SlicePartition.equal(10)
        kwargs = dict(
            size=200,
            partition=partition,
            protocol="ranking",
            view_size=8,
            seed=3,
            churn=skewed_churn(0.1),
        )
        with ShardedSimulation(workers=2, rebalance_every=2, **kwargs) as sim:
            sim.run(12)
            assert sim.rebalance_count > 0
            assert sim.live_count == 200
            assert sim.state.size <= 200 + 64
            assert sim.state.capacity <= 200 + 1024  # grown once at most
        with ShardedSimulation(workers=2, **kwargs) as sim:
            sim.run(12)
            assert sim.live_count == 200
            assert sim.state.size == 200 + 12 * 20
            assert sim.state.capacity > 400
        # The transport's replicas cannot grow: there a tight
        # spare_capacity holds with compaction and runs out without.
        kwargs.update(workers=2, transport="loopback", spare_capacity=64)
        with DistributedSimulation(rebalance_every=2, **kwargs) as sim:
            sim.run(12)
            assert sim.rebalance_count > 0
            assert sim.live_count == 200
            assert sim.state.capacity == 200 + 64
        with DistributedSimulation(**kwargs) as sim:
            with pytest.raises(RuntimeError, match="spare_capacity"):
                sim.run(12)

    def test_rebalanced_shards_report_even_loads(self):
        vectorized, sharded = paired_runs(
            "ranking",
            workers=4,
            cycles=10,
            churn=skewed_churn(),
            rebalance_threshold=1.5,
        )
        try:
            loads = sharded.shard_live_loads()
            assert len(loads) == 4
            assert sum(loads) == sharded.live_count
            assert sharded.shard_load_ratio() <= 2.0
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", [2, 4, 5])
    def test_tree_reduced_metrics_exactly_equal_vectorized(self, workers):
        # The driver computes every metric itself, from columns it
        # holds current on every executor, so even the *metrics* — not
        # just the arrays — are bitwise executor- and worker-count
        # independent, rebalancing included.
        vectorized, sharded = paired_runs(
            "ranking",
            workers=workers,
            cycles=8,
            churn=skewed_churn(),
            rebalance_every=3,
        )
        try:
            assert sharded.slice_disorder() == vectorized.slice_disorder()
            assert sharded.accuracy() == vectorized.accuracy()
            assert sharded.confident_fraction() == vectorized.confident_fraction()
            assert sharded.slice_sizes() == vectorized.slice_sizes()
        finally:
            sharded.close()


class TestCrossBackendStatistical:
    """SDM/accuracy equivalence of all three backends at n = 1k."""

    @pytest.fixture(scope="class")
    def curves(self):
        spec = RunSpec(
            n=1000,
            cycles=30,
            slice_count=10,
            view_size=10,
            protocol="ranking",
            seed=3,
        )
        out = {}
        for backend in ("reference", "vectorized", "sharded"):
            sim = build_simulation(spec.with_overrides(backend=backend))
            collector = SliceDisorderCollector()
            sim.run(spec.cycles, collectors=[collector])
            out[backend] = (np.array(collector.series.values), sim.live_count)
            sim.close()
        return out

    @pytest.mark.parametrize("backend", ["vectorized", "sharded"])
    def test_sdm_trajectory_matches_reference(self, curves, backend):
        reference, _ = curves["reference"]
        curve, live = curves[backend]
        assert live == 1000
        # Same start (uniform initial estimates), same scale throughout,
        # and monotone improvement — the paper's headline behaviour.
        assert curve[0] == pytest.approx(reference[0], rel=0.15)
        for t in (5, 10, 20, 30):
            assert 0.5 * reference[t] <= curve[t] <= 1.5 * reference[t]
        assert curve[-1] < 0.5 * curve[5]

    def test_sharded_equals_vectorized_exactly(self, curves):
        vec, _ = curves["vectorized"]
        sha, _ = curves["sharded"]
        assert np.array_equal(vec, sha)


class TestFaultParityBitwise:
    """The tentpole acceptance bar: the fault masks are planned, so
    loss + delay + partitions produce bit-identical state at every
    worker count — and identical fault accounting."""

    FAULTS = dict(loss=0.15, delay="0.25:3", partitions="2:3:2")

    def fault_runs(self, protocol, workers, cycles=8, **overrides):
        from repro.bulk.faults import build_fault_model

        faults = build_fault_model(
            loss=self.FAULTS["loss"],
            delay=self.FAULTS["delay"],
            partition=self.FAULTS["partitions"],
        )
        return paired_runs(
            protocol,
            workers=workers,
            cycles=cycles,
            faults=faults,
            **overrides,
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("protocol", ["ranking", "mod-jk"])
    def test_full_fault_regime_identical(self, workers, protocol):
        vectorized, sharded = self.fault_runs(protocol, workers)
        try:
            assert_states_identical(vectorized, sharded)
            assert vectorized.bus_stats.lost > 0
            assert sharded.bus_stats.lost == vectorized.bus_stats.lost
            assert sharded.bus_stats.delayed == vectorized.bus_stats.delayed
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_faults_with_concurrency_identical(self, workers):
        vectorized, sharded = self.fault_runs(
            "mod-jk", workers, concurrency="half"
        )
        try:
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()

    def test_faults_with_rebalancing_identical(self):
        # Queued mail survives row relabeling: the mailbox remap is
        # part of the plan-parity contract too.
        churn = RegularChurn(rate=0.05, period=1)
        vectorized, sharded = self.fault_runs(
            "ranking", workers=2, cycles=10, churn=churn, rebalance_every=2
        )
        try:
            assert vectorized.rebalance_count > 0
            assert sharded.rebalance_count == vectorized.rebalance_count
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ten_thousand_node_fault_parity(self, workers):
        # The CI fault-parity job's headline point: n = 10^4 (the
        # paper's scale) under loss + delay + partition, still bitwise.
        from repro.bulk.faults import build_fault_model

        kwargs = dict(
            size=10_000,
            partition=SlicePartition.equal(10),
            protocol="ranking",
            view_size=8,
            seed=13,
            faults=build_fault_model(
                loss=0.15, delay="0.25:3", partition="1:3:2"
            ),
        )
        vectorized = VectorSimulation(**kwargs)
        vectorized.run(4)
        sharded = ShardedSimulation(workers=workers, **kwargs)
        try:
            sharded.run(4)
            assert vectorized.bus_stats.lost > 0
            assert vectorized.bus_stats.delayed > 0
            assert_states_identical(vectorized, sharded)
        finally:
            sharded.close()
