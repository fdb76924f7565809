"""The shared cycle-plan layer: scheduling properties and the
single-source guarantee (every executor is served identical plans).
"""

import numpy as np
import pytest

from repro.bulk.plan import CyclePlan
from repro.core.slices import SlicePartition
from repro.engine.random_source import derive_seed
from repro.sharded import ShardedSimulation
from repro.vectorized.simulation import VectorSimulation


def make_plan(overlap=0.0, seed=0):
    cache = {}

    def rng_of(name):
        if name not in cache:
            cache[name] = np.random.default_rng(derive_seed(seed, name))
        return cache[name]

    return CyclePlan(rng_of, overlap)


class TestDeliveryRounds:
    """Flush scheduling: every event exactly once, receiver-disjoint
    rounds, receiver-sorted within a round (the shard-cut invariant)."""

    def test_rounds_partition_the_events(self):
        plan = make_plan(overlap=1.0)
        receivers = np.array([3, 7, 3, 3, 9, 7, 1], dtype=np.int64)
        rounds = plan.delivery_rounds(receivers)
        seen = np.concatenate(rounds)
        assert sorted(seen) == list(range(len(receivers)))
        # Round k holds each receiver's (k+1)-th message: sizes shrink.
        assert [len(r) for r in rounds] == sorted(
            [len(r) for r in rounds], reverse=True
        )

    def test_receivers_unique_and_sorted_within_round(self):
        plan = make_plan(overlap=1.0)
        receivers = np.repeat(np.arange(10, dtype=np.int64), 3)
        for round_ids in plan.delivery_rounds(receivers):
            in_round = receivers[round_ids]
            assert len(np.unique(in_round)) == len(in_round)
            assert np.array_equal(in_round, np.sort(in_round))

    def test_per_receiver_order_is_sequential(self):
        # Applying rounds in order must process each receiver's events
        # in one fixed sequence covering all of them.
        plan = make_plan(overlap=1.0)
        receivers = np.array([5, 5, 5, 5, 2, 2], dtype=np.int64)
        rounds = plan.delivery_rounds(receivers)
        events_of_five = [
            int(i) for r in rounds for i in r if receivers[i] == 5
        ]
        assert sorted(events_of_five) == [0, 1, 2, 3]
        assert len(rounds) == 4  # max multiplicity

    def test_empty(self):
        assert make_plan(overlap=1.0).delivery_rounds(np.empty(0)) == []


class TestWaves:
    def test_waves_cover_proposals_and_are_node_disjoint(self):
        plan = make_plan()
        rng = np.random.default_rng(3)
        initiators = np.arange(40, dtype=np.int64)
        targets = rng.integers(40, 80, size=40)
        extra = np.arange(40, dtype=np.int64)
        waves = plan.waves("ordering", initiators, targets, extra, 80)
        covered = np.concatenate([x for _a, _b, x in waves])
        assert sorted(covered) == list(range(40))
        for side_a, side_b, _x in waves:
            nodes = np.concatenate([side_a, side_b])
            assert len(np.unique(nodes)) == len(nodes)


class TestOverlapMasks:
    def test_none_draws_nothing_and_masks_are_false(self):
        plan = make_plan(overlap=0.0)
        req, ack = plan.exchange_overlap(100)
        assert not req.any() and not ack.any()
        order, overlapping = plan.upd_schedule(100)
        assert order is None and overlapping == 0

    def test_full_overlaps_everything(self):
        plan = make_plan(overlap=1.0)
        req, ack = plan.exchange_overlap(50)
        assert req.all() and ack.all()
        order, overlapping = plan.upd_schedule(50)
        assert overlapping == 50
        assert sorted(order) == list(range(50))

    def test_half_is_statistical(self):
        plan = make_plan(overlap=0.5, seed=5)
        req, ack = plan.exchange_overlap(4000)
        for mask in (req, ack):
            assert 0.4 < mask.mean() < 0.6

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            make_plan(overlap=1.5)


class TestPlanTraceParity:
    """The operational meaning of "single-sourced schedule": the
    in-process executor and a worker pool, given the same spec, are
    served identical plan-step traces, cycle for cycle."""

    @staticmethod
    def traced(sim, cycles):
        traces = []
        original = sim._new_plan

        def recording():
            plan = original()
            traces.append(plan.steps)
            return plan

        sim._new_plan = recording
        sim.run(cycles)
        return traces

    def paired_traces(self, cycles, **overrides):
        """``(in-process sim, its traces)`` after asserting a
        two-worker pool was served the same ones."""
        kwargs = dict(
            size=200, partition=SlicePartition.equal(5), view_size=6, seed=21,
            **overrides,
        )
        vectorized = VectorSimulation(**kwargs)
        traces = self.traced(vectorized, cycles)
        with ShardedSimulation(workers=2, **kwargs) as sharded:
            assert self.traced(sharded, cycles) == traces
        return vectorized, traces

    @pytest.mark.parametrize("protocol", ["ranking", "mod-jk"])
    @pytest.mark.parametrize("concurrency", ["none", "half"])
    def test_traces_identical(self, protocol, concurrency):
        _sim, traces = self.paired_traces(
            5, protocol=protocol, concurrency=concurrency
        )
        assert len(traces) == 5
        assert all(trace for trace in traces)

    @pytest.mark.parametrize("protocol", ["ranking", "mod-jk"])
    def test_fault_traces_identical(self, protocol):
        # The fault masks are plan points like any other: with loss,
        # delay and a partition window all firing, the recorded step
        # traces (including "faults:*" and "partition" steps) coincide
        # across executors.
        from repro.bulk.faults import FaultModel, PartitionWindow

        _sim, traces = self.paired_traces(
            6,
            protocol=protocol,
            concurrency="half",
            faults=FaultModel(
                loss=0.2,
                delay=0.3,
                delay_max=3,
                partitions=(PartitionWindow(2, 2),),
            ),
        )
        assert any(
            step[0].startswith("faults:") or step[0] == "partition"
            for trace in traces
            for step in trace
        )

    def test_rebalance_step_traced_identically(self):
        from repro.churn.models import RegularChurn

        vectorized, traces = self.paired_traces(
            6,
            protocol="ranking",
            churn=RegularChurn(rate=0.05, period=1),
            rebalance_every=2,
        )
        # The compaction is a recorded plan step, not a backend-private
        # side effect: it shows up in the shared trace.
        rebalance_steps = [
            step for trace in traces for step in trace if step[0] == "rebalance"
        ]
        assert rebalance_steps
        assert vectorized.rebalance_count == len(rebalance_steps)
