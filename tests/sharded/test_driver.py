"""ShardedSimulation driver behaviour: service seam, metrics on a
pool, dead-shard resilience, worker start methods, capacity limits,
and resource lifecycle."""

import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.churn.models import RegularChurn
from repro.core.service import SlicingService
from repro.core.slices import SlicePartition
from repro.distributed import DistributedSimulation
from repro.metrics.statistics import z_value
from repro.obs import Telemetry
from repro.sharded import ShardedSimulation
from repro.sharded.shm import SharedScratch
from repro.vectorized import metrics as vmetrics
from repro.vectorized.simulation import VectorSimulation


def make_sim(workers, size=240, protocol="ranking", **kwargs):
    return ShardedSimulation(
        size=size,
        partition=SlicePartition.equal(8),
        protocol=protocol,
        view_size=8,
        seed=9,
        workers=workers,
        **kwargs,
    )


class TestDistributedMetrics:
    """The metrics of a pooled run must equal the central computations
    on the same arrays."""

    @pytest.fixture(scope="class")
    def pooled(self):
        sim = make_sim(workers=3)
        sim.run(5)
        yield sim
        sim.close()

    def test_slice_disorder_matches_central(self, pooled):
        live = pooled.state.live_ids()
        central = vmetrics.slice_disorder_arrays(
            pooled.state.attribute[live],
            pooled.state.value[live],
            live,
            pooled.geometry,
        )
        assert pooled.slice_disorder() == pytest.approx(central, abs=1e-9)

    def test_accuracy_matches_central(self, pooled):
        live = pooled.state.live_ids()
        central = vmetrics.accuracy_arrays(
            pooled.state.attribute[live],
            pooled.state.value[live],
            live,
            pooled.geometry,
        )
        assert pooled.accuracy() == pytest.approx(central, abs=1e-12)

    def test_global_disorder_matches_central(self, pooled):
        live = pooled.state.live_ids()
        central = vmetrics.global_disorder_arrays(
            pooled.state.attribute[live], pooled.state.value[live], live
        )
        assert pooled.global_disorder() == pytest.approx(central, rel=1e-12)

    def test_confident_fraction_and_slice_sizes(self, pooled):
        sizes = pooled.slice_sizes()
        assert sum(sizes) == pooled.live_count
        fraction = pooled.confident_fraction()
        assert 0.0 <= fraction <= 1.0

    def test_rank_merge_breaks_ties_by_id(self):
        # Duplicate attributes force the (attribute, id) tie-break.
        attributes = [0.25, 0.75, 0.25, 0.75] * 30
        sim = make_sim(workers=3, size=120, attributes=attributes)
        sim.run(3)
        try:
            live = sim.state.live_ids()
            central = vmetrics.slice_disorder_arrays(
                sim.state.attribute[live],
                sim.state.value[live],
                live,
                sim.geometry,
            )
            assert sim.slice_disorder() == pytest.approx(central, abs=1e-9)
        finally:
            sim.close()


class TestMetricReadsDispatchNothing:
    """Metrics are the driver's own computation over columns it holds
    current on every executor: reading one sends no command to any
    worker (``confident_fraction`` pulls ``obs_total`` — one
    ``dump_state`` round on a transport, nothing on a pool)."""

    @pytest.mark.parametrize("backend", ["pool", "loopback"])
    def test_metric_reads_dispatch_nothing(self, backend):
        telemetry = Telemetry(engine=backend, metrics_every=1)
        kwargs = dict(
            churn=RegularChurn(rate=0.05, period=1),
            rebalance_every=3,
            telemetry=telemetry,
        )
        if backend == "pool":
            sim = make_sim(workers=2, **kwargs)
        else:
            sim = DistributedSimulation(
                size=240,
                partition=SlicePartition.equal(8),
                view_size=8,
                seed=9,
                workers=2,
                transport="loopback",
                **kwargs,
            )

        def commands():
            telemetry.flush()
            return telemetry.counter_totals().get("commands", 0)

        with sim:
            # Before the first cycle a pool has forked nothing, and a
            # metric read must not be what starts it.
            sim.slice_disorder(), sim.global_disorder(), sim.confident_fraction()
            assert not multiprocessing.active_children()
            sim.run(6)
            assert sim.rebalance_count > 0
            state = sim.sync_state()
            live = state.live_ids()
            columns = (state.attribute[live], state.value[live], live)
            before = commands()
            assert sim.slice_disorder() == vmetrics.slice_disorder_arrays(
                *columns, sim.geometry
            )
            assert sim.accuracy() == vmetrics.accuracy_arrays(*columns, sim.geometry)
            assert sim.global_disorder() == vmetrics.global_disorder_arrays(*columns)
            believed = sim.geometry.index_of(state.value[live])
            assert sim.slice_sizes() == np.bincount(believed, minlength=8).tolist()
            assert commands() == before
            confident = vmetrics.confident_mask(
                state.value[live], state.obs_total[live], sim.geometry, z_value(0.95)
            )
            assert sim.confident_fraction() == float(np.mean(confident))
            assert commands() - before == (backend == "loopback")
        assert len(telemetry.metrics_records()) == 6
        spans = set().union(*(r.get("spans", ()) for r in telemetry.records))
        assert spans and not any("cmd:metric" in path for path in spans)


class TestDeadShard:
    """A shard whose rows all die must neither stall the pool nor skew
    the metrics (they read the driver's columns, whichever shard the
    live rows sit in)."""

    @staticmethod
    def kill_first_shard(sim):
        lo, hi = sim.executor.bounds[0]
        for node_id in range(lo, min(hi, sim.state.size)):
            sim.remove_node(node_id)
        assert len(sim.state.live_ids()[sim.state.live_ids() < hi]) == 0

    def central_metrics(self, sim):
        live = sim.state.live_ids()
        return (
            vmetrics.slice_disorder_arrays(
                sim.state.attribute[live],
                sim.state.value[live],
                live,
                sim.geometry,
            ),
            vmetrics.accuracy_arrays(
                sim.state.attribute[live],
                sim.state.value[live],
                live,
                sim.geometry,
            ),
            vmetrics.global_disorder_arrays(
                sim.state.attribute[live], sim.state.value[live], live
            ),
        )

    def test_metrics_survive_a_fully_dead_shard(self):
        with make_sim(workers=3, size=240) as sim:
            sim.run(2)
            self.kill_first_shard(sim)
            sim.run(2)  # the pool keeps cycling
            assert sim.state.live_count > 0
            sdm, accuracy, gdm = self.central_metrics(sim)
            assert sim.slice_disorder() == pytest.approx(sdm, abs=1e-9)
            assert sim.accuracy() == pytest.approx(accuracy, abs=1e-12)
            assert sim.global_disorder() == pytest.approx(gdm, rel=1e-12)
            assert sum(sim.slice_sizes()) == sim.live_count
            assert 0.0 <= sim.confident_fraction() <= 1.0
            loads = sim.shard_live_loads()
            assert loads[0] == 0 and sum(loads) == sim.live_count
            assert sim.shard_load_ratio() == float("inf")

    def test_rebalance_refills_a_dead_shard(self):
        with make_sim(workers=3, size=240, rebalance_threshold=1.5) as sim:
            sim.run(2)
            self.kill_first_shard(sim)
            sim.run(2)
            assert sim.rebalance_count > 0
            loads = sim.shard_live_loads()
            assert min(loads) > 0, f"shard still starved: {loads}"
            assert sim.shard_load_ratio() <= 1.5
            sdm, accuracy, _gdm = self.central_metrics(sim)
            assert sim.slice_disorder() == pytest.approx(sdm, abs=1e-9)
            assert sim.accuracy() == pytest.approx(accuracy, abs=1e-12)


class TestStartMethods:
    """The worker protocol — including the rebalance pack/unpack/commit
    messages — must work under every multiprocessing start method the
    platform offers, not just fork (spawn re-imports the worker module
    and re-attaches every shared segment from its pickled init)."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_bitwise_parity_under_start_method(self, method, monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unsupported on this platform")
        monkeypatch.setenv("REPRO_SHARDED_START_METHOD", method)
        kwargs = dict(
            size=120,
            partition=SlicePartition.equal(8),
            protocol="ranking",
            view_size=8,
            seed=9,
            churn=RegularChurn(rate=0.05, period=1),
            rebalance_every=2,
        )
        vectorized = VectorSimulation(**kwargs)
        vectorized.run(4)
        with ShardedSimulation(workers=2, **kwargs) as sharded:
            sharded.run(4)
            assert sharded.executor._processes  # a real pool ran it
            # The new protocol messages actually ran.
            assert sharded.rebalance_count == vectorized.rebalance_count > 0
            n = vectorized.state.size
            assert sharded.state.size == n
            for column in ("attribute", "value", "alive", "obs_le", "obs_total"):
                assert np.array_equal(
                    getattr(vectorized.state, column)[:n],
                    getattr(sharded.state, column)[:n],
                ), f"{column} diverged under {method}"
            assert np.array_equal(
                vectorized.state.view_ids[:n], sharded.state.view_ids[:n]
            )


class TestLifecycle:
    def test_closed_pool_simulation_raises_instead_of_crashing(self):
        # close() unmaps the shared blocks the state's arrays sat on;
        # reading them used to take the interpreter down with SIGSEGV.
        # Run in a subprocess so a crash fails this test, not pytest.
        script = textwrap.dedent(
            """
            from repro.core.slices import SlicePartition
            from repro.sharded import ShardedSimulation

            sim = ShardedSimulation(
                size=500, partition=SlicePartition.equal(8), workers=2, seed=1
            )
            sim.run(3)
            sim.close()
            reads = (sim.slice_disorder, lambda: sim.state.value, lambda: sim.run(1))
            for read in reads:
                try:
                    read()
                except RuntimeError as error:
                    assert "closed" in str(error), error
                else:
                    raise SystemExit("read of a closed simulation returned")
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_garbage_collection_releases_pool(self):
        # The finalizer must not be kept alive through its own
        # arguments: dropping the last user reference has to stop the
        # workers and release the shared memory.
        import gc
        import time
        import weakref

        sim = make_sim(workers=2, size=120)
        sim.run(1)
        processes = list(sim.executor._processes)
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None, "simulation kept alive by its own finalizer"
        deadline = time.time() + 5
        while time.time() < deadline and any(p.is_alive() for p in processes):
            time.sleep(0.05)
        assert all(not p.is_alive() for p in processes)

    def test_close_is_idempotent(self):
        sim = make_sim(workers=2)
        sim.run(2)
        sim.close()
        sim.close()

    def test_context_manager(self):
        with make_sim(workers=2) as sim:
            sim.run(2)
            assert sim.live_count == 240

    def test_spare_capacity_exhaustion_raises(self):
        churn = RegularChurn(rate=0.2, period=1)
        with make_sim(workers=2, size=100, churn=churn, spare_capacity=10) as sim:
            with pytest.raises(RuntimeError, match="spare_capacity"):
                sim.run(50)
        # Only shared-memory blocks pin the capacity; workers=1 owns
        # none, so the knob is refused and the state simply grows.
        with pytest.raises(ValueError, match="spare_capacity"):
            make_sim(workers=1, size=100, churn=churn, spare_capacity=10)
        sim = make_sim(workers=1, size=100, churn=churn)
        sim.run(50)
        assert sim.state.size > 110

    def test_default_spare_outlasts_the_first_compaction(self):
        """The skew trigger (threshold 1.2: ~15.6% dead rows) must fire
        before the *default* spare runs out — an eighth (2000 rows
        here, above the 1024 floor) was gone at cycle 13."""
        churn = RegularChurn(rate=0.01, period=1)
        with make_sim(
            workers=2, size=16000, churn=churn, rebalance_threshold=1.2
        ) as sim:
            sim.run(20)
            assert sim.rebalance_count >= 1
            assert sim.live_count == 16000

    def test_worker_validation(self):
        with pytest.raises(ValueError, match="workers"):
            make_sim(workers=0)

    def test_scratch_regrows(self):
        scratch = SharedScratch()
        first = scratch.ensure("x", np.int64, 8)
        first[:8] = np.arange(8)
        second = scratch.ensure("x", np.int64, 5000)
        assert len(second) >= 5000
        assert len(scratch.take_remaps()) == 2  # initial map + regrow
        scratch.close()


class TestServiceSeam:
    def test_service_runs_and_queries(self):
        with SlicingService(
            size=200,
            slices=4,
            algorithm="ranking",
            backend="sharded",
            workers=2,
            seed=7,
        ) as service:
            service.run(4)
            assert sum(service.slice_sizes()) == 200
            assert 0.0 <= service.accuracy() <= 1.0
            assert service.disorder() >= 0.0
            member = service.members(0)[0]
            assert service.slice_of(member) == 0

    def test_service_join_leave(self):
        with SlicingService(
            size=60, slices=3, backend="sharded", workers=1, seed=2
        ) as service:
            newcomer = service.join(attribute=0.99)
            service.leave(0)
            service.run(2)
            assert service.size == 60
            assert service.slice_of(newcomer) in (0, 1, 2)

    def test_service_rebalancing_knobs(self):
        churn = RegularChurn(rate=0.05, period=1)
        with SlicingService(
            size=150,
            slices=5,
            backend="sharded",
            workers=2,
            seed=4,
            churn=churn,
            rebalance_every=2,
            rebalance_threshold=1.5,
        ) as service:
            service.run(8)
            assert service.simulation.rebalance_count > 0
            assert service.size == 150
            assert sum(service.slice_sizes()) == 150

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(backend="vectorized", concurrency="sometimes"), "unknown concurrency"),
            (dict(backend="reference", workers=4), "single-process"),
            (dict(backend="vectorized", workers=2), "single-process"),
            (dict(backend="sharded", workers=-1), "positive integer"),
            (dict(backend="bogus"), "unknown backend"),
            (dict(backend="reference", rebalance_every=5), "rebalanc"),
            (dict(backend="reference", rebalance_threshold=2.0), "rebalanc"),
            (dict(backend="sharded", rebalance_every=0), "rebalance_every"),
            (dict(backend="sharded", rebalance_threshold=0.9), "rebalance_threshold"),
        ],
    )
    def test_combination_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SlicingService(size=50, **kwargs)

    def test_validation_names_supported_combinations(self):
        with pytest.raises(ValueError) as excinfo:
            SlicingService(size=50, backend="vectorized", workers=8)
        message = str(excinfo.value)
        assert "backend='reference'" in message
        assert "backend='sharded'" in message

    @pytest.mark.parametrize("concurrency", ["half", "full"])
    def test_concurrency_now_legal_on_bulk_backends(self, concurrency):
        with SlicingService(
            size=80,
            slices=4,
            algorithm="ordering",
            backend="sharded",
            workers=2,
            concurrency=concurrency,
            seed=11,
        ) as service:
            service.run(3)
            assert service.cycle == 3
            assert service.simulation.bus_stats.overlapping > 0
