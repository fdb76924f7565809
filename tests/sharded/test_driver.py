"""ShardedSimulation driver behaviour: service seam, metrics over
worker threads, dead-shard resilience, thread start and restart, state
growth under the threads, and resource lifecycle."""

import multiprocessing

import numpy as np
import pytest

from repro.churn.models import RegularChurn
from repro.core.service import SlicingService
from repro.core.slices import SlicePartition
from repro.distributed import DistributedSimulation
from repro.experiments.config import RunSpec, build_simulation
from repro.metrics.statistics import z_value
from repro.obs import Telemetry
from repro.sharded import ShardedSimulation
from repro.vectorized import metrics as vmetrics
from repro.vectorized.executor import InlineScratch
from repro.vectorized.simulation import VectorSimulation
from tests.conftest import executor_threads


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


def make_distributed(size=240, **kwargs):
    """The non-growing executor: fixed-capacity state, ``spare_capacity``."""
    return DistributedSimulation(
        size=size,
        partition=SlicePartition.equal(8),
        view_size=8,
        seed=9,
        workers=2,
        transport="loopback",
        **kwargs,
    )


class TestDistributedMetrics:
    """The metrics of a multi-threaded run must equal the central
    computations on the same arrays."""

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
    ``dump_state`` round on a transport, nothing on threads)."""

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
            sim = make_distributed(**kwargs)

        def commands():
            telemetry.flush()
            return telemetry.counter_totals().get("commands", 0)

        with sim:
            # Before the first cycle no worker thread has started, and
            # a metric read must not be what starts one.
            sim.slice_disorder(), sim.global_disorder(), sim.confident_fraction()
            assert not multiprocessing.active_children()
            assert not executor_threads()
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
    """A shard whose rows all die must neither stall the others nor skew
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
            sim.run(2)  # the threads keep cycling
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
    """How the worker threads come to exist must not matter: started by
    the first command (``fork`` — the ids date from the process pool),
    or started again after a ``close()`` in mid-run (``spawn``), the
    run — rebalances included — is the single-threaded run, bitwise."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_bitwise_parity_under_start_method(self, method):
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
        with ShardedSimulation(workers=3, **kwargs) as sharded:
            assert not executor_threads()  # nothing starts at construction
            sharded.run(2)
            assert len(executor_threads()) == 2  # the caller is the third
            if method == "spawn":
                sharded.close()
                assert not executor_threads()
            sharded.run(2)
            assert len(executor_threads()) == 2
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
        assert not executor_threads()


class TestLifecycle:
    def test_closed_pool_simulation_raises_instead_of_crashing(self):
        # The id dates from the process pool, whose close() unmapped the
        # state.  Threads work on the driver's own arrays: close() stops
        # them and nothing else, so every read still answers — and
        # answers what it did before.
        sim = make_sim(workers=2, size=500)
        sim.run(3)
        assert executor_threads()
        before = (sim.slice_disorder(), sim.state.value[: sim.state.size].copy())
        sim.close()
        assert not executor_threads()
        assert sim.slice_disorder() == before[0]
        assert np.array_equal(sim.state.value[: sim.state.size], before[1])
        assert sim.live_count == 500

    def test_garbage_collection_releases_pool(self):
        # The finalizer must not be kept alive through its own
        # arguments: dropping the last user reference has to stop the
        # worker threads.
        import gc
        import weakref

        sim = make_sim(workers=2, size=120)
        sim.run(1)
        threads = executor_threads()
        assert threads
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None, "simulation kept alive by its own finalizer"
        for thread in threads:
            thread.join(timeout=5)
        assert not executor_threads()

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
        # The id dates from the process pool, whose shared memory could
        # not grow.  The threads' state can: a run whose churn outgrows
        # the first allocation several times over reallocates every
        # column under them and stays the single-threaded run, bitwise.
        churn = RegularChurn(rate=0.2, period=1)
        vectorized = make_sim(workers=1, size=100, churn=churn)
        vectorized.run(50)
        assert vectorized.state.size > 1000
        with make_sim(workers=2, size=100, churn=churn) as sim:
            assert sim.state.capacity == 100
            sim.run(50)
            n = sim.state.size
            assert n == vectorized.state.size
            assert sim.state.capacity >= n
            for column in ("attribute", "value", "alive", "obs_le", "view_ids"):
                assert np.array_equal(
                    getattr(vectorized.state, column)[:n],
                    getattr(sim.state, column)[:n],
                ), column
        with pytest.raises(TypeError, match="spare_capacity"):
            make_sim(workers=2, size=100, spare_capacity=10)
        # The transport workers' replicas still cannot grow: there the
        # knob remains and running out of it is an error, not a crash.
        with make_distributed(size=100, churn=churn, spare_capacity=10) as sim:
            assert sim.state.capacity == 110
            with pytest.raises(RuntimeError, match="spare_capacity"):
                sim.run(50)

    def test_default_spare_outlasts_the_first_compaction(self):
        """The skew trigger (threshold 1.2: ~15.6% dead rows) must fire
        before the *default* spare of the non-growing executor runs out
        — an eighth (2000 rows here, above the 1024 floor) was gone at
        cycle 13.  The threads compact on the same trigger."""
        churn = RegularChurn(rate=0.01, period=1)
        kwargs = dict(size=16000, churn=churn, rebalance_threshold=1.2)
        with make_distributed(**kwargs) as sim:
            assert sim.state.capacity == 16000 + 4000
            sim.run(20)
            assert sim.rebalance_count >= 1
            assert sim.live_count == 16000
        with make_sim(workers=2, **kwargs) as sim:
            sim.run(20)
            assert sim.rebalance_count >= 1
            assert sim.live_count == 16000

    def test_worker_validation(self):
        with pytest.raises(ValueError, match="workers"):
            make_sim(workers=0)

    def test_scratch_regrows(self):
        scratch = InlineScratch()
        first = scratch.ensure("x", np.int64, 8)
        assert scratch.ensure("x", np.int64, 8) is first  # no remap
        second = scratch.ensure("x", np.int64, 5000)
        assert len(second) >= 5000 and scratch["x"] is second
        # Kernels look buffers up by name through the one scratch all
        # shard contexts share, so a regrown buffer is what they see.
        with make_sim(workers=2) as sim:
            contexts = sim.executor._contexts
            assert len(contexts) == 2
            assert all(ctx.scratch is sim.executor.scratch for ctx in contexts)


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
            (dict(backend="vectorized", sampler="cyclon"), "sampler='cyclon'; supp"),
            (dict(backend="sharded", sampler="newscast"), "sampler='newscast'; supp"),
        ],
    )
    def test_combination_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            if "sampler" in kwargs:  # a run option the service does not take
                build_simulation(RunSpec(n=50, **kwargs))
            else:
                SlicingService(size=50, **kwargs)

    def test_validation_names_supported_combinations(self):
        with pytest.raises(ValueError) as excinfo:
            SlicingService(size=50, backend="vectorized", workers=8)
        message = str(excinfo.value)
        assert "backend='reference'" in message
        assert "backend='sharded'" in message
        assert "'reference': sampler=cyclon-variant/cyclon/newscast/uniform" in message
        assert "'sharded': sampler=cyclon-variant/uniform" in message

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
