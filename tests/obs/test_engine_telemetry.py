"""Engine-level telemetry integration: parity pins (instrumentation
changes no simulation output bit), sharded barrier-wait accounting,
distributed wire accounting, the reference engine's trace bridge, and
the overhead guard for the no-op default."""

import time

import numpy as np
import pytest

from repro.core.slices import SlicePartition
from repro.engine.trace import TraceLog
from repro.experiments.config import RunSpec, build_simulation
from repro.obs import CycleReport, Telemetry, Watchdog
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


def assert_tree_well_formed(report):
    """Every nested span path's parent exists as its own span."""
    for path in report.spans:
        while "/" in path:
            path = path.rsplit("/", 1)[0]
            assert path in report.spans, f"orphan span under {path!r}"


class TestParityPins:
    """Profiling must never change simulation output: telemetry only
    times, it never touches an RNG stream."""

    def test_vectorized_bitwise_with_and_without_telemetry(self):
        spec = dict(
            size=400,
            partition=SlicePartition.equal(10),
            protocol="ranking",
            view_size=8,
            seed=13,
        )
        plain = VectorSimulation(**spec)
        plain.run(6)
        profiled = VectorSimulation(telemetry=Telemetry(engine="v"), **spec)
        profiled.run(6)
        assert_states_identical(plain, profiled)
        assert plain.slice_disorder() == profiled.slice_disorder()

    def test_sharded_profiled_matches_vectorized_plain(self):
        spec = RunSpec(n=400, slice_count=10, view_size=8, protocol="ranking", seed=13)
        plain = build_simulation(spec.with_overrides(backend="vectorized"))
        plain.run(6)
        telemetry = Telemetry(engine="sharded")
        profiled = build_simulation(
            spec.with_overrides(backend="sharded", workers=2), telemetry=telemetry
        )
        try:
            profiled.run(6)
            assert_states_identical(plain, profiled)
        finally:
            profiled.close()
        assert len(telemetry.cycle_records()) == 6

    def test_reference_bitwise_with_and_without_telemetry(self):
        base = RunSpec(n=120, slice_count=4, view_size=8, protocol="mod-jk", seed=7)
        plain = build_simulation(base)
        plain.run(5)
        profiled = build_simulation(base, telemetry=Telemetry(engine="r"))
        profiled.run(5)
        plain_state = sorted(
            (node.node_id, node.value, node.attribute)
            for node in plain.live_nodes()
        )
        profiled_state = sorted(
            (node.node_id, node.value, node.attribute)
            for node in profiled.live_nodes()
        )
        assert plain_state == profiled_state


def full_stack_telemetry(engine):
    """The everything-on configuration the parity pins exercise."""
    return Telemetry(
        engine=engine, timeline=True, metrics_every=1, watchdog=Watchdog()
    )


class TestFullStackParityPins:
    """Timeline recording, metrics streaming and the watchdog must be
    as invisible to results as plain profiling: all observability
    layers only read state, they never touch an RNG stream."""

    @pytest.mark.parametrize("backend,overrides", [
        ("vectorized", {}),
        ("sharded", {"workers": 2}),
        ("distributed", {"workers": 2}),
    ])
    def test_bulk_backends_bitwise_with_full_stack(self, backend, overrides):
        spec = RunSpec(n=400, slice_count=10, view_size=8,
                       protocol="ranking", seed=13)
        plain = build_simulation(spec.with_overrides(backend="vectorized"))
        plain.run(6)
        telemetry = full_stack_telemetry(backend)
        observed = build_simulation(
            spec.with_overrides(backend=backend, **overrides),
            telemetry=telemetry,
        )
        try:
            observed.run(6)
            if hasattr(observed, "sync_state"):
                observed.sync_state()
            assert_states_identical(plain, observed)
        finally:
            if hasattr(observed, "close"):
                observed.close()
        assert telemetry.watchdog.cycles_checked == 6
        assert len(telemetry.metrics_records()) == 6
        assert all("events" in r for r in telemetry.cycle_records())

    def test_reference_bitwise_with_full_stack(self):
        base = RunSpec(n=120, slice_count=4, view_size=8,
                       protocol="mod-jk", seed=7)
        plain = build_simulation(base)
        plain.run(5)
        telemetry = full_stack_telemetry("reference")
        observed = build_simulation(base, telemetry=telemetry)
        observed.run(5)
        assert sorted(
            (n.node_id, n.value, n.attribute) for n in plain.live_nodes()
        ) == sorted(
            (n.node_id, n.value, n.attribute) for n in observed.live_nodes()
        )
        assert telemetry.watchdog.cycles_checked == 5
        assert len(telemetry.metrics_records()) == 5


class TestMetricsStream:
    def test_emitted_every_k_cycles(self):
        telemetry = Telemetry(engine="vectorized", metrics_every=3)
        spec = RunSpec(n=500, slice_count=5, protocol="ranking",
                       backend="vectorized", seed=2)
        sim = build_simulation(spec, telemetry=telemetry)
        sim.run(8)
        assert [r["cycle"] for r in telemetry.metrics_records()] == [0, 3, 6]

    def test_final_record_matches_direct_metric_calls(self):
        telemetry = Telemetry(engine="vectorized", metrics_every=1)
        spec = RunSpec(n=500, slice_count=5, protocol="ranking",
                       backend="vectorized", seed=2)
        sim = build_simulation(spec, telemetry=telemetry)
        sim.run(5)
        last = telemetry.metrics_records()[-1]
        assert last["cycle"] == 4
        assert last["sdm"] == sim.slice_disorder()
        assert last["gdm"] == sim.global_disorder()
        assert last["accuracy"] == sim.accuracy()
        assert last["live"] == sim.live_count

    def test_sharded_stream_matches_vectorized_stream(self):
        """The metric reductions are bitwise worker-count independent,
        so the streams must be identical record for record."""
        spec = RunSpec(n=400, slice_count=5, protocol="ranking", seed=9)
        streams = {}
        for backend, overrides in (
            ("vectorized", {}), ("sharded", {"workers": 2}),
        ):
            telemetry = Telemetry(engine=backend, metrics_every=2)
            sim = build_simulation(
                spec.with_overrides(backend=backend, **overrides),
                telemetry=telemetry,
            )
            try:
                sim.run(6)
            finally:
                sim.close()
            streams[backend] = [
                {k: v for k, v in record.items() if k != "engine"}
                for record in telemetry.metrics_records()
            ]
        assert streams["vectorized"] == streams["sharded"]


class TestWorkerSubSpans:
    def _run(self, backend, workers):
        telemetry = Telemetry(engine=backend)
        spec = RunSpec(n=600, slice_count=5, protocol="ranking",
                       backend=backend, workers=workers, seed=4)
        sim = build_simulation(spec, telemetry=telemetry)
        try:
            sim.run(4)
        finally:
            sim.close()
        return telemetry

    def test_sharded_worker_sums_reproduce_the_identity_per_record(self):
        """Per cycle and per worker, busy + wait == the worker's share
        of every dispatch span — so the straggler table's totals equal
        the counters *exactly*, not approximately."""
        telemetry = self._run("sharded", workers=2)
        for record in telemetry.cycle_records():
            workers = record["workers"]
            assert set(workers) == {"0", "1"}
            busy = wait = 0
            for spans in workers.values():
                for path, (elapsed, _count) in spans.items():
                    if path.rsplit("/", 1)[-1] == "wait":
                        wait += elapsed
                    else:
                        busy += elapsed
            assert busy == record["counters"]["worker_kernel_ns"]
            assert wait == record["counters"]["barrier_wait_ns"]

    def test_sharded_sub_phases_present(self):
        telemetry = self._run("sharded", workers=2)
        subs = {
            path.rsplit("/", 1)[-1]
            for record in telemetry.cycle_records()
            for spans in record["workers"].values()
            for path in spans
        }
        # One process: a thread's command is its kernel call and the
        # wait for the slowest shard — nothing to attach or to reply.
        assert subs == {"kernel", "wait"}

    def test_distributed_sub_phases_present(self):
        telemetry = self._run("distributed", workers=2)
        subs = {
            path.rsplit("/", 1)[-1]
            for record in telemetry.cycle_records()
            for spans in record["workers"].values()
            for path in spans
        }
        assert {"deserialize", "compute", "serialize", "wait"} <= subs

    def test_inline_executor_reports_worker_zero(self):
        """workers=1 (the inline executor) still grows the straggler
        table: one worker, all busy, zero wait."""
        telemetry = self._run("sharded", workers=1)
        report = CycleReport(telemetry.records)
        (row,) = report.worker_table()
        assert row["worker"] == "0"
        assert row["wait_ns"] == 0
        assert row["busy_ns"] == report.counters["worker_kernel_ns"]

    def test_report_tree_stays_parent_closed_with_worker_paths(self):
        telemetry = self._run("sharded", workers=2)
        report = CycleReport(telemetry.records)
        assert_tree_well_formed(report)
        worker_paths = [p for p in report.spans if report.spans[p].is_worker]
        assert worker_paths, "worker sub-spans missing from the tree"
        # Parallel worker time must not eat the dispatch span's serial
        # self time or become the spine.
        assert not report.spans[report.serial_spine()].is_worker


class TestVectorizedSpans:
    """One span tree for every executor: the phase functions open the
    sub-phase spans, the executor's dispatch spans nest one level
    below — in-process and pooled alike."""

    REFRESH = {
        "refresh/age_purge": "refresh_age",
        "refresh/partner_select": "refresh_fill_partners",
        "refresh/waves": "refresh_swap",
    }
    SUB_PHASES = {
        "ranking": {
            "ranking/fold": "rank_fold",
            "ranking/targets": "rank_targets",
            "ranking/upd_deliver": "rank_apply",
        },
        "ordering": {
            "ordering/select": "ord_select",
            "ordering/exchange": "conc_wave",
        },
    }

    def check_tree(self, protocol="ranking", **overrides):
        phase = "ranking" if protocol == "ranking" else "ordering"
        telemetry = Telemetry(engine="bulk", watchdog=Watchdog())
        spec = RunSpec(n=2000, slice_count=10, protocol=protocol, **overrides)
        with build_simulation(spec, telemetry=telemetry) as sim:
            sim.run(8)
        report = CycleReport(telemetry.records)
        assert report.cycles == 8
        assert_tree_well_formed(report)
        top = {s.path for s in report.spans.values() if s.depth == 0}
        assert {"plan", "churn", "refresh", phase} <= top
        driver_spans = {p for p, s in report.spans.items() if not s.is_worker}
        sub_phases = {**self.REFRESH, **self.SUB_PHASES[phase]}
        assert {
            f"{sub_phase}/cmd:{command}" for sub_phase, command in sub_phases.items()
        } == {p for p in driver_spans if "/cmd:" in p}
        # rank_apply delivers and recomputes: no separate estimates span.
        assert "ranking/estimates" not in report.spans
        assert report.counters["sampler.exchanges"] > 0
        if phase == "ranking":
            assert report.counters["ranking.upd_messages"] > 0
        # The in-process executor dispatches, so its runs carry the
        # dispatch accounting too (barrier identity with workers = 1).
        assert report.counters["commands"] == report.counters["barriers"] > 0
        assert telemetry.watchdog.cycles_checked == 8
        return report

    def test_phase_tree_and_coverage(self):
        assert self.check_tree(backend="vectorized").coverage > 0.9

    def test_pool_grows_the_same_tree(self):
        self.check_tree(backend="sharded", workers=2)

    def test_ordering_round_splits_into_select_and_exchange(self):
        report = self.check_tree(protocol="mod-jk", backend="vectorized")
        assert report.coverage > 0.9
        ordering = report.spans["ordering"].total_ns
        children = sum(
            report.spans[path].total_ns
            for path in ("ordering/select", "ordering/exchange")
        )
        assert 0.5 * ordering < children <= ordering


class TestShardedBarrierAccounting:
    def test_kernel_plus_wait_equals_workers_times_span(self):
        """The integer identity the driver's accounting is built on:
        per cycle, ``worker_kernel_ns + barrier_wait_ns`` must equal
        ``workers * sum(cmd:* span ns)`` exactly — wait is defined as
        each worker's idle remainder of the dispatch span."""
        workers = 2
        telemetry = Telemetry(engine="sharded")
        spec = RunSpec(
            n=1000, slice_count=10, protocol="ranking",
            backend="sharded", workers=workers,
        )
        sim = build_simulation(spec, telemetry=telemetry)
        try:
            sim.run(5)
        finally:
            sim.close()
        records = telemetry.cycle_records()
        assert len(records) == 5
        for record in records:
            dispatch_ns = sum(
                value[0]
                for path, value in record["spans"].items()
                if path.rsplit("/", 1)[-1].startswith("cmd:")
            )
            assert dispatch_ns > 0
            counters = record["counters"]
            assert (
                counters["worker_kernel_ns"] + counters["barrier_wait_ns"]
                == workers * dispatch_ns
            )
            assert counters["commands"] > 0

    def test_dispatch_spans_nest_under_phases(self):
        telemetry = Telemetry(engine="sharded")
        spec = RunSpec(
            n=1000, slice_count=10, protocol="ranking",
            backend="sharded", workers=2,
        )
        sim = build_simulation(spec, telemetry=telemetry)
        try:
            sim.run(3)
        finally:
            sim.close()
        report = CycleReport(telemetry.records)
        assert_tree_well_formed(report)
        nested = [p for p in report.spans if "/cmd:" in p]
        assert nested, "dispatch spans should nest under phase spans"
        assert all(p.split("/")[0] in {"plan", "churn", "rebalance", "refresh",
                                       "ranking", "ordering"} for p in nested)


class TestDistributedWireAccounting:
    def test_loopback_wire_counters_and_parity(self):
        spec = RunSpec(n=300, slice_count=10, view_size=8, protocol="ranking", seed=13)
        plain = build_simulation(spec.with_overrides(backend="vectorized"))
        plain.run(4)
        telemetry = Telemetry(engine="distributed")
        profiled = build_simulation(
            spec.with_overrides(backend="distributed", workers=2),
            telemetry=telemetry,
        )
        try:
            profiled.run(4)
            profiled.sync_state()  # pull worker-resident columns down
            assert_states_identical(plain, profiled)
        finally:
            profiled.close()
        report = CycleReport(telemetry.records)
        assert report.counters["wire.sent_bytes"] > 0
        assert report.counters["wire.recv_bytes"] > 0
        assert report.counters["wire.frames"] > 0
        per_command = [
            key for key in report.counters
            if key.startswith("wire.") and key.count(".") == 2
        ]
        assert per_command, "per-command wire counters missing"
        # Per-command bytes sum to the run's wire totals.
        assert sum(
            v for k, v in report.counters.items()
            if k.startswith("wire.") and k.endswith(".sent_bytes") and k.count(".") == 2
        ) == report.counters["wire.sent_bytes"]
        # Per exchange, kernel + wait == (workers addressed) * span; a
        # distributed exchange may address a subset of the workers
        # (fetch_rows hits only the partner shards), so per record the
        # sum is bounded by the 1- and all-worker cases.
        for record in telemetry.cycle_records():
            counters = record["counters"]
            accounted = counters["worker_kernel_ns"] + counters["barrier_wait_ns"]
            dispatch_ns = sum(
                value[0]
                for path, value in record["spans"].items()
                if path.rsplit("/", 1)[-1].startswith("cmd:")
            )
            assert dispatch_ns <= accounted <= 2 * dispatch_ns


class TestMemoryLevels:
    """Where the peak was, on the stream: driver RSS and scratch bytes
    per cycle, its peak after each phase that moves whole columns,
    every worker process's own peak — levels (largest value wins),
    never sums — and, as a counter, the driver's page faults."""

    @pytest.mark.parametrize("backend", ["vectorized", "sharded", "distributed"])
    def test_levels_ride_the_records_and_the_report(self, backend):
        telemetry = Telemetry(engine=backend)
        workers = {} if backend == "vectorized" else {"workers": 2}
        spec = RunSpec(
            n=400, slice_count=10, view_size=8, protocol="ranking-window", seed=13,
            backend=backend, churn="regular", churn_rate=0.05, churn_period=1,
            rebalance_every=3, **workers,
        )
        sim = build_simulation(spec, telemetry=telemetry)
        try:
            sim.run(5)
            assert sim.rebalance_count > 0
        finally:
            sim.close()
        telemetry.flush()
        cycles = telemetry.cycle_records()
        assert all(record["counters"]["mem.rss_mb"] > 0 for record in cycles)
        # The driver's page faults per cycle: a counter beside the levels.
        assert all(record["counters"]["faults.minor"] >= 0 for record in cycles)
        report = CycleReport(telemetry.records)
        levels = {name for name in report.counters if name.startswith("mem.")}
        expected = {
            "mem.rss_mb",
            "mem.scratch_mb",
            "mem.hwm_mb:setup/bootstrap",
            "mem.hwm_mb:setup/replicate",
            "mem.hwm_mb:rebalance/migrate",
        }
        if backend == "distributed":  # the one backend with worker processes
            expected |= {"mem.w0.peak_mb", "mem.w1.peak_mb", "mem.hwm_mb:close/sync"}
        assert levels == expected
        # Largest value, within a record and across records.
        assert report.counters["mem.rss_mb"] == max(
            record["counters"]["mem.rss_mb"] for record in cycles
        )
        assert telemetry.counter_totals()["mem.rss_mb"] == report.counters["mem.rss_mb"]
        # Scratch: what the larger phase of the cycle took, in every
        # record, and exactly what the executor's scratch says it holds.
        assert all(record["counters"]["mem.scratch_mb"] > 0 for record in cycles)
        held_mb = sim.executor.scratch.used / 1e6
        assert cycles[-1]["counters"]["mem.scratch_mb"] >= held_mb
        assert "mem.scratch_mb" in report.render().split("counters (total")[0]
        assert (
            report.counters["mem.hwm_mb:setup/bootstrap"]
            <= report.counters["mem.hwm_mb:rebalance/migrate"]
        )
        rendered = report.render()
        assert "memory (largest value, MB):" in rendered
        table = rendered.split("counters (total / per-cycle):")[1]
        assert "mem." not in table
        assert "faults.minor" in table


class TestReferenceTraceBridge:
    def test_trace_counts_bridge_into_cycle_records(self):
        from repro.core.ordering import OrderingProtocol
        from repro.engine.simulator import CycleSimulation

        partition = SlicePartition.equal(4)
        telemetry = Telemetry(engine="reference")
        sim = CycleSimulation(
            size=100,
            partition=partition,
            slicer_factory=lambda: OrderingProtocol(partition),
            view_size=8,
            seed=7,
            trace=TraceLog(),
            telemetry=telemetry,
        )
        sim.run(4)
        report = CycleReport(telemetry.records)
        assert report.cycles == 4
        assert {"churn", "rounds", "flush"} <= set(report.spans)
        trace_counters = {k for k in report.counters if k.startswith("trace.")}
        assert "trace.send" in trace_counters
        # Counter deltas must sum to the trace log's own totals.
        assert report.counters["trace.send"] == sim.trace.counts()["send"]

    def test_without_trace_no_trace_counters(self):
        base = RunSpec(n=100, slice_count=4, view_size=8, protocol="mod-jk", seed=7)
        telemetry = Telemetry(engine="reference")
        sim = build_simulation(base, telemetry=telemetry)
        sim.run(3)
        assert not any(
            k.startswith("trace.")
            for r in telemetry.records
            for k in r["counters"]
        )


class TestOverheadGuard:
    def test_null_telemetry_overhead_under_five_percent(self):
        """The no-op default may cost at most 5% at n = 10^4 on the
        vectorized engine (min-of-repeats to shed scheduler noise).
        NULL_TELEMETRY *is* the production default, so this pins the
        instrumentation's cost on every unprofiled run."""

        def run_once():
            spec = RunSpec(
                n=10_000, slice_count=10, protocol="ranking",
                backend="vectorized", seed=3,
            )
            sim = build_simulation(spec)
            started = time.perf_counter()
            sim.run(5)
            return time.perf_counter() - started

        # The engines were instrumented in-place, so the honest guard
        # compares against the same build: assert the span/counter
        # guards keep a *profiled* run within 5% of the default run.
        def run_profiled():
            spec = RunSpec(
                n=10_000, slice_count=10, protocol="ranking",
                backend="vectorized", seed=3,
            )
            sim = build_simulation(spec, telemetry=Telemetry(engine="v"))
            started = time.perf_counter()
            sim.run(5)
            return time.perf_counter() - started

        plain = min(run_once() for _ in range(3))
        profiled = min(run_profiled() for _ in range(3))
        assert profiled <= plain * 1.05 + 0.010, (
            f"profiled {profiled:.4f}s vs plain {plain:.4f}s "
            f"({profiled / plain:.3f}x) exceeds the 5% overhead budget"
        )
