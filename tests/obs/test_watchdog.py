"""Invariant watchdog tests (`repro.obs.watchdog`): each check's
pass/raise behaviour over synthetic records, and the end-to-end pin
that injected occupancy corruption in a real sharded run raises with
the offending cycle number."""

import pytest

from repro.experiments.config import RunSpec, build_simulation
from repro.obs import Telemetry, Watchdog, WatchdogViolation
from repro.obs.watchdog import WATCHDOG_CHECKS


class FakeSharded:
    """Stand-in for a driver on a pool: the watchdog asks its executor
    for the shard count and whether commands may address subsets."""

    addresses_subsets = False

    def __init__(self, workers=2, loads=None, live=None):
        self.executor = self
        self.bounds = [(0, 0)] * workers
        self._loads = loads
        if live is not None:
            self.state = type("S", (), {"live_count": live})()

    def shard_live_loads(self):
        return self._loads


class FakeDistributed(FakeSharded):
    addresses_subsets = True


def cycle_record(cycle=0, spans=None, counters=None):
    return {
        "kind": "cycle",
        "engine": "t",
        "cycle": cycle,
        "wall_ns": 0,
        "spans": spans or {},
        "counters": counters or {},
    }


class TestConfiguration:
    def test_default_runs_every_check(self):
        assert Watchdog().checks == WATCHDOG_CHECKS

    def test_unknown_check_name_rejected(self):
        with pytest.raises(ValueError, match="unknown watchdog checks"):
            Watchdog(checks=["barrier_identity", "made_up"])

    def test_non_cycle_records_are_ignored(self):
        watchdog = Watchdog()
        watchdog.check(FakeSharded(), {"kind": "metrics", "cycle": 3})
        watchdog.check(FakeSharded(), {"kind": "ambient", "cycle": None})
        assert watchdog.cycles_checked == 0


class TestBarrierIdentity:
    def _record(self, kernel, wait, dispatch=100):
        return cycle_record(
            cycle=7,
            spans={"refresh/cmd:swap": [dispatch, 1]},
            counters={
                "worker_kernel_ns": kernel,
                "barrier_wait_ns": wait,
                "commands": 1,
            },
        )

    def test_exact_identity_passes(self):
        Watchdog().check(FakeSharded(workers=2), self._record(150, 50))

    def test_sharded_off_by_one_raises_with_cycle(self):
        with pytest.raises(WatchdogViolation, match="at cycle 7") as info:
            Watchdog().check(FakeSharded(workers=2), self._record(150, 51))
        assert info.value.check == "barrier_identity"
        assert info.value.cycle == 7
        assert info.value.record["cycle"] == 7

    def test_distributed_subset_addressing_is_bounded_not_exact(self):
        # One-worker exchanges make the sum land anywhere in
        # [dispatch, workers * dispatch]; only leaving the band raises.
        sim = FakeDistributed(workers=2)
        Watchdog().check(sim, self._record(100, 20))  # 120 in [100, 200]
        with pytest.raises(WatchdogViolation, match="barrier_identity"):
            Watchdog().check(sim, self._record(210, 0))
        with pytest.raises(WatchdogViolation, match="barrier_identity"):
            Watchdog().check(sim, self._record(90, 0))

    def test_no_dispatch_cycle_is_skipped(self):
        Watchdog().check(FakeSharded(), cycle_record(counters={"x": 1}))


class TestWireSums:
    def test_matching_sums_pass(self):
        record = cycle_record(
            counters={
                "wire.sent_bytes": 30,
                "wire.recv_bytes": 7,
                "wire.cmd_a.sent_bytes": 10,
                "wire.cmd_b.sent_bytes": 20,
                "wire.cmd_a.recv_bytes": 7,
            }
        )
        Watchdog(checks=["wire_sums"]).check(FakeDistributed(), record)

    def test_mismatched_direction_raises(self):
        record = cycle_record(
            cycle=3,
            counters={
                "wire.sent_bytes": 31,
                "wire.cmd_a.sent_bytes": 10,
                "wire.cmd_b.sent_bytes": 20,
            },
        )
        with pytest.raises(WatchdogViolation, match="at cycle 3") as info:
            Watchdog(checks=["wire_sums"]).check(FakeDistributed(), record)
        assert info.value.check == "wire_sums"


class TestOccupancyPartition:
    def test_partition_passes(self):
        sim = FakeSharded(loads=[60, 40], live=100)
        record = cycle_record(spans={"refresh": [10, 1]})
        Watchdog(checks=["occupancy_partition"]).check(sim, record)

    def test_corrupt_occupancy_raises(self):
        sim = FakeSharded(loads=[60, 41], live=100)
        record = cycle_record(cycle=5, spans={"refresh": [10, 1]})
        with pytest.raises(WatchdogViolation, match="at cycle 5") as info:
            Watchdog(checks=["occupancy_partition"]).check(sim, record)
        assert info.value.check == "occupancy_partition"

    def test_skipped_without_refresh_span_or_loads(self):
        checker = Watchdog(checks=["occupancy_partition"])
        # No refresh this cycle: occupancies may be stale — skip.
        checker.check(FakeSharded(loads=[1], live=100), cycle_record())
        # No shard loads reported yet: skip.
        checker.check(
            FakeSharded(loads=[], live=100), cycle_record(spans={"refresh": [10, 1]})
        )


class TestCounterConsistency:
    def test_command_count_matches_span_counts(self):
        record = cycle_record(
            spans={"a/cmd:x": [10, 3], "b/cmd:y": [10, 2]},
            counters={"commands": 5},
        )
        Watchdog(checks=["counter_consistency"]).check(FakeSharded(), record)

    def test_command_count_drift_raises(self):
        record = cycle_record(
            cycle=9,
            spans={"a/cmd:x": [10, 3]},
            counters={"commands": 4},
        )
        with pytest.raises(WatchdogViolation, match="at cycle 9") as info:
            Watchdog(checks=["counter_consistency"]).check(
                FakeSharded(), record
            )
        assert info.value.check == "counter_consistency"


class TestEndToEnd:
    def test_clean_runs_pass_on_every_backend(self):
        spec = RunSpec(n=300, slice_count=5, view_size=8, protocol="ranking",
                       seed=3)
        for backend, overrides in (
            ("vectorized", {}),
            ("sharded", {"workers": 2}),
            ("distributed", {"workers": 2}),
        ):
            telemetry = Telemetry(engine=backend, watchdog=Watchdog())
            sim = build_simulation(
                spec.with_overrides(backend=backend, **overrides),
                telemetry=telemetry,
            )
            try:
                sim.run(4)
            finally:
                sim.close()
            assert telemetry.watchdog.cycles_checked == 4

    def test_injected_occupancy_corruption_raises_with_cycle(self):
        """The ISSUE acceptance pin: corrupt the occupancy accounting
        of a live sharded run and the watchdog must name the cycle."""
        telemetry = Telemetry(engine="sharded", watchdog=Watchdog())
        spec = RunSpec(n=300, slice_count=5, view_size=8, protocol="ranking",
                       backend="sharded", workers=2, seed=3)
        sim = build_simulation(spec, telemetry=telemetry)
        try:
            sim.run(2)
            honest = sim.shard_live_loads
            sim.shard_live_loads = lambda: [
                count + 1 for count in honest()
            ]
            with pytest.raises(WatchdogViolation, match="at cycle 2") as info:
                sim.run_cycle()
        finally:
            sim.close()
        assert info.value.check == "occupancy_partition"
        assert "live count" in str(info.value)
