"""Sharded-backend scaling: cycles/sec vs worker count, plus the
skewed-churn load-rebalancing ladder.

Measures the multi-threaded executor against the single-threaded
vectorized baseline at bulk scales and archives the numbers as JSON
(``benchmarks/results/sharded-scaling.json``) so CI can upload them as
an artifact — including per-shard live-load stats from the
correlated-churn ladder, which shows the fixed-range baseline's
worker-idle gap diverging while the plan-driven rebalance keeps the
max/min live-load ratio bounded.  The sharded plan is bitwise
identical at every worker count, so these runs measure *only* the
execution cost.

The whole module is ``nightly``-marked: the interesting scales
(n = 10^5 .. 10^7) are too heavy for the tier-1 suite, and speedup
assertions only make sense on multi-core machines.  Run it with::

    python -m pytest benchmarks/test_sharded_scaling.py -m nightly -q

The tier-1 suite covers the sharded backend's correctness instead
(tests/sharded/), which is scale-independent.
"""

import json
import os
import time

import pytest

from phase_profile import phase_breakdown, phase_telemetry
from repro.churn.models import RegularChurn
from repro.experiments.config import RunSpec, build_simulation

pytestmark = pytest.mark.nightly

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "sharded-scaling.json"
)
CORES = os.cpu_count() or 1


def record(entry: dict) -> None:
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    existing = []
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            existing = json.load(handle)
    existing.append(entry)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(existing, handle, indent=2)


def cycles_per_second(spec: RunSpec, cycles: int, telemetry=None) -> float:
    sim = build_simulation(spec, telemetry=telemetry)
    try:
        started = time.perf_counter()
        sim.run(cycles)
        return cycles / (time.perf_counter() - started)
    finally:
        if hasattr(sim, "close"):
            sim.close()
        if telemetry is not None:
            telemetry.close()


def worker_ladder():
    ladder = [1, 2]
    if CORES >= 4:
        ladder.append(4)
    if CORES >= 8:
        ladder.append(8)
    return ladder


class TestScalingLadder:
    def test_100k_scaling(self, capsys):
        """The nightly CI point: n = 10^5, cycles/sec per worker count."""
        spec = RunSpec(
            n=100_000,
            slice_count=10,
            view_size=10,
            protocol="ranking",
            backend="sharded",
        )
        phases = {}
        telemetry = phase_telemetry("vectorized", metrics_every=1)
        baseline = cycles_per_second(
            spec.with_overrides(backend="vectorized"), cycles=5,
            telemetry=telemetry,
        )
        phases["vectorized"] = phase_breakdown(telemetry)
        rates = {}
        for workers in worker_ladder():
            telemetry = phase_telemetry(f"sharded-w{workers}", metrics_every=1)
            rates[workers] = cycles_per_second(
                spec.with_overrides(workers=workers), cycles=5,
                telemetry=telemetry,
            )
            phases[f"sharded_w{workers}"] = phase_breakdown(telemetry)
        record(
            {
                "benchmark": "sharded-scaling",
                "n": 100_000,
                "cores": CORES,
                "vectorized_cps": baseline,
                "sharded_cps": {str(w): r for w, r in rates.items()},
                "phases": phases,
            }
        )
        with capsys.disabled():
            print(f"\nn=1e5 vectorized: {baseline:7.2f} cycles/sec")
            for workers, rate in rates.items():
                print(f"n=1e5 sharded w={workers}: {rate:7.2f} cycles/sec")
        assert all(rate > 0 for rate in rates.values())

    def test_million_node_speedup(self, capsys):
        """The ISSUE acceptance bars at n = 10^6 on a 4+ core machine:
        w=4 >= 2x the single-process vectorized backend (the pinned
        ``speedup_sharded_w4_vs_vectorized`` metric, floor-gated by
        check_regression.py) and the best worker count >= 3x.  Also
        records the per-cycle ``barriers`` count — the structural
        cost of the dispatch spine — which the gate holds to
        never-increases."""
        from repro.obs.telemetry import Telemetry

        spec = RunSpec(
            n=1_000_000,
            slice_count=10,
            view_size=10,
            protocol="ranking",
            backend="sharded",
        )
        cycles = 3
        baseline = cycles_per_second(
            spec.with_overrides(backend="vectorized"), cycles
        )
        rates = {}
        for workers in worker_ladder():
            rates[workers] = cycles_per_second(
                spec.with_overrides(workers=workers), cycles
            )
        best = max(rates.values())
        # Barriers per cycle are structural (command layout, not load):
        # one short telemetry-enabled run suffices, and mixing the
        # counter run with the timed runs would skew the rates.
        telemetry = Telemetry(engine="sharded")
        sim = build_simulation(
            spec.with_overrides(workers=max(rates)), telemetry=telemetry
        )
        try:
            sim.run(2)
        finally:
            sim.close()
        counters = [r["counters"] for r in telemetry.cycle_records()]
        barriers_per_cycle = sum(c["barriers"] for c in counters) / len(counters)
        entry = {
            "benchmark": "sharded-scaling",
            "n": 1_000_000,
            "cores": CORES,
            "vectorized_cps": baseline,
            "sharded_cps": {str(w): r for w, r in rates.items()},
            "speedup_best": best / baseline,
            "barriers_per_cycle": barriers_per_cycle,
        }
        if 4 in rates:
            entry["speedup_sharded_w4_vs_vectorized"] = rates[4] / baseline
        record(entry)
        with capsys.disabled():
            print(f"\nn=1e6 vectorized: {baseline:6.3f} cycles/sec")
            for workers, rate in rates.items():
                print(
                    f"n=1e6 sharded w={workers}: {rate:6.3f} cycles/sec "
                    f"({rate / baseline:.2f}x)"
                )
            print(f"n=1e6 barriers/cycle: {barriers_per_cycle:.1f}")
        if CORES >= 4:
            assert rates[4] >= 2.0 * baseline, (
                f"sharded w=4 rate {rates[4]:.3f} cycles/sec is only "
                f"{rates[4] / baseline:.2f}x the vectorized {baseline:.3f} "
                f"— below the 2x acceptance bar"
            )
            assert best >= 3.0 * baseline, (
                f"best sharded rate {best:.3f} cycles/sec is only "
                f"{best / baseline:.2f}x the vectorized {baseline:.3f} "
                f"on {CORES} cores"
            )

    def test_skewed_churn_rebalance_ladder(self, capsys):
        """The ROADMAP's load-rebalancing point: under the paper's
        correlated churn (lowest attributes leave, above-max join) the
        fixed-range baseline concentrates dead rows in the low shards
        and the max/min live-load ratio diverges; the plan-driven
        rebalance keeps it bounded (<= the 1.5 trigger) while staying
        bitwise identical across worker counts.  Per-shard live-load
        stats land in the archived JSON."""
        from repro.core.slices import SlicePartition
        from repro.sharded import ShardedSimulation

        n, cycles, rate, threshold = 100_000, 30, 0.01, 1.2
        # Every-K caps the between-rebalance drift (all joiners land in
        # the top shard, so at w workers the count ratio drifts by
        # ~w * rate * K per window); K = 5 keeps the w = 8 rung under
        # the 1.5x acceptance bound, and the threshold trigger covers
        # any skew the cadence misses.
        rebalance_knobs = {"rebalance_every": 5, "rebalance_threshold": threshold}
        entry = {
            "benchmark": "sharded-skewed-churn",
            "n": n,
            "cores": CORES,
            "cycles": cycles,
            "churn_rate": rate,
            "rebalance_knobs": rebalance_knobs,
            "ladder": [],
        }
        divergences = {}
        for workers in worker_ladder():
            if workers < 2:
                continue
            for knobs in ({}, rebalance_knobs):
                sim = ShardedSimulation(
                    size=n,
                    partition=SlicePartition.equal(10),
                    protocol="ranking",
                    view_size=10,
                    seed=0,
                    workers=workers,
                    churn=RegularChurn(rate=rate, period=1),
                    **knobs,
                )
                try:
                    started = time.perf_counter()
                    sim.run(cycles)
                    elapsed = time.perf_counter() - started
                    loads = sim.shard_live_loads()
                    ratio = sim.shard_load_ratio()
                    rebalances = sim.rebalance_count
                finally:
                    sim.close()
                entry["ladder"].append(
                    {
                        "workers": workers,
                        "rebalancing": bool(knobs),
                        "cycles_per_sec": cycles / elapsed,
                        "rebalances": rebalances,
                        "shard_live_loads": loads,
                        "live_load_ratio": ratio,
                    }
                )
                divergences[(workers, bool(knobs))] = ratio
                with capsys.disabled():
                    mode = "rebalanced" if knobs else "baseline  "
                    print(
                        f"\nn=1e5 skewed-churn w={workers} {mode}: "
                        f"ratio {ratio:5.2f}, {rebalances} rebalances, "
                        f"loads {loads}"
                    )
        record(entry)
        for workers in {w for w, _r in divergences}:
            baseline = divergences[(workers, False)]
            rebalanced = divergences[(workers, True)]
            # The baseline's idle gap diverges with turnover...
            assert baseline > 1.5, (
                f"w={workers}: fixed-range baseline stayed balanced "
                f"(ratio {baseline:.2f}) — scenario not skewed enough"
            )
            # ...while the rebalanced run keeps the worker loads even
            # (the ISSUE's acceptance bound).
            assert rebalanced <= 1.5, (
                f"w={workers}: live-load ratio {rebalanced:.2f} exceeds "
                "the 1.5x acceptance bound"
            )

    def test_ten_million_node_run(self, capsys):
        """A 10^7-node ranking run completes >= 10 cycles — one order
        of magnitude beyond the vectorized backend's design point and
        three beyond the paper.  Needs ~4 GB of RAM."""
        n = 10_000_000
        spec = RunSpec(
            n=n,
            slice_count=10,
            view_size=10,
            protocol="ranking",
            backend="sharded",
            workers=min(CORES, 8),
        )
        sim = build_simulation(spec)
        try:
            started = time.perf_counter()
            sim.run(10)
            elapsed = time.perf_counter() - started
            assert sim.now == 10
            assert sim.live_count == n
            disorder = sim.slice_disorder()
            accuracy = sim.accuracy()
        finally:
            sim.close()
        record(
            {
                "benchmark": "ten-million",
                "n": n,
                "cores": CORES,
                "cycles": 10,
                "cycles_per_sec": 10 / elapsed,
                "sdm_per_node": disorder / n,
                "accuracy": accuracy,
            }
        )
        with capsys.disabled():
            print(
                f"\nn=1e7 ranking: 10 cycles in {elapsed:.1f}s "
                f"({10 / elapsed:.3f} cycles/sec), SDM/n "
                f"{disorder / n:.3f}, accuracy {accuracy:.1%}"
            )
        assert accuracy > 0.1  # ten cycles already beat the 10% prior
