"""Statistical equivalence: vectorized vs reference engine at n=1k.

The two backends draw from different random streams, so trajectories
cannot match bitwise; instead these tests assert that the per-cycle
slice-disorder curves agree *statistically* on identical specs:

* **ranking** — the SDM decay curve is the same shape and scale: the
  vectorized curve stays within a constant band of the reference curve
  throughout the run and both keep improving (the paper's key claim).
* **ordering** — each run's SDM plateau is its own realized
  random-value floor (Section 4.4), which depends on the initial draw,
  so the comparison is floor-relative: both backends must *reach*
  their floor, at comparable speed.

Multiple seeds are averaged to keep the comparison statistical rather
than draw-specific while staying affordable in the tier-1 suite.
"""

import numpy as np
import pytest

from repro.analysis.binomial import sdm_floor_of_values
from repro.experiments.config import RunSpec, build_simulation
from repro.metrics.collectors import SliceDisorderCollector

SEEDS = (0, 1)
CHECKPOINTS = (5, 10, 20, 40)


def sdm_curve(spec):
    sim = build_simulation(spec)
    initial_values = [node.value for node in sim.live_nodes()]
    collector = SliceDisorderCollector()
    sim.run(spec.cycles, collectors=[collector])
    return np.array(collector.series.values), initial_values


def mean_curves(spec):
    ref, vec = [], []
    for seed in SEEDS:
        ref_curve, _ = sdm_curve(spec.with_overrides(seed=seed))
        vec_curve, _ = sdm_curve(
            spec.with_overrides(seed=seed, backend="vectorized")
        )
        ref.append(ref_curve)
        vec.append(vec_curve)
    return np.mean(ref, axis=0), np.mean(vec, axis=0)


class TestRankingEquivalence:
    def test_sdm_trajectories_match(self):
        spec = RunSpec(
            n=1000, cycles=40, slice_count=10, view_size=10, protocol="ranking"
        )
        ref, vec = mean_curves(spec)
        # Same starting point (initial estimates are uniform either way).
        assert vec[0] == pytest.approx(ref[0], rel=0.15)
        # The curves stay within a constant band of each other.
        for t in CHECKPOINTS:
            assert vec[t] <= 1.5 * ref[t], f"cycle {t}: {vec[t]} vs {ref[t]}"
            assert vec[t] >= 0.5 * ref[t], f"cycle {t}: {vec[t]} vs {ref[t]}"
        # Both keep improving (no ordering-style floor).
        assert vec[-1] < 0.5 * vec[5]
        assert ref[-1] < 0.5 * ref[5]

    def test_log_curve_shapes_correlate(self):
        spec = RunSpec(
            n=1000, cycles=40, slice_count=10, view_size=10, protocol="ranking"
        )
        ref, vec = mean_curves(spec)
        corr = np.corrcoef(np.log(ref + 1.0), np.log(vec + 1.0))[0, 1]
        assert corr > 0.98


class TestConcurrencyEquivalence:
    """The bulk backends' batched overlap model reproduces the
    reference engine's Section-4.5.2 behaviour statistically at n=1k.

    The anchors are the paper's Figure 4(c)/(d) claims: unsuccessful
    swaps grow with the overlap probability (and mod-JK wastes more
    than JK), while convergence survives full concurrency with only a
    modest slowdown.
    """

    @staticmethod
    def unsuccessful_pct(spec):
        values = []
        for seed in SEEDS:
            sim = build_simulation(spec.with_overrides(seed=seed))
            sim.run(spec.cycles)
            stats = sim.bus_stats
            values.append(
                100.0 * stats.unsuccessful_swaps / max(stats.intended_swaps, 1)
            )
        return float(np.mean(values))

    @pytest.mark.parametrize("protocol", ["mod-jk", "jk"])
    def test_unsuccessful_swaps_match_reference(self, protocol):
        base = RunSpec(
            n=1000, cycles=30, slice_count=10, view_size=10, protocol=protocol
        )
        pct = {
            (backend, concurrency): self.unsuccessful_pct(
                base.with_overrides(backend=backend, concurrency=concurrency)
            )
            for backend in ("reference", "vectorized")
            for concurrency in ("none", "half", "full")
        }
        for backend in ("reference", "vectorized"):
            # Atomic exchanges never fail; more overlap wastes more.
            assert pct[(backend, "none")] == 0.0
            assert pct[(backend, "full")] > pct[(backend, "half")] > 0.0
        for concurrency in ("half", "full"):
            ref, vec = pct[("reference", concurrency)], pct[("vectorized", concurrency)]
            assert 0.5 * ref <= vec <= 2.0 * ref, (concurrency, ref, vec)

    def test_modjk_wastes_more_than_jk_under_full(self):
        base = RunSpec(
            n=1000,
            cycles=30,
            slice_count=10,
            view_size=10,
            backend="vectorized",
            concurrency="full",
        )
        modjk = self.unsuccessful_pct(base.with_overrides(protocol="mod-jk"))
        jk = self.unsuccessful_pct(base.with_overrides(protocol="jk"))
        assert modjk > jk

    def test_full_concurrency_sdm_band_vs_reference(self):
        # Figure 4(d) under the bulk model: the SDM trajectory under
        # full concurrency stays within a constant band of the
        # reference engine's.
        spec = RunSpec(
            n=1000,
            cycles=30,
            slice_count=10,
            view_size=10,
            protocol="mod-jk",
            concurrency="full",
        )
        ref, vec = mean_curves(spec)
        assert vec[0] == pytest.approx(ref[0], rel=0.15)
        for t in (5, 10, 20, 30):
            assert 0.5 * ref[t] <= vec[t] <= 1.5 * ref[t], (t, ref[t], vec[t])

    def test_ranking_unaffected_by_overlap(self):
        # One-way UPD messages compare immutable attributes, so overlap
        # reorders the event stream without changing the counters: the
        # plain-ranking trajectory is identical under any regime.
        base = RunSpec(
            n=500,
            cycles=15,
            slice_count=10,
            view_size=10,
            protocol="ranking",
            backend="vectorized",
        )
        none_curve, _ = sdm_curve(base)
        full_curve, _ = sdm_curve(base.with_overrides(concurrency="full"))
        assert np.array_equal(none_curve, full_curve)


class TestOrderingEquivalence:
    def test_both_backends_reach_their_floor(self):
        spec = RunSpec(
            n=1000, cycles=60, slice_count=10, view_size=10, protocol="mod-jk"
        )
        partition = spec.partition()
        for seed in SEEDS:
            for backend in ("reference", "vectorized"):
                curve, initial = sdm_curve(
                    spec.with_overrides(seed=seed, backend=backend)
                )
                floor = sdm_floor_of_values(initial, partition)
                # The plateau equals the realized floor of this run's
                # own initial random values (Section 4.4).
                assert curve[-1] == pytest.approx(floor, abs=max(10, 0.2 * floor)), (
                    f"{backend} seed {seed}: final {curve[-1]} vs floor {floor}"
                )

    def test_convergence_speed_comparable(self):
        spec = RunSpec(
            n=1000, cycles=60, slice_count=10, view_size=10, protocol="mod-jk"
        )
        partition = spec.partition()
        hits = {}
        for backend in ("reference", "vectorized"):
            cycles_to_floor = []
            for seed in SEEDS:
                curve, initial = sdm_curve(
                    spec.with_overrides(seed=seed, backend=backend)
                )
                floor = sdm_floor_of_values(initial, partition)
                threshold = max(2.0 * floor, 1.0)
                below = np.flatnonzero(curve <= threshold)
                assert len(below), f"{backend} seed {seed} never reached 2x floor"
                cycles_to_floor.append(below[0])
            hits[backend] = np.mean(cycles_to_floor)
        # Within ~3x of each other in either direction: the vectorized
        # round initiates one exchange per node per cycle, the reference
        # responder can chain several, so a modest constant gap is
        # expected — an order-of-magnitude gap would mean a bug.
        ratio = hits["vectorized"] / max(hits["reference"], 1e-9)
        assert 1 / 3 <= ratio <= 3, hits
