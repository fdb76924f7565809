"""Shape tests for the per-figure experiments at miniature scale.

These run every figure harness end-to-end with a tiny population and
assert the *qualitative* claims each paper figure makes.  The
full-scale numbers live in the benchmarks; these tests guard the
harness logic itself.
"""

import multiprocessing

import pytest

from repro.experiments import figures
from repro.experiments.figures import (
    ALL_FIGURES,
    run_fig4a,
    run_fig4b,
    run_fig4c,
    run_fig4d,
    run_fig6a,
    run_fig6b,
    run_fig6c,
    run_fig6d,
    run_lemma41,
    run_theorem51,
)

SMALL = {"n": 300, "seed": 3}


class TestFig4a:
    def test_gdm_converges_sdm_floors(self):
        result = run_fig4a(cycles=80, **SMALL)
        assert result.scalars["final_gdm"] < result.series["gdm"].values[0] / 100
        assert result.scalars["final_sdm"] > 0
        assert result.scalars["realized_sdm_floor"] > 0


class TestFig4b:
    def test_modjk_at_least_as_fast(self):
        result = run_fig4b(cycles=60, **SMALL)
        jk = result.scalars["jk_cycles_to_threshold"]
        mod = result.scalars["modjk_cycles_to_threshold"]
        assert mod != -1  # mod-JK reached the threshold
        assert jk == -1 or mod <= jk

    def test_same_floor(self):
        result = run_fig4b(cycles=150, **SMALL)
        floor = result.scalars["realized_sdm_floor"]
        assert result.scalars["modjk_final_sdm"] == pytest.approx(floor, rel=0.35)


class TestFig4c:
    def test_full_worse_than_half(self):
        result = run_fig4c(cycles=30, **SMALL)
        # Compare cumulative-ish: at the first checkpoint (cycle 10).
        assert result.scalars["jk-full@c10"] >= result.scalars["jk-half@c10"]
        assert (
            result.scalars["mod-jk-full@c10"] >= result.scalars["mod-jk-half@c10"]
        )

    def test_four_series_present(self):
        result = run_fig4c(cycles=15, **SMALL)
        assert set(result.series) == {
            "jk-half",
            "jk-full",
            "mod-jk-half",
            "mod-jk-full",
        }

    def test_runs_on_vectorized_backend(self):
        # The batched overlap model makes this study legal at scale.
        result = run_fig4c(cycles=30, backend="vectorized", **SMALL)
        assert result.scalars["mod-jk-full@c10"] > 0
        assert (
            result.scalars["mod-jk-full@c10"] >= result.scalars["mod-jk-half@c10"]
        )


class TestFig4d:
    def test_concurrency_impact_slight(self):
        result = run_fig4d(cycles=120, **SMALL)
        # Both curves must have converged far below the start, and full
        # concurrency must end within a small factor of no concurrency.
        none_series = result.series["no-concurrency"]
        full_series = result.series["full-concurrency"]
        assert none_series.final < none_series.values[0] / 5
        assert full_series.final < full_series.values[0] / 5
        assert result.scalars["full_over_none_final_ratio"] < 3.0

    def test_runs_on_vectorized_backend(self):
        result = run_fig4d(cycles=120, backend="vectorized", **SMALL)
        none_series = result.series["no-concurrency"]
        full_series = result.series["full-concurrency"]
        assert none_series.final < none_series.values[0] / 5
        assert full_series.final < full_series.values[0] / 5


class TestFig6a:
    def test_ranking_beats_ordering_floor(self):
        result = run_fig6a(cycles=250, slice_count=20, **SMALL)
        assert (
            result.scalars["ranking_final_sdm"] < result.scalars["ordering_final_sdm"]
        )

    def test_ranking_keeps_decreasing(self):
        result = run_fig6a(cycles=250, slice_count=20, **SMALL)
        ranking = result.series["ranking"]
        mid = ranking.value_at_or_before(100)
        assert ranking.final < mid


class TestFig6b:
    def test_samplers_agree(self):
        result = run_fig6b(cycles=200, slice_count=20, **SMALL)
        # Reduced scale is noisier than the paper's +-7%; the claim is
        # "similar results", so assert a generous but meaningful band.
        assert result.scalars["max_abs_deviation_pct_after_warmup"] < 60.0

    def test_both_converge(self):
        result = run_fig6b(cycles=200, slice_count=20, **SMALL)
        for name in ("sdm-uniform", "sdm-views"):
            series = result.series[name]
            assert series.final < series.values[0] / 3


class TestFig6c:
    def test_ranking_recovers_jk_stuck(self):
        # A strong burst (1% per cycle for 80 cycles replaces ~55% of
        # the population) makes the stuck-ness visible at small scale.
        result = run_fig6c(
            cycles=260, churn_burst_end=80, slice_count=20, churn_rate=0.01, **SMALL
        )
        assert result.scalars["ranking_recovery_ratio"] < 0.9
        # Ranking recovers strictly more than JK does.
        assert (
            result.scalars["ranking_recovery_ratio"]
            < result.scalars["jk_recovery_ratio"]
        )
        assert result.scalars["ranking_final_sdm"] < result.scalars["jk_final_sdm"]


class TestFig6d:
    def test_sliding_window_most_stable(self):
        # Amplified regular churn (1% every 10 cycles) so the drift is
        # visible within 260 cycles at n=300.
        result = run_fig6d(
            cycles=260, slice_count=20, window=800, churn_rate=0.01, **SMALL
        )
        assert (
            result.scalars["sliding_window_final_sdm"]
            <= result.scalars["ranking_final_sdm"] * 1.25
        )
        assert (
            result.scalars["sliding_window_final_sdm"]
            < result.scalars["ordering_final_sdm"]
        )


class TestOneRunner:
    def test_explicit_scale_survives_full_scale(self):
        # paper defaults < full-scale row < explicit overrides
        params = run_fig4b(full_scale=True, n=120, cycles=5).params
        assert (params["n"], params["cycles"]) == (120, 5)

    @pytest.mark.parametrize("run", [run_fig6d, run_fig4c, run_fig6a])
    def test_each_run_is_closed_before_the_next_is_built(self, run, monkeypatch):
        resident = []  # worker processes alive on entry to each build

        def probe(spec, telemetry=None):
            resident.append(len(multiprocessing.active_children()))
            return build_simulation(spec, telemetry)

        build_simulation = figures.build_simulation
        monkeypatch.setattr(figures, "build_simulation", probe)
        run(n=300, cycles=3, backend="sharded", workers=2)
        assert len(resident) >= 2 and not any(resident), resident


class TestTheoryHarnesses:
    def test_lemma41_violation_rates_bounded(self):
        result = run_lemma41(n=2000, eps=0.05, trials=60, seed=1)
        for name, value in result.scalars.items():
            assert value <= 0.05, name

    def test_theorem51_success_rates(self):
        result = run_theorem51(trials=120, seed=1)
        for name, value in result.scalars.items():
            if name.startswith("success@"):
                assert value >= 0.9

    def test_registry_complete(self):
        assert set(ALL_FIGURES) == {
            "fig4a",
            "fig4b",
            "fig4c",
            "fig4d",
            "fig6a",
            "fig6b",
            "fig6c",
            "fig6d",
            "lemma41",
            "theorem51",
        }
