"""Unit tests for the binomial slice statistics (Section 4.4)."""

import math
import random

import numpy as np
import pytest

from repro.analysis.binomial import (
    expected_sdm_floor,
    perfect_split_probability,
    perfect_split_upper_bound,
    relative_deviation,
    sdm_floor_of_values,
    slice_population_distribution,
    slice_population_interval,
)
from repro.core.slices import SlicePartition


class TestSlicePopulation:
    def test_distribution_mean(self):
        dist = slice_population_distribution(1000, 0.2)
        assert dist.mean() == pytest.approx(200)

    def test_interval_coverage(self):
        low, high = slice_population_interval(1000, 0.2, coverage=0.95)
        assert low < 200 < high
        dist = slice_population_distribution(1000, 0.2)
        coverage = dist.cdf(high) - dist.cdf(low - 1)
        assert coverage >= 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            slice_population_distribution(0, 0.1)
        with pytest.raises(ValueError):
            slice_population_distribution(10, 0.0)


class TestPerfectSplit:
    def test_exact_vs_bound(self):
        # The paper: probability of a perfect two-way split is less
        # than sqrt(2/(n pi)).
        for n in (10, 100, 1000):
            assert perfect_split_probability(n) <= perfect_split_upper_bound(n)

    def test_odd_n_is_zero(self):
        assert perfect_split_probability(11) == 0.0

    def test_small_case_by_hand(self):
        # n=2: P(exactly 1 in each half) = C(2,1)/4 = 0.5.
        assert perfect_split_probability(2) == pytest.approx(0.5)

    def test_bound_shrinks(self):
        assert perfect_split_upper_bound(10_000) < perfect_split_upper_bound(100)

    def test_bound_value(self):
        assert perfect_split_upper_bound(200) == pytest.approx(
            math.sqrt(2 / (200 * math.pi))
        )


class TestRelativeDeviation:
    def test_formula(self):
        assert relative_deviation(1000, 0.1) == pytest.approx(
            math.sqrt(0.9 / 100)
        )

    def test_explodes_for_small_p(self):
        assert relative_deviation(1000, 0.001) > relative_deviation(1000, 0.5)


class TestSdmFloor:
    def test_zero_for_perfectly_spread_values(self):
        partition = SlicePartition.equal(4)
        # Values exactly at slice midpoints in rank order: no error.
        n = 8
        values = [(k - 0.5) / n for k in range(1, n + 1)]
        assert sdm_floor_of_values(values, partition) == 0.0

    def test_paper_two_node_example(self):
        # Section 4.4: r = (0.1, 0.4) with two slices -> both nodes in
        # the first slice, so the top node is one slice off.
        partition = SlicePartition.equal(2)
        assert sdm_floor_of_values([0.1, 0.4], partition) == pytest.approx(1.0)

    def test_empty(self):
        partition = SlicePartition.equal(2)
        assert sdm_floor_of_values([], partition) == 0.0

    def test_floor_is_order_invariant(self):
        partition = SlicePartition.equal(5)
        rng = random.Random(0)
        values = [rng.random() for _ in range(50)]
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert sdm_floor_of_values(values, partition) == sdm_floor_of_values(
            shuffled, partition
        )

    @pytest.mark.parametrize("slices", [10, 100])
    def test_expected_floor_matches_monte_carlo(self, slices):
        n, trials = 1000, 400
        partition = SlicePartition.equal(slices)
        draws = np.sort(1.0 - np.random.default_rng(7).random((trials, n)), axis=1)
        uppers = [s.upper for s in partition]
        # (l, u] slices: a value's slice is the first upper bound >= it,
        # and on equal slices the distance is the index difference.
        believed = np.searchsorted(uppers, draws)
        true = np.searchsorted(uppers, np.arange(1, n + 1) / n)
        floors = np.abs(believed - true).sum(axis=1)
        assert floors[0] == sdm_floor_of_values(list(draws[0]), partition)
        error = floors.std(ddof=1) / math.sqrt(trials)
        assert abs(expected_sdm_floor(n, partition) - floors.mean()) <= 3 * error

    def test_expected_floor_validation(self):
        with pytest.raises(ValueError):
            expected_sdm_floor(0, SlicePartition.equal(2))
