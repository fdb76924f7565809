"""Unit tests for the statistics helpers."""

import pytest

from repro.metrics.statistics import (
    mean_confidence_interval,
    summarize,
    wald_interval,
    z_value,
)


class TestSummarize:
    def test_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)

    def test_odd_median(self):
        assert summarize([3.0, 1.0, 2.0]).median == 2.0

    def test_std(self):
        stats = summarize([2.0, 4.0])
        assert stats.std == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestZValue:
    def test_95(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_99(self):
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-5)

    @pytest.mark.parametrize(
        "confidence",
        [1e-9, 0.001, 0.1, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-12],
    )
    def test_is_the_scipy_stats_normal_quantile(self, confidence):
        # ``src/`` may not import scipy.stats at import time (78 MB in
        # every worker process); the test may, to pin bit-equality.
        from scipy.stats import norm

        assert z_value(confidence) == float(norm.ppf(1 - (1 - confidence) / 2))

    def test_bounds(self):
        with pytest.raises(ValueError):
            z_value(0.0)
        with pytest.raises(ValueError):
            z_value(1.0)


class TestWaldInterval:
    def test_symmetric_at_half(self):
        low, high = wald_interval(0.5, 100)
        assert low == pytest.approx(0.5 - 1.959964 * 0.05, abs=1e-5)
        assert high == pytest.approx(0.5 + 1.959964 * 0.05, abs=1e-5)

    def test_clamped_to_unit_interval(self):
        low, high = wald_interval(0.01, 10)
        assert low == 0.0
        low, high = wald_interval(0.99, 10)
        assert high == 1.0

    def test_narrows_with_samples(self):
        narrow = wald_interval(0.5, 10_000)
        wide = wald_interval(0.5, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_degenerate_estimate(self):
        assert wald_interval(0.0, 100) == (0.0, 0.0)
        assert wald_interval(1.0, 100) == (1.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wald_interval(0.5, 0)
        with pytest.raises(ValueError):
            wald_interval(1.5, 10)


class TestMeanConfidenceInterval:
    def test_contains_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = mean_confidence_interval(values)
        assert low < 3.0 < high

    def test_single_value(self):
        assert mean_confidence_interval([2.0]) == (2.0, 2.0)
