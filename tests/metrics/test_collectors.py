"""Unit tests for time series and collectors."""

import pytest

from repro.metrics.collectors import (
    DistinctValueCollector,
    FunctionCollector,
    GlobalDisorderCollector,
    MessageCountCollector,
    PopulationCollector,
    SliceDisorderCollector,
    TimeSeries,
    UnsuccessfulSwapCollector,
)
from tests.conftest import make_ordering_sim


class TestTimeSeries:
    def test_append_and_iterate(self):
        series = TimeSeries("x")
        series.append(0, 10.0)
        series.append(1, 5.0)
        assert list(series) == [(0, 10.0), (1, 5.0)]
        assert len(series) == 2

    def test_final_min_max(self):
        series = TimeSeries("x")
        for t, v in enumerate([3.0, 1.0, 2.0]):
            series.append(t, v)
        assert series.final == 2.0
        assert series.minimum == 1.0
        assert series.maximum == 3.0

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            TimeSeries("x").final

    def test_at_exact(self):
        series = TimeSeries("x")
        series.append(5, 1.0)
        assert series.at(5) == 1.0
        with pytest.raises(KeyError):
            series.at(6)

    def test_value_at_or_before(self):
        series = TimeSeries("x")
        series.append(0, 1.0)
        series.append(10, 2.0)
        assert series.value_at_or_before(5) == 1.0
        assert series.value_at_or_before(10) == 2.0
        with pytest.raises(KeyError):
            series.value_at_or_before(-1)

    def test_first_time_below(self):
        series = TimeSeries("x")
        for t, v in enumerate([10.0, 6.0, 3.0, 1.0]):
            series.append(t, v)
        assert series.first_time_below(5.0) == 2
        assert series.first_time_below(0.5) is None


class TestCollectors:
    def test_interval_sampling(self):
        sim = make_ordering_sim(n=20)
        collector = PopulationCollector(every=2)
        sim.run(6, collectors=[collector])
        assert collector.series.times == [0, 2, 4, 6]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PopulationCollector(every=0)

    def test_sdm_collector_decreases(self):
        sim = make_ordering_sim(n=60)
        collector = SliceDisorderCollector()
        sim.run(20, collectors=[collector])
        assert collector.series.final < collector.series.values[0]

    def test_gdm_collector(self):
        sim = make_ordering_sim(n=60)
        collector = GlobalDisorderCollector()
        sim.run(20, collectors=[collector])
        assert collector.series.final < collector.series.values[0]

    def test_message_count_monotone(self):
        sim = make_ordering_sim(n=30)
        collector = MessageCountCollector()
        sim.run(5, collectors=[collector])
        values = collector.series.values
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_distinct_values_constant_without_concurrency(self):
        sim = make_ordering_sim(n=50, concurrency="none")
        collector = DistinctValueCollector()
        sim.run(10, collectors=[collector])
        assert collector.series.final == collector.series.values[0]

    def test_unsuccessful_swap_collector_zero_when_atomic(self):
        sim = make_ordering_sim(n=50, concurrency="none")
        collector = UnsuccessfulSwapCollector()
        sim.run(10, collectors=[collector])
        assert collector.series.maximum == 0.0

    def test_unsuccessful_swap_collector_positive_when_full(self):
        sim = make_ordering_sim(n=50, concurrency="full")
        collector = UnsuccessfulSwapCollector()
        sim.run(10, collectors=[collector])
        assert collector.series.maximum > 0.0

    def test_function_collector(self):
        sim = make_ordering_sim(n=20)
        collector = FunctionCollector("live", lambda s: s.live_count)
        sim.run(2, collectors=[collector])
        assert collector.series.final == 20.0
