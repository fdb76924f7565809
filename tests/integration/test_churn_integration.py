"""Integration: slicing under churn (the paper's Section 5.3.3 setting)."""

from repro.churn.correlated import DistributionArrivals, UniformDepartures
from repro.churn.models import BurstChurn, RegularChurn
from repro.core.ordering import OrderingProtocol
from repro.core.ranking import RankingProtocol
from repro.core.slices import SlicePartition
from repro.engine.simulator import CycleSimulation
from repro.metrics.collectors import PopulationCollector, SliceDisorderCollector
from repro.workloads.attributes import UniformAttributes


def run_with_churn(protocol_name, churn, n=200, cycles=150, seed=9, slice_count=10):
    partition = SlicePartition.equal(slice_count)
    if protocol_name == "ranking":
        factory = lambda: RankingProtocol(partition)
    elif protocol_name == "window":
        factory = lambda: RankingProtocol(partition, window=600)
    else:
        factory = lambda: OrderingProtocol(partition)
    sim = CycleSimulation(
        size=n,
        partition=partition,
        slicer_factory=factory,
        view_size=10,
        churn=churn,
        seed=seed,
    )
    sdm = SliceDisorderCollector()
    pop = PopulationCollector()
    sim.run(cycles, collectors=[sdm, pop])
    return sim, sdm.series, pop.series


class TestCorrelatedBurst:
    def test_population_stable_through_burst(self):
        _sim, _sdm, pop = run_with_churn(
            "ranking", BurstChurn(rate=0.01, start=0, end=50)
        )
        assert 190 <= pop.final <= 210

    def test_ranking_recovers_after_burst(self):
        _sim, sdm, _pop = run_with_churn(
            "ranking", BurstChurn(rate=0.01, start=0, end=50), cycles=200
        )
        at_burst_end = sdm.value_at_or_before(50)
        assert sdm.final < at_burst_end / 2

    def test_ordering_cannot_recover_fully(self):
        sim, sdm, _pop = run_with_churn(
            "ordering", BurstChurn(rate=0.01, start=0, end=50), cycles=200
        )
        # The random values held by survivors skew low after low-attr
        # nodes left; ordering converges to a floor well above zero.
        ranking_sim, ranking_sdm, _ = run_with_churn(
            "ranking", BurstChurn(rate=0.01, start=0, end=50), cycles=200
        )
        assert ranking_sdm.final < sdm.final


class TestRegularChurn:
    def test_window_tracks_drift_better_than_cumulative(self):
        churn = lambda: RegularChurn(rate=0.01, period=5)
        _s, cumulative, _p = run_with_churn("ranking", churn(), cycles=250)
        _s, windowed, _p = run_with_churn("window", churn(), cycles=250)
        # Late in the run the sliding window must be at least as good.
        assert windowed.final <= cumulative.final * 1.3


class TestUncorrelatedChurn:
    def test_easy_case_stays_converged(self):
        # Section 3.3's "easier case": identical distributions for
        # arriving and departing nodes; slice assignments stay mostly
        # correct for the ranking protocol.
        distribution = UniformAttributes()
        churn = RegularChurn(
            rate=0.01,
            period=5,
            departures=UniformDepartures(),
            arrivals=DistributionArrivals(distribution),
        )
        partition = SlicePartition.equal(10)
        sim = CycleSimulation(
            size=200, partition=partition,
            slicer_factory=lambda: RankingProtocol(partition),
            attributes=distribution, view_size=10, churn=churn, seed=9,
        )
        sdm = SliceDisorderCollector()
        sim.run(200, collectors=[sdm])
        converged = sdm.series.value_at_or_before(100)
        # No systematic drift: late SDM stays in the converged regime.
        assert sdm.series.final < 2.5 * max(converged, 1.0)
