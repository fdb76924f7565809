"""Ablation: sliding-window length under attribute-correlated churn.

Section 5.3.4 fixes one window size (10^4 bits).  This sweep exposes
the trade-off the choice hides: short windows adapt instantly but are
noisy (estimator variance ~ 1/sqrt(W)); long windows are precise but
retain stale pre-churn observations.
"""

from repro.experiments.config import RunSpec, build_simulation
from repro.experiments.results import FigureResult
from repro.metrics.collectors import SliceDisorderCollector

from conftest import emit

N = 800
CYCLES = 400
SEED = 7
WINDOWS = (200, 1000, 4000, None)  # None = cumulative (no window)


def label_for(window):
    return "cumulative" if window is None else f"window-{window}"


def run_sweep():
    result = FigureResult(
        "ablation-window",
        "Sliding-window length sweep (ranking, regular correlated churn)",
        params={
            "n": N,
            "cycles": CYCLES,
            "slices": 20,
            "view": 10,
            "churn_rate": 0.005,
            "churn_period": 10,
        },
    )
    for window in WINDOWS:
        protocol = "ranking" if window is None else "ranking-window"
        spec = RunSpec(
            n=N,
            cycles=CYCLES,
            slice_count=20,
            view_size=10,
            protocol=protocol,
            window=window,
            churn="regular",
            churn_rate=0.005,
            churn_period=10,
            seed=SEED,
        )
        sim = build_simulation(spec)
        collector = SliceDisorderCollector(name=label_for(window), every=10)
        sim.run(CYCLES, collectors=[collector])
        result.add_series(collector.series)
        result.add_scalar(f"{label_for(window)}_final_sdm", collector.series.final)
        result.add_scalar(f"{label_for(window)}_min_sdm", collector.series.minimum)
    result.add_note(
        "Expected: under sustained correlated churn every finite window "
        "ends below the cumulative estimator; very short windows pay an "
        "estimator-variance penalty visible in their minima."
    )
    return result


def test_window_sweep(benchmark, capsys):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    with capsys.disabled():
        emit(result)

    cumulative_final = result.scalars["cumulative_final_sdm"]
    # Moderate and long windows must beat the cumulative estimator
    # under sustained drift.
    assert result.scalars["window-1000_final_sdm"] < cumulative_final
    assert result.scalars["window-4000_final_sdm"] < cumulative_final

    # The variance penalty: the shortest window's best-ever SDM is worse
    # than the longest window's best-ever SDM.
    assert (
        result.scalars["window-200_min_sdm"]
        >= result.scalars["window-4000_min_sdm"]
    )
