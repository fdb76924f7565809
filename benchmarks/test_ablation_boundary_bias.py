"""Ablation: the ranking algorithm's boundary-biased targeting (j1).

Figure 5 sends one of the two per-cycle updates to the neighbor whose
rank estimate is closest to a slice boundary, because Theorem 5.1 says
those nodes need quadratically more samples.  Switching the bias off
(two uniform targets) isolates what it contributes.
"""

from repro.core.slices import SlicePartition
from repro.experiments.config import RunSpec, build_simulation
from repro.experiments.results import FigureResult
from repro.metrics.collectors import SliceDisorderCollector
from repro.metrics.disorder import attribute_ranks

from conftest import emit

N = 800
CYCLES = 250
SEED = 8


def boundary_update_share(sim, partition):
    """Fraction of all UPD receipts that went to boundary-close nodes."""
    ranks = attribute_ranks(sim.live_nodes())
    n = sim.live_count
    near_updates = 0
    total_updates = 0
    near_count = 0
    for node in sim.live_nodes():
        updates = node.slicer.updates_received
        total_updates += updates
        if partition.boundary_distance(ranks[node.node_id] / n) < 0.01:
            near_updates += updates
            near_count += 1
    share = near_updates / max(total_updates, 1)
    fair_share = near_count / n
    return share, fair_share


def run_ablation():
    partition = SlicePartition.equal(10)
    result = FigureResult(
        "ablation-boundary-bias",
        "Boundary-biased targeting on/off (ranking algorithm)",
        params={"n": N, "cycles": CYCLES, "slices": 10, "view": 10},
    )
    shares = {}
    for bias in (True, False):
        label = "biased" if bias else "unbiased"
        spec = RunSpec(
            n=N,
            cycles=CYCLES,
            slice_count=10,
            view_size=10,
            protocol="ranking",
            boundary_bias=bias,
            seed=SEED,
        )
        sim = build_simulation(spec)
        collector = SliceDisorderCollector(name=label, every=10)
        sim.run(CYCLES, collectors=[collector])
        result.add_series(collector.series)
        share, fair = boundary_update_share(sim, partition)
        shares[label] = (share, fair)
        result.add_scalar(f"{label}_final_sdm", collector.series.final)
        result.add_scalar(f"{label}_boundary_update_share", share)
        result.add_scalar(f"{label}_boundary_fair_share", fair)
    result.add_note(
        "Expected: with the bias on, boundary-close nodes receive a "
        "multiple of their fair share of updates; final SDM is at least "
        "as good as without the bias."
    )
    return result


def test_boundary_bias_ablation(benchmark, capsys):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    with capsys.disabled():
        emit(result)

    # The bias mechanism works: boundary nodes get >> their fair share.
    biased_share = result.scalars["biased_boundary_update_share"]
    fair = result.scalars["biased_boundary_fair_share"]
    assert biased_share > 1.5 * fair

    # Without the bias they get roughly their fair share.
    unbiased_share = result.scalars["unbiased_boundary_update_share"]
    unbiased_fair = result.scalars["unbiased_boundary_fair_share"]
    assert unbiased_share < 1.5 * unbiased_fair

    # And the bias does not hurt overall accuracy.
    assert (
        result.scalars["biased_final_sdm"]
        <= result.scalars["unbiased_final_sdm"] * 1.3
    )
