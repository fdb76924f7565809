"""Ablation: how much does the peer-sampling substrate matter?

Figure 6(b) compares the Cyclon variant against a uniform oracle for
the ranking algorithm; this ablation widens that comparison to all
four samplers and also records overlay health (in-degree spread),
which explains any SDM differences.
"""

import random

from repro.experiments.config import RunSpec, build_simulation
from repro.experiments.results import FigureResult
from repro.metrics.collectors import SliceDisorderCollector
from repro.sampling.graph_analysis import analyze_overlay

from conftest import emit

N = 800
CYCLES = 200
SEED = 6
SAMPLERS = ("uniform", "cyclon-variant", "cyclon", "newscast")


def run_ablation():
    result = FigureResult(
        "ablation-sampler",
        "Peer-sampler ablation (ranking algorithm)",
        params={"n": N, "cycles": CYCLES, "slices": 50, "view": 20},
    )
    for sampler in SAMPLERS:
        spec = RunSpec(
            n=N,
            cycles=CYCLES,
            slice_count=50,
            view_size=20,
            protocol="ranking",
            sampler=sampler,
            seed=SEED,
        )
        sim = build_simulation(spec)
        collector = SliceDisorderCollector(name=sampler, every=5)
        sim.run(CYCLES, collectors=[collector])
        result.add_series(collector.series)
        stats = analyze_overlay(sim.live_nodes(), path_length_samples=5,
                                rng=random.Random(0))
        result.add_scalar(f"{sampler}_final_sdm", collector.series.final)
        result.add_scalar(f"{sampler}_indegree_std", stats.in_degree_std)
        result.add_scalar(
            f"{sampler}_component_fraction", stats.largest_component_fraction
        )
    result.add_note(
        "Expected: all samplers converge; the uniform oracle and the "
        "Cyclon family end close together (Figure 6(b) generalized); "
        "Newscast shows the largest in-degree skew."
    )
    return result


def test_sampler_ablation(benchmark, capsys):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    with capsys.disabled():
        emit(result)

    # Every sampler must let the ranking protocol converge.
    for sampler in SAMPLERS:
        series = result.series[sampler]
        assert series.final < series.values[0] / 3, sampler

    # The gossip samplers track the oracle within a modest factor.
    oracle = result.scalars["uniform_final_sdm"]
    for sampler in ("cyclon-variant", "cyclon"):
        assert result.scalars[f"{sampler}_final_sdm"] < 3.0 * max(oracle, 1.0)

    # Overlay health: the Cyclon family keeps in-degrees tighter than
    # Newscast (its known skew).
    assert (
        result.scalars["cyclon-variant_indegree_std"]
        < result.scalars["newscast_indegree_std"]
    )
