"""Lemma 4.1 and Theorem 5.1: analytical bounds vs Monte Carlo.

The first two regenerate the paper's two theory results as tables and
assert the claims ``run_lemma41`` / ``run_theorem51`` carry; the last
runs mod-JK to convergence and holds the slice populations it claims
to the lemma's interval.
"""


def test_lemma41_chernoff_bounds(paper_claims):
    paper_claims("lemma41", n=10_000, eps=0.05, trials=150, seed=0)


def test_theorem51_sample_sizes(paper_claims):
    paper_claims("theorem51", slice_count=10, trials=250, seed=0)


def test_lemma41_on_the_live_protocol(benchmark, capsys):
    """Lemma 4.1 applied to the protocol, not just to raw draws: after
    mod-JK fully sorts the random values, each slice's *claimed*
    population must lie within the lemma's Chernoff interval (the
    residual slice error of the ordering approach is exactly this
    binomial fluctuation)."""
    from conftest import emit
    from repro.analysis.chernoff import cardinality_bounds
    from repro.experiments.config import RunSpec, build_simulation
    from repro.experiments.results import FigureResult

    n, slice_count, eps = 1000, 10, 0.01

    def run():
        spec = RunSpec(
            n=n,
            cycles=120,
            slice_count=slice_count,
            view_size=20,
            protocol="mod-jk",
            seed=4,
        )
        sim = build_simulation(spec)
        sim.run(spec.cycles)
        counts = [0] * slice_count
        for node in sim.live_nodes():
            counts[node.slice_index] += 1
        result = FigureResult(
            "lemma41-protocol",
            "Slice populations claimed by converged mod-JK vs Lemma 4.1",
            params={"n": n, "slices": slice_count, "eps": eps},
        )
        bound = cardinality_bounds(n, 1.0 / slice_count, eps)
        result.add_scalar("interval_low", bound.low)
        result.add_scalar("interval_high", bound.high)
        for index, count in enumerate(counts):
            result.add_scalar(f"slice_{index}_population", count)
        result.add_note(
            "Every slice population should fall inside the Chernoff "
            f"interval [{bound.low:.0f}, {bound.high:.0f}] (eps={eps}); "
            "the deviations from n/k ARE the ordering approach's "
            "irreducible slice error."
        )
        return result, counts, bound

    result, counts, bound = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        emit(result)

    assert sum(counts) == n
    inside = sum(1 for c in counts if bound.low <= c <= bound.high)
    # eps=0.01 per slice; allow at most one excursion across 10 slices.
    assert inside >= slice_count - 1
    # And the populations genuinely fluctuate (not all exactly n/k) —
    # the inherent inaccuracy the paper characterizes.
    assert any(c != n // slice_count for c in counts)
