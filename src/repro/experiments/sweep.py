"""Parameter sweeps and multi-seed replication.

The paper reports single runs; a credible reproduction should also
quantify run-to-run variance and parameter sensitivity.  This module
provides the two tools the ablation benchmarks and EXPERIMENTS.md use:

* :func:`replicate` — run the same spec under several seeds and
  summarize a scalar outcome (mean, std, min, max);
* :func:`sweep` — vary one :class:`~repro.experiments.config.RunSpec`
  field across values and collect an outcome per value, optionally
  replicated.

Outcomes are pluggable callables ``(sim, partition) -> float``; the
common ones (final SDM, final GDM, convergence cycle) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.core.slices import SlicePartition
from repro.experiments.config import RunSpec
from repro.experiments.figures import run_spec, simulation
from repro.metrics.statistics import SummaryStats, summarize

__all__ = [
    "final_sdm",
    "final_gdm",
    "cycles_to_sdm",
    "replicate",
    "sweep",
    "SweepPoint",
]


def final_sdm(sim, partition: SlicePartition) -> float:
    """Outcome: slice disorder at the end of the run (``partition`` is
    the spec's, the one the engine slices by)."""
    return sim.slice_disorder()


def final_gdm(sim, partition: SlicePartition) -> float:
    """Outcome: global disorder at the end of the run."""
    return sim.global_disorder()


def cycles_to_sdm(threshold: float) -> Callable:
    """Outcome factory: first cycle the SDM dropped to ``threshold``.

    Unlike the end-state outcomes this needs the whole trajectory, so
    it re-runs the spec with a collector; it is therefore passed the
    *spec* via closure by :func:`replicate`/:func:`sweep` (they detect
    the ``needs_series`` marker).
    """

    def outcome(series) -> float:
        hit = series.first_time_below(threshold)
        return float(hit) if hit is not None else float("inf")

    outcome.needs_series = True  # type: ignore[attr-defined]
    return outcome


def _run_outcome(spec: RunSpec, outcome: Callable) -> float:
    if getattr(outcome, "needs_series", False):
        return outcome(run_spec(spec)[0])
    with simulation(spec) as sim:
        sim.run(spec.cycles)
        return outcome(sim, spec.partition())


def replicate(
    spec: RunSpec,
    outcome: Callable = final_sdm,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> SummaryStats:
    """Run ``spec`` once per seed; summarize the outcome distribution."""
    if not seeds:
        raise ValueError("need at least one seed")
    values = [
        _run_outcome(spec.with_overrides(seed=seed), outcome) for seed in seeds
    ]
    return summarize(values)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the parameter value and outcome summary."""

    value: object
    stats: SummaryStats


def sweep(
    spec: RunSpec,
    field: str,
    values: Sequence,
    outcome: Callable = final_sdm,
    seeds: Sequence[int] = (0,),
) -> List[SweepPoint]:
    """Vary ``field`` of ``spec`` across ``values``.

    Each point runs once per seed; results come back in input order.

    >>> points = sweep(RunSpec(n=100, cycles=20, view_size=5),
    ...                "view_size", [5, 10], seeds=[0])  # doctest: +SKIP
    """
    if not hasattr(spec, field):
        raise AttributeError(f"RunSpec has no field {field!r}")
    points = []
    for value in values:
        varied = spec.with_overrides(**{field: value})
        points.append(SweepPoint(value, replicate(varied, outcome, seeds)))
    return points
