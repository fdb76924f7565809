"""Analytical results of the paper (Lemma 4.1, Theorem 5.1, Section 4.4)."""

from repro.analysis.binomial import (
    expected_sdm_floor,
    perfect_split_probability,
    perfect_split_upper_bound,
    relative_deviation,
    sdm_floor_of_values,
    slice_population_distribution,
    slice_population_interval,
)
from repro.analysis.chernoff import (
    SliceCardinalityBound,
    cardinality_bounds,
    deviation_probability_bound,
    maximum_beta,
    minimum_slice_width,
)
from repro.analysis.sample_size import (
    RankConfidence,
    confidence_achieved,
    required_samples,
    samples_by_rank,
    slice_estimate_is_confident,
)

__all__ = [
    "expected_sdm_floor",
    "perfect_split_probability",
    "perfect_split_upper_bound",
    "relative_deviation",
    "sdm_floor_of_values",
    "slice_population_distribution",
    "slice_population_interval",
    "SliceCardinalityBound",
    "cardinality_bounds",
    "deviation_probability_bound",
    "maximum_beta",
    "minimum_slice_width",
    "RankConfidence",
    "confidence_achieved",
    "required_samples",
    "samples_by_rank",
    "slice_estimate_is_confident",
]
