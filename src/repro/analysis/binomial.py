"""Binomial slice statistics (Section 4.4).

Quantifies the residual inaccuracy of random-value slicing beyond the
Chernoff bounds of Lemma 4.1:

* the exact Binomial(n, p) distribution of a slice's population;
* the probability that n uniform draws split *perfectly* across two
  equal slices — at most ``sqrt(2 / (n pi))``, so "it is highly
  possible that the random number distribution does not lead to a
  perfect division into slices";
* a Monte-Carlo estimate of the **SDM floor**: the slice disorder that
  remains after the ordering algorithms have *perfectly* sorted the
  random values, which is what Figures 4(b) and 6(a) show JK and
  mod-JK converging to.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from repro.core.slices import SlicePartition

__all__ = [
    "slice_population_distribution",
    "slice_population_interval",
    "perfect_split_probability",
    "perfect_split_upper_bound",
    "relative_deviation",
    "simulated_sdm_floor",
    "sdm_floor_of_values",
]


def slice_population_distribution(n: int, p: float):
    """The ``scipy.stats.binom(n, p)`` distribution of a slice's size."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    from scipy.stats import binom  # not at import time: 78 MB per process

    return binom(n, p)


def slice_population_interval(n: int, p: float, coverage: float = 0.95) -> Tuple[int, int]:
    """Central interval containing the slice population with the given
    exact binomial coverage."""
    distribution = slice_population_distribution(n, p)
    tail = (1.0 - coverage) / 2.0
    return int(distribution.ppf(tail)), int(distribution.ppf(1.0 - tail))


def perfect_split_probability(n: int) -> float:
    """Exact probability that n uniform draws put exactly n/2 values in
    each half of (0, 1] (0 for odd n): ``C(n, n/2) / 2^n``, in integers
    until the one correctly rounded division."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n % 2 == 1:
        return 0.0
    return math.comb(n, n // 2) / 2**n


def perfect_split_upper_bound(n: int) -> float:
    """The paper's closed-form bound ``sqrt(2 / (n pi))``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return math.sqrt(2.0 / (n * math.pi))


def relative_deviation(n: int, p: float) -> float:
    """Expected relative deviation of a slice's population from its
    mean, ``sqrt((1 - p) / (n p))`` — "very large if p is small ...
    goes to infinity as p tends to zero" (Section 4.4)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    return math.sqrt((1.0 - p) / (n * p))


def sdm_floor_of_values(values: List[float], partition: SlicePartition) -> float:
    """SDM after a *perfect* ordering of the given random values.

    With the values sorted, the node of attribute rank ``k`` (1-based)
    holds the k-th smallest value ``v_k``; its true slice contains
    ``k/n`` and its believed slice contains ``v_k``.  The residual SDM
    is entirely due to the values' non-uniform spread — the
    "unrecoverable" inaccuracy of Section 4.4.
    """
    n = len(values)
    if n == 0:
        return 0.0
    total = 0.0
    for index, value in enumerate(sorted(values), start=1):
        true_slice = partition.slice_of(index / n)
        believed = partition.slice_of(value)
        total += partition.slice_distance(true_slice, believed)
    return total


def simulated_sdm_floor(
    n: int,
    partition: SlicePartition,
    trials: int = 10,
    rng: Optional[random.Random] = None,
) -> Tuple[float, float]:
    """Monte-Carlo ``(mean, std)`` of the SDM floor for n nodes.

    Each trial draws n uniform (0, 1] values and evaluates
    :func:`sdm_floor_of_values`; this predicts the plateau of the
    ordering algorithms' SDM curves without running the protocol.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = rng if rng is not None else random.Random(0)
    floors = []
    for _ in range(trials):
        values = [1.0 - rng.random() for _ in range(n)]
        floors.append(sdm_floor_of_values(values, partition))
    mean = sum(floors) / trials
    variance = sum((f - mean) ** 2 for f in floors) / trials
    return mean, math.sqrt(variance)
