"""Binomial slice statistics (Section 4.4).

Quantifies the residual inaccuracy of random-value slicing beyond the
Chernoff bounds of Lemma 4.1:

* the exact Binomial(n, p) distribution of a slice's population;
* the probability that n uniform draws split *perfectly* across two
  equal slices — at most ``sqrt(2 / (n pi))``, so "it is highly
  possible that the random number distribution does not lead to a
  perfect division into slices";
* the **SDM floor**: the slice disorder that remains after the
  ordering algorithms have *perfectly* sorted the random values, which
  is what Figures 4(b) and 6(a) show JK and mod-JK converging to — for
  given values, and its exact expectation over uniform draws.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.slices import SlicePartition

__all__ = [
    "slice_population_distribution",
    "slice_population_interval",
    "perfect_split_probability",
    "perfect_split_upper_bound",
    "relative_deviation",
    "expected_sdm_floor",
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


def expected_sdm_floor(n: int, partition: SlicePartition) -> float:
    """Exact expectation of :func:`sdm_floor_of_values` over n uniform
    draws: the plateau the ordering algorithms converge to on average.

    The k-th smallest of n uniform values is ``U_(k) ~ Beta(k, n-k+1)``,
    so the floor's mean is ``sum_k sum_j P(U_(k) in slice j) *
    dist(slice(k/n), slice j)``, each probability a difference of two
    regularized incomplete beta functions.  Rows of k go in blocks of
    about a million terms, so memory stays flat in n.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    import numpy as np
    from scipy.special import betainc  # not at import time: see above

    uppers = np.array([s.upper for s in partition])
    distance = np.array(
        [[partition.slice_distance(t, j) for j in partition] for t in partition]
    )
    true = np.array([partition.index_of(k / n) for k in range(1, n + 1)])
    block = max(1, 2**20 // len(partition))
    total = 0.0
    for start in range(0, n, block):
        k = np.arange(start + 1, min(start + block, n) + 1, dtype=float)[:, None]
        mass = np.diff(betainc(k, n + 1 - k, uppers), axis=1, prepend=0.0)
        total += float((mass * distance[true[start : start + len(k)]]).sum())
    return total
