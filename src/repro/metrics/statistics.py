"""Small statistics toolbox used by the harness and the theory checks.

Nothing here is paper-specific; it provides the summary statistics and
confidence intervals that EXPERIMENTS.md reports and that the
Theorem 5.1 validation uses (Wald binomial intervals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "SummaryStats",
    "summarize",
    "mean_confidence_interval",
    "wald_interval",
    "z_value",
]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summary statistics of ``values`` (population std)."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    variance = sum((v - mean) ** 2 for v in ordered) / n
    middle = n // 2
    if n % 2 == 1:
        median = ordered[middle]
    else:
        median = (ordered[middle - 1] + ordered[middle]) / 2
    return SummaryStats(
        count=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=ordered[0],
        maximum=ordered[-1],
        median=median,
    )


def z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile ``z_{alpha/2}``.

    ``confidence`` is the coefficient ``1 - alpha``; e.g.
    ``z_value(0.95) ≈ 1.96``.  ``ndtri`` is ``scipy.stats.norm.ppf``
    without ``scipy.stats``: 78 MB that every process importing
    ``repro``, workers included, would otherwise carry.
    """
    from scipy.special import ndtri

    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    return float(ndtri(1.0 - alpha / 2.0))


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Normal-approximation CI for the mean of ``values``."""
    stats = summarize(values)
    if stats.count < 2:
        return (stats.mean, stats.mean)
    half = z_value(confidence) * stats.std / math.sqrt(stats.count)
    return (stats.mean - half, stats.mean + half)


def wald_interval(
    p_hat: float, samples: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wald large-sample binomial interval for a proportion.

    This is exactly the interval Theorem 5.1 builds on:
    ``p_hat ± z_{alpha/2} * sqrt(p_hat (1 - p_hat) / k)``, clamped to
    [0, 1].
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must be in [0, 1], got {p_hat}")
    half = z_value(confidence) * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return (max(0.0, p_hat - half), min(1.0, p_hat + half))
