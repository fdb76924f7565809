"""Vectorized disorder measures and partition geometry.

These mirror :mod:`repro.metrics.disorder` and the lookup methods of
:class:`~repro.core.slices.SlicePartition`, but operate on whole
arrays at once so sampling a 10^6-node system every cycle stays cheap.
The scalar and vectorized paths agree on the same inputs (the
equivalence tests check this), so collectors may use either.
"""

from __future__ import annotations

import numpy as np

from repro.core.slices import SlicePartition
from repro.metrics.disorder import _rank_by

__all__ = [
    "PartitionArrays",
    "assignment_counts",
    "ranks_1based",
    "sdm_from_counts",
    "slice_disorder_arrays",
    "global_disorder_arrays",
    "true_slice_index_arrays",
    "accuracy_arrays",
    "confident_mask",
]

_EPSILON = 1e-12


class PartitionArrays:
    """A :class:`SlicePartition` flattened into numpy lookup tables."""

    def __init__(self, partition: SlicePartition) -> None:
        self.partition = partition
        self.uppers = np.array([s.upper for s in partition], dtype=np.float64)
        self.lowers = np.array([s.lower for s in partition], dtype=np.float64)
        self.mids = np.array([s.midpoint for s in partition], dtype=np.float64)
        self.widths = np.array([s.width for s in partition], dtype=np.float64)
        self.interior = self.uppers[:-1]
        # Padding the interior boundaries with ±inf turns the nearest-
        # boundary query into one searchsorted plus two gathers; the
        # equal-width case (the paper's experiments) closes the form
        # entirely — it matters because the ranking round evaluates the
        # distance on an (n, c) matrix every cycle.
        self._padded = np.concatenate(([-np.inf], self.interior, [np.inf]))
        self._equal_width = len(self.uppers) > 1 and bool(
            np.allclose(np.diff(self.uppers), self.widths[0])
        )

    def __len__(self) -> int:
        return len(self.uppers)

    def index_of(self, x: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`SlicePartition.index_of` (with the same
        clamping of out-of-range values into the outer slices)."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.uppers, x - _EPSILON, side="left")
        return np.clip(idx, 0, len(self.uppers) - 1)

    def boundary_distance(self, x: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`SlicePartition.boundary_distance` — the
        ``dist`` of Figure 5, line 8."""
        x = np.asarray(x, dtype=np.float64)
        if len(self.interior) == 0:
            return np.minimum(np.abs(x), np.abs(1.0 - x))
        if self._equal_width:
            k = len(self.uppers)
            nearest = np.clip(np.rint(x * k), 1, k - 1) / k
            return np.abs(x - nearest)
        pos = np.searchsorted(self.interior, x) + 1
        return np.minimum(x - self._padded[pos - 1], self._padded[pos] - x)

    def slice_distance(
        self, true_idx: np.ndarray, believed_idx: np.ndarray
    ) -> np.ndarray:
        """Per-node SDM terms: ``|mid(true) - mid(believed)| / width(true)``."""
        return (
            np.abs(self.mids[true_idx] - self.mids[believed_idx])
            / self.widths[true_idx]
        )

    def slice_distance_matrix(self) -> np.ndarray:
        """The full ``(S, S)`` table of :meth:`slice_distance` terms,
        cached — the weights of the histogram-form SDM."""
        matrix = getattr(self, "_distance_matrix", None)
        if matrix is None:
            indices = np.arange(len(self.uppers))
            matrix = self.slice_distance(indices[:, None], indices[None, :])
            self._distance_matrix = matrix
        return matrix


def ranks_1based(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """1-based ranks by ``keys`` with ties broken by id (the paper's
    total order).  Delegates to the scalar metrics module's
    implementation so there is exactly one definition of the rank
    order both backends measure against."""
    return _rank_by(np.asarray(keys, dtype=np.float64), ids)


def true_slice_index_arrays(
    attributes: np.ndarray, ids: np.ndarray, geometry: PartitionArrays
) -> np.ndarray:
    """The slice each node actually belongs to: the slice containing
    its normalized attribute rank ``alpha_i / n`` (Section 3.2)."""
    n = len(attributes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    alpha = ranks_1based(attributes, ids)
    return geometry.index_of(alpha / n)


def assignment_counts(
    truth: np.ndarray, believed: np.ndarray, n_slices: int
) -> np.ndarray:
    """Integer ``(S, S)`` histogram of ``(true, believed)`` slice
    assignments — the exactly-reducible form of the SDM and accuracy:
    integer counts sum without rounding, so a distributed reduction is
    independent of how the rows are sharded."""
    flat = np.bincount(
        truth * n_slices + believed, minlength=n_slices * n_slices
    )
    return flat.reshape(n_slices, n_slices)


def sdm_from_counts(counts: np.ndarray, geometry: PartitionArrays) -> float:
    """SDM from an assignment histogram: one weighted sum in canonical
    (slice-pair) order, so every reduction path lands on the same
    float."""
    return float((counts * geometry.slice_distance_matrix()).sum())


def slice_disorder_arrays(
    attributes: np.ndarray,
    values: np.ndarray,
    ids: np.ndarray,
    geometry: PartitionArrays,
) -> float:
    """SDM over the given live-node arrays (Section 4.4).  Computed in
    histogram form, making the value independent of row order (the
    driver's ``slice_disorder()``, which takes the alpha ranks from the
    incremental index instead of a sort, produces this exact float)."""
    if len(attributes) == 0:
        return 0.0
    truth = true_slice_index_arrays(attributes, ids, geometry)
    believed = geometry.index_of(values)
    return sdm_from_counts(
        assignment_counts(truth, believed, len(geometry)), geometry
    )


def global_disorder_arrays(
    attributes: np.ndarray, values: np.ndarray, ids: np.ndarray
) -> float:
    """GDM over the given live-node arrays (Section 4.2)."""
    n = len(attributes)
    if n == 0:
        return 0.0
    alpha = ranks_1based(attributes, ids)
    rho = ranks_1based(values, ids)
    return float(np.mean((alpha - rho) ** 2))


def accuracy_arrays(
    attributes: np.ndarray,
    values: np.ndarray,
    ids: np.ndarray,
    geometry: PartitionArrays,
) -> float:
    """Fraction of nodes whose believed slice equals their true slice."""
    if len(attributes) == 0:
        return 1.0
    truth = true_slice_index_arrays(attributes, ids, geometry)
    believed = geometry.index_of(values)
    return float(np.mean(truth == believed))


def confident_mask(
    estimates: np.ndarray,
    samples: np.ndarray,
    geometry: PartitionArrays,
    z: float,
) -> np.ndarray:
    """Theorem 5.1's acceptance test, batched: does each node's Wald
    interval after ``samples`` observations fit inside one slice?

    Mirrors ``analysis.sample_size.slice_estimate_is_confident`` —
    ``z`` is the precomputed two-sided normal quantile.
    """
    p = np.clip(estimates, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = z * np.sqrt(p * (1.0 - p) / np.maximum(samples, 1))
    low = np.maximum(0.0, p - half)
    high = np.minimum(1.0, p + half)
    idx = geometry.index_of(p)
    inside = (geometry.lowers[idx] < low) & (high <= geometry.uppers[idx])
    return inside & (samples > 0)
