"""Vectorized bulk-simulation backend (million-node slicing runs).

The reference engines (:mod:`repro.engine`) model one Python object
per node, which is faithful to the paper's pseudocode but caps
practical runs around the paper's own n = 10^4.  This package stores
the whole population as a struct-of-arrays
(:class:`~repro.vectorized.state.ArrayState`) and implements each
protocol cycle as batched numpy passes, making 10^6-node runs of the
ranking and ordering protocols tractable on one machine.

It is also where the bulk cycle is *defined*, once, for all three bulk
backends: :mod:`~repro.vectorized.cycle` is the command sequence,
:mod:`~repro.vectorized.kernels` the per-shard work behind each
command, and :mod:`~repro.vectorized.executor` the in-process executor
this backend dispatches them on — and :mod:`repro.sharded` runs on too,
with more than one worker thread.  :mod:`repro.distributed` adds a
message transport as the alternative executor; nothing in this package
imports either.

Entry points:

* :class:`VectorSimulation` — drop-in driver with the same
  ``run(cycles, collectors)`` surface as ``CycleSimulation``;
* ``SlicingService(..., backend="vectorized")`` — the service facade
  on top of it;
* ``RunSpec(backend="vectorized")`` / ``python -m repro.experiments
  <figure> --backend vectorized`` — the experiment harness.
"""

from __future__ import annotations

try:
    import numpy  # noqa: F401 - probing the optional dependency
except ImportError as error:  # pragma: no cover - exercised without numpy
    raise ImportError(
        "repro.vectorized requires numpy, which is not installed. "
        "Install it with `pip install numpy` (or `pip install 'repro[fast]'`) "
        "or use the reference engine (backend='reference'), which has no "
        "hard numpy dependency in its protocol paths."
    ) from error

from repro.core.backends import PROTOCOLS
from repro.vectorized.churn import BulkChurn, from_model
from repro.vectorized.metrics import (
    PartitionArrays,
    accuracy_arrays,
    global_disorder_arrays,
    slice_disorder_arrays,
    true_slice_index_arrays,
)
from repro.vectorized.simulation import VectorNodeView, VectorSimulation, VectorStats
from repro.vectorized.state import EMPTY, ArrayState

__all__ = [
    "ArrayState",
    "EMPTY",
    "BulkChurn",
    "from_model",
    "PartitionArrays",
    "accuracy_arrays",
    "global_disorder_arrays",
    "slice_disorder_arrays",
    "true_slice_index_arrays",
    "PROTOCOLS",
    "VectorNodeView",
    "VectorSimulation",
    "VectorStats",
]
