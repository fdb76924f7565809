"""repro — a reproduction of *Distributed Slicing in Dynamic Systems*
(Fernández, Gramoli, Jiménez, Kermarrec, Raynal — ICDCS 2007).

The package provides:

* the paper's slicing protocols — JK, **mod-JK** (gain-heuristic
  ordering) and the **ranking** algorithm with its sliding-window
  variant (:mod:`repro.core`);
* the simulation substrate they run on — a PeerSim-style cycle engine
  with the paper's artificial-concurrency model (:mod:`repro.engine`),
  a numpy bulk engine for million-node runs (:mod:`repro.vectorized`),
  the same engine on worker threads for 10^7-node runs
  (:mod:`repro.sharded`), and on worker processes over a message
  transport (:mod:`repro.distributed`);
* pluggable peer-sampling protocols, including the paper's Cyclon
  variant (:mod:`repro.sampling`);
* churn models, including attribute-correlated burst and regular churn
  (:mod:`repro.churn`), and attribute workloads
  (:mod:`repro.workloads`);
* the paper's disorder measures and general metric collection
  (:mod:`repro.metrics`);
* its analytical results — Lemma 4.1, Theorem 5.1, the binomial slice
  statistics (:mod:`repro.analysis`);
* one experiment per paper figure (:mod:`repro.experiments`), also
  runnable as ``python -m repro.experiments <figure>``.

Quickstart
----------
>>> from repro import (CycleSimulation, SlicePartition, RankingProtocol,
...                    SliceDisorderCollector)
>>> partition = SlicePartition.equal(10)
>>> sim = CycleSimulation(
...     size=200, partition=partition, view_size=10, seed=1,
...     slicer_factory=lambda: RankingProtocol(partition))
>>> sdm = SliceDisorderCollector()
>>> sim.run(50, collectors=[sdm])
>>> sdm.series.final < sdm.series.values[0]
True
"""

from repro.churn import BurstChurn, NoChurn, RegularChurn, TraceChurn
from repro.core import (
    SELECTION_MAX_GAIN,
    SELECTION_RANDOM,
    SELECTION_RANDOM_MISPLACED,
    OrderingProtocol,
    RankingProtocol,
    Slice,
    SliceChange,
    SlicePartition,
    SlicingService,
)
from repro.engine import CycleSimulation
from repro.sharded import ShardedSimulation
from repro.vectorized import VectorSimulation
from repro.metrics import (
    GlobalDisorderCollector,
    SliceDisorderCollector,
    TimeSeries,
    global_disorder,
    slice_disorder,
)
from repro.sampling import (
    CyclonSampler,
    CyclonVariantSampler,
    NewscastSampler,
    UniformOracleSampler,
)
from repro.workloads import (
    ExponentialAttributes,
    NormalAttributes,
    ParetoAttributes,
    UniformAttributes,
)

__version__ = "1.0.0"

__all__ = [
    "BurstChurn",
    "NoChurn",
    "RegularChurn",
    "TraceChurn",
    "SELECTION_MAX_GAIN",
    "SELECTION_RANDOM",
    "SELECTION_RANDOM_MISPLACED",
    "OrderingProtocol",
    "RankingProtocol",
    "Slice",
    "SliceChange",
    "SlicePartition",
    "SlicingService",
    "CycleSimulation",
    "ShardedSimulation",
    "VectorSimulation",
    "GlobalDisorderCollector",
    "SliceDisorderCollector",
    "TimeSeries",
    "global_disorder",
    "slice_disorder",
    "CyclonSampler",
    "CyclonVariantSampler",
    "NewscastSampler",
    "UniformOracleSampler",
    "ExponentialAttributes",
    "NormalAttributes",
    "ParetoAttributes",
    "UniformAttributes",
    "__version__",
]
