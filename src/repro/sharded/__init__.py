"""repro.sharded — the bulk backend on worker threads, for 10^7-node
runs.

Shards the :mod:`repro.vectorized` cycle across persistent worker
threads over the driver's own arrays.  Churn, random draws,
exchange waves and message-overlap masks all come from the shared
:class:`repro.bulk.CyclePlan`, so results — including the paper's
half/full concurrency regimes — are bitwise identical to the
single-process vectorized backend at every worker count.
"""

from repro.sharded.driver import ShardedSimulation

__all__ = ["ShardedSimulation"]
