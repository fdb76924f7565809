"""The sharded backend: the bulk driver on worker threads.

:class:`ShardedSimulation` is a constructor, not a second driver and
not a second executor: it validates ``workers`` and hands the one bulk
driver (:class:`~repro.vectorized.simulation.VectorSimulation` — plan,
churn, rebalance bookkeeping and every metric) the in-process executor
(:class:`~repro.vectorized.executor.InlineExecutor`) with that many
shards.  Each shard is a contiguous id range of the driver's own
arrays, its kernels run on a thread of their own, and numpy releases
the GIL inside the array passes they consist of — so the parallel
backend holds one copy of the state, grows it on demand, and compacts
it in place (:func:`~repro.bulk.rebalance.compact_state`, after which
the ranges are recomputed over the live span).

Because the plan is identical for every worker count and each applied
step is either row-local or wave-disjoint, a run's arrays are **bitwise
identical across worker counts**.  Parallelism changes wall-clock time
only, never results; the equivalence tests assert this exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.vectorized.executor import InlineExecutor, worker_count
from repro.vectorized.simulation import VectorSimulation

__all__ = ["ShardedSimulation"]


class ShardedSimulation(VectorSimulation):
    """A :class:`VectorSimulation` whose kernels run on ``workers``
    threads, one contiguous shard of the state each.

    Accepts every ``VectorSimulation`` parameter, plus:

    Parameters
    ----------
    workers:
        Worker-thread count, the calling thread included (``None`` =
        all CPU cores).  Results are bitwise identical for every value.
        One worker needs no thread, so ``ShardedSimulation(workers=1)``
        returns a plain :class:`VectorSimulation`.

    Call :meth:`close` (or use the instance as a context manager) to
    stop the worker threads; they also stop on garbage collection.  The
    state is the driver's own, so reads and metrics keep working on a
    closed simulation, and a further ``run`` starts new threads.
    """

    def __new__(cls, size, partition, workers=None, **kwargs):
        # The cycle on a one-shard in-process executor *is* the
        # vectorized backend — hand back exactly that.
        if worker_count(workers) == 1:
            return VectorSimulation(size, partition, **kwargs)
        return super().__new__(cls)

    def __init__(
        self, size: int, partition, workers: Optional[int] = None, **kwargs
    ) -> None:
        self.workers = worker_count(workers)
        super().__init__(
            size, partition, executor=InlineExecutor(self.workers), **kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSimulation(nodes={self.live_count}, cycle={self.now}, "
            f"protocol={self.protocol!r}, workers={self.workers})"
        )
