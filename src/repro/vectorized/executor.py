"""Executors: what a bulk simulation runs on, and all that differs
between ``backend="vectorized"``, ``"sharded"`` and ``"distributed"``.

There is one bulk driver (:class:`~repro.vectorized.simulation.
VectorSimulation`): it plans every cycle, applies churn, books
rebalances and computes every metric from columns it holds itself.
What it hands to an *executor* is whatever depends on where the node
columns physically live — :class:`Executor` is that surface: allocate
the state, start workers, run commands, replicate driver-written rows,
compact a planned rebalance, sync, close (``docs/ARCHITECTURE.md``,
"What an executor owns", tabulates the three side by side).

This module holds the surface and the in-process executor — a single
shard spanning the whole state, kernels called directly, plain arrays
for scratch, no pool, no shared memory; its ``close`` releases nothing,
so reads and runs keep working after it.  The pool
(:mod:`repro.sharded.driver`) and message
(:mod:`repro.distributed.driver`) executors serve the same surface
across processes; nothing here imports them.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict

import numpy as np

from repro.bulk.rebalance import compact_state
from repro.vectorized.kernels import DISPATCH, ShardContext
from repro.vectorized.state import ArrayState

__all__ = ["Executor", "InlineScratch", "InlineExecutor", "grown_size"]


def grown_size(size: int, current: int = 0) -> int:
    """Allocation size of a named scratch buffer asked to hold ``size``
    elements while holding ``current``: never below 1024, and at least
    doubling, so a buffer that creeps up is remapped O(log n) times."""
    return max(int(size), 1024, 2 * current)


class Executor:
    """What the bulk driver dispatches through and delegates to.

    Every executor serves ``run_async(command, payloads)`` +
    ``collect(pending)`` (one kernel of the worker dispatch table on
    every shard, per-shard replies back), ``bounds`` (the shards'
    ``(lo, hi)`` row ranges), ``scratch`` (the named buffers carrying
    planned blocks to the kernels and proposals back) and ``state``
    (the :class:`~repro.vectorized.state.ArrayState` it allocated),
    plus the lifecycle below.  An executor never references the
    simulation: the driver's GC finalizer is the executor's ``close``.
    """

    #: Columns the workers hold private copies of; the driver reports
    #: the rows it writes in them through :meth:`replicate`.
    replicated = ()
    #: Whether a command may address only some of the workers (the
    #: watchdog's barrier identity is then a band, not an equality).
    addresses_subsets = False

    def allocate(self, view_size: int, size: int, window) -> ArrayState:
        """Lay out the (empty) state for ``size`` initial nodes.  An
        executor that starts its workers eagerly launches them here,
        first: a forked worker keeps every page its parent holds."""
        raise NotImplementedError

    def attach(self, geometry, telemetry) -> None:
        """The state is populated: adopt the partition geometry and the
        telemetry, and hand eagerly started workers their replicas."""
        raise NotImplementedError

    def run(self, command: str, payloads) -> list:
        return self.collect(self.run_async(command, payloads))

    def replicate(self, rows, columns=None) -> None:
        """The driver wrote ``rows`` of ``columns`` (default: every
        replicated column).  Nothing to do where the workers read the
        driver's own arrays."""

    def compact(self, decision) -> None:
        """Apply one planned :class:`~repro.bulk.rebalance.
        RebalancePlan` to the state (and the shard boundaries)."""
        raise NotImplementedError

    def sync(self, columns=None) -> None:
        """Make the driver's copy of ``columns`` (default: all) current.
        Nothing to do where the driver's arrays are the state."""

    def close(self) -> None:
        """Release workers and memory.  Each executor documents what
        stays readable afterwards; commands are refused if anything
        was released."""


class InlineScratch:
    """Named grow-on-demand scratch buffers as plain arrays."""

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def ensure(self, name: str, dtype, size: int) -> np.ndarray:
        """An array named ``name`` with at least ``size`` elements."""
        array = self._arrays.get(name)
        if array is not None and len(array) >= size and array.dtype == dtype:
            return array
        current = 0 if array is None else len(array)
        array = np.empty(grown_size(size, current), dtype=dtype)
        self._arrays[name] = array
        return array

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]


class InlineExecutor(Executor):
    """Single-shard executor running the kernels in the calling
    process.  The shard always spans the state's *current* capacity:
    nothing here pins the arrays, so the state stays free to grow."""

    def allocate(self, view_size: int, size: int, window) -> ArrayState:
        self.state = ArrayState(view_size, capacity=size)
        if window is not None:
            self.state.enable_window(window)
        return self.state

    def attach(self, geometry, telemetry) -> None:
        self.scratch = InlineScratch()
        self._telemetry = telemetry
        self._ctx = ShardContext(
            self.state, 0, self.state.capacity, geometry, self.scratch
        )

    @property
    def bounds(self) -> list:
        return [(0, self.state.capacity)]

    def run_async(self, command: str, payloads):
        """Inline execution is synchronous: the "in-flight" handle is
        the finished result plus its timing, booked at collect time so
        the plan/apply pipelining call pattern works unchanged."""
        ctx = self._ctx
        ctx.hi = ctx.state.capacity  # churn may have grown the state
        if not self._telemetry.enabled:
            return (command, [DISPATCH[command](ctx, **payloads[0])], None)
        start = perf_counter_ns()
        result = [DISPATCH[command](ctx, **payloads[0])]
        return (command, result, (start, perf_counter_ns() - start))

    def collect(self, pending) -> list:
        command, result, timing = pending
        if timing is not None:
            start, span_ns = timing
            self._telemetry.book_command(
                command, start, span_ns, [(0, {"kernel": [span_ns, 1]})]
            )
        return result

    def compact(self, decision) -> None:
        compact_state(self.state, decision)
