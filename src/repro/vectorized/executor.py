"""Executors: what a bulk simulation runs on, and all that differs
between ``backend="vectorized"``, ``"sharded"`` and ``"distributed"``.

There is one bulk driver (:class:`~repro.vectorized.simulation.
VectorSimulation`): it plans every cycle, applies churn, books
rebalances and computes every metric from columns it holds itself.
What it hands to an *executor* is whatever depends on where the node
columns physically live and who applies the kernels to them —
:class:`Executor` is that surface: allocate the state, start workers,
run commands, replicate driver-written rows, compact a planned
rebalance, sync, close (``docs/ARCHITECTURE.md``, "What an executor
owns", tabulates them side by side).

This module holds the surface and the in-process executor
(:class:`InlineExecutor`): the kernels called directly over the
driver's own growable arrays, plain arrays for scratch — on the calling
thread alone (``backend="vectorized"``), or on ``workers`` threads, one
contiguous row range each (``backend="sharded"``).  The message
executor (:mod:`repro.distributed.driver`) serves the same surface
across processes and hosts; nothing here imports it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns
from typing import Dict, Optional

import numpy as np

from repro.bulk.rebalance import compact_state, rebalance_bounds
from repro.vectorized.kernels import DISPATCH, ShardContext
from repro.vectorized.state import ArrayState

__all__ = [
    "Executor",
    "InlineScratch",
    "InlineExecutor",
    "THREAD_PREFIX",
    "grown_size",
    "worker_count",
]

#: Name prefix of the in-process executor's worker threads (what the
#: test suite's leak check looks for in ``threading.enumerate()``).
THREAD_PREFIX = "repro-shard"


def worker_count(workers: Optional[int]) -> int:
    """``workers`` as a validated count; ``None`` means every CPU core."""
    workers = (os.cpu_count() or 1) if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def grown_size(size: int, current: int = 0) -> int:
    """Allocation size of a named scratch buffer asked to hold ``size``
    elements while holding ``current``: never below 1024, and at least
    doubling, so a buffer that creeps up is remapped O(log n) times."""
    return max(int(size), 1024, 2 * current)


class Executor:
    """What the bulk driver dispatches through and delegates to.

    Every executor serves ``run(command, payloads)`` (one kernel of
    the worker dispatch table on every shard, per-shard replies back
    once the last shard is done), ``bounds`` (the shards'
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
        """Apply ``command`` on every shard with its own payload and
        return the per-shard replies.  The one way to issue a command:
        it returns when every shard is done, so whatever the command
        wrote may be read — and staged over — straight away."""
        raise NotImplementedError

    def check_open(self) -> None:
        """Raise what :meth:`run` would raise if commands are no longer
        accepted.  The driver asks before it plans a cycle, so a refused
        cycle leaves the state untouched; an executor that releases
        nothing on :meth:`close` always accepts."""

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
    """Named scratch buffers as views of one arena, handed out by phase.

    A buffer is read in the phase that staged it and in no other, so
    :meth:`begin_phase` hands the whole arena out again: the executor
    holds the largest phase's buffers, not the sum of every phase's.
    A buffer the arena has no room for gets a block of its own — the
    views handed out earlier stay where they are — and the next reset
    re-cuts the arena to what the phase really took.  ``keep=True``
    names the exception, a private array no reset touches
    (``occupancy``, the shards' live counts)."""

    def __init__(self) -> None:
        self._arena = np.empty(0, dtype=np.uint8)
        self._views: Dict[str, np.ndarray] = {}
        self._kept: Dict[str, np.ndarray] = {}
        self.used = 0  # bytes handed out since the last reset

    def begin_phase(self) -> None:
        """Forget every buffer but the kept ones.  Driver only, with no
        view of the last phase still in use."""
        if self.used > len(self._arena):  # spilled: one arena, with headroom
            self._arena = np.empty(self.used + self.used // 8, dtype=np.uint8)
        self._views.clear()
        self.used = 0

    def ensure(self, name: str, dtype, size: int, keep: bool = False) -> np.ndarray:
        """An array named ``name`` with at least ``size`` elements — the
        same memory for the rest of the phase unless asked to grow.  Only
        the driver calls this, between commands; a kernel looks its
        buffers up by name."""
        views = self._kept if keep else self._views
        array = views.get(name)
        if array is not None and len(array) >= size and array.dtype == dtype:
            return array
        if keep:
            array = np.zeros(grown_size(size), dtype=dtype)
        else:
            nbytes = -(-size * np.dtype(dtype).itemsize // 64) * 64  # cache lines
            block = self._arena[self.used : self.used + nbytes]
            if len(block) < nbytes:
                block = np.empty(nbytes, dtype=np.uint8)
            self.used += nbytes
            array = block.view(dtype)
        views[name] = array
        return array

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._views.get(name)
        return self._kept[name] if array is None else array


def _run_shard(kernel, ctx: ShardContext, payload: dict, start: int = 0) -> tuple:
    """One kernel call on one shard, on whichever thread: ``(result,
    busy_ns, end_ns, error)`` — an exception is returned, not raised, so
    the barrier is always joined before anything propagates.  The
    calling thread passes the dispatch ``start``: handing the other
    shards out is part of its busy time."""
    start = start or perf_counter_ns()
    result = error = None
    try:
        result = kernel(ctx, **payload)
    except Exception as caught:
        error = caught
    end = perf_counter_ns()
    return result, end - start, end, error


class InlineExecutor(Executor):
    """The in-process executor: ``workers`` shards of one growable
    :class:`~repro.vectorized.state.ArrayState`, one
    :class:`~repro.vectorized.kernels.ShardContext` each, the kernels
    called directly over the driver's own arrays and plain scratch.

    With one worker a command is a function call.  With more, the
    calling thread runs shard 0 and a persistent thread pool the rest
    (numpy releases the GIL inside the array passes a kernel consists
    of); the pool is started by the first command and stopped by
    :meth:`close`, which releases nothing else — reads keep working
    after it, and a further command simply starts a new pool.

    What threads share, and processes would not, is the *Python
    objects*.  A kernel may write rows of the state's columns and its
    own slices of the scratch arrays; it never assigns an attribute of
    the state, the scratch or the telemetry — ``size``, the liveness
    cache and ``maybe_dead_entries`` are the driver's
    (``tests/vectorized/test_kernel_purity.py`` holds the rule)."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = worker_count(workers)
        self._pool = None

    def allocate(self, view_size: int, size: int, window) -> ArrayState:
        self.state = ArrayState(view_size, capacity=size)
        if window is not None:
            self.state.enable_window(window)
        return self.state

    def attach(self, geometry, telemetry) -> None:
        self.scratch = InlineScratch()
        self._telemetry = telemetry
        self._geometry = geometry
        self._split()

    def _split(self) -> None:
        """Cut the populated span evenly into one context per worker
        (the last one takes the spare rows, where joiners append).
        Bounds never affect results, only which thread does which
        rows' work."""
        state = self.state
        self._contexts = [
            ShardContext(state, lo, hi, self._geometry, self.scratch)
            for lo, hi in rebalance_bounds(state.size, self.workers, state.capacity)
        ]

    @property
    def bounds(self) -> list:
        spans = [(ctx.lo, ctx.hi) for ctx in self._contexts]
        spans[-1] = (spans[-1][0], self.state.capacity)
        return spans

    def run(self, command: str, payloads) -> list:
        """The calling thread runs shard 0 while the pool runs the rest,
        then joins them all: a kernel's exception is raised only after
        the barrier, with the shard named in a note."""
        contexts = self._contexts
        contexts[-1].hi = self.state.capacity  # churn may have grown the state
        kernel = DISPATCH[command]
        start = perf_counter_ns()
        futures = []
        if len(contexts) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(contexts) - 1, thread_name_prefix=THREAD_PREFIX
                )
            futures = [
                self._pool.submit(_run_shard, kernel, ctx, payload)
                for ctx, payload in zip(contexts[1:], payloads[1:])
            ]
        own = _run_shard(kernel, contexts[0], payloads[0], start)
        outcomes = [own] + [future.result() for future in futures]
        results, busy, ends, errors = zip(*outcomes)
        for shard, error in enumerate(errors):
            if error is not None:
                # A note (PEP 678), not new args: the exception's own
                # data (errno, key, ...) stays what the kernel raised.
                error.__notes__ = getattr(error, "__notes__", []) + [
                    f"command {command!r} failed on shard {shard} of {len(errors)}"
                ]
                raise error
        if self._telemetry.enabled:
            # The dispatch span ends when the slowest shard does, so a
            # shard's wait is the skew between the threads (none with
            # one worker).
            self._telemetry.book_command(
                command,
                start,
                max(ends) - start,
                [(shard, {"kernel": [ns, 1]}) for shard, ns in enumerate(busy)],
            )
        return list(results)

    def compact(self, decision) -> None:
        compact_state(self.state, decision)
        self._split()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
