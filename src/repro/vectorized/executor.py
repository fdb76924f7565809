"""The in-process executor: the bulk cycle's commands, run right here.

An *executor* is what a bulk simulation dispatches its cycle through
(:mod:`repro.vectorized.cycle`): ``run(command, payloads)`` (or
``run_async`` + ``collect``) executes one kernel of
:data:`repro.vectorized.kernels.DISPATCH` on every shard and returns
the per-shard replies, ``bounds`` lists the shards' ``(lo, hi)`` row
ranges, and ``scratch`` holds the named buffers that carry planned
blocks to the kernels and proposals back.  This one is what
``backend="vectorized"`` runs on: a single shard spanning the whole
state, kernels called directly, plain arrays for scratch — no pool, no
shared memory.  The pool (:mod:`repro.sharded.driver`) and message
(:mod:`repro.distributed.driver`) executors serve the same surface
across processes.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict

import numpy as np

from repro.vectorized.kernels import DISPATCH, ShardContext

__all__ = ["InlineScratch", "InlineExecutor"]


class InlineScratch:
    """Named grow-on-demand scratch buffers as plain arrays."""

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def ensure(self, name: str, dtype, size: int) -> np.ndarray:
        """An array named ``name`` with at least ``size`` elements."""
        array = self._arrays.get(name)
        if array is not None and len(array) >= size and array.dtype == dtype:
            return array
        new_size = max(int(size), 1024)
        if array is not None:
            new_size = max(new_size, 2 * len(array))
        array = np.empty(new_size, dtype=dtype)
        self._arrays[name] = array
        return array

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]


class InlineExecutor:
    """Single-shard executor running the kernels in the calling
    process.  The shard always spans the state's *current* capacity:
    nothing here pins the arrays, so the state stays free to grow."""

    def __init__(self, state, geometry, telemetry) -> None:
        self.scratch = InlineScratch()
        self._telemetry = telemetry
        self._ctx = ShardContext(state, 0, state.capacity, geometry, self.scratch)

    @property
    def bounds(self) -> list:
        return [(0, self._ctx.state.capacity)]

    def run(self, command: str, payloads) -> list:
        return self.collect(self.run_async(command, payloads))

    def run_async(self, command: str, payloads):
        """Inline execution is synchronous: the "in-flight" handle is
        the finished result plus its timing, booked at collect time so
        the plan/apply pipelining call pattern works unchanged."""
        ctx = self._ctx
        ctx.hi = ctx.state.capacity  # churn may have grown the state
        telemetry = self._telemetry
        if not telemetry.enabled:
            return (command, [DISPATCH[command](ctx, **payloads[0])], None)
        start = perf_counter_ns()
        result = [DISPATCH[command](ctx, **payloads[0])]
        span_ns = perf_counter_ns() - start
        return (command, result, (start, span_ns))

    def collect(self, pending) -> list:
        command, result, timing = pending
        if timing is not None:
            telemetry = self._telemetry
            start, span_ns = timing
            telemetry.add_span("cmd:" + command, span_ns, start_ns=start)
            telemetry.add_worker_spans(
                0, "cmd:" + command, {"kernel": [span_ns, 1]},
                dispatch_ns=span_ns, start_ns=start,
            )
            telemetry.count("commands", 1)
            telemetry.count("barriers", 1)
            telemetry.count("worker_kernel_ns", span_ns)
            telemetry.count("barrier_wait_ns", 0)
        return result
