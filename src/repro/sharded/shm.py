"""Shared-memory plumbing for the sharded backend.

Two kinds of buffers cross the process boundary:

* **state blocks** — the :class:`~repro.vectorized.state.ArrayState`
  columns, allocated once at construction and mapped by every worker,
  so per-cycle work never pickles node state;
* **scratch buffers** — named, grow-on-demand arrays carrying one
  cycle's *plan* (centrally drawn random blocks, proposal lists,
  exchange waves) between the driver and the workers.  A scratch
  buffer that outgrows its allocation is replaced by a larger shared
  segment and re-attached lazily: the replacement rides along with the
  next command broadcast (:meth:`SharedScratch.take_remaps`), so no
  extra synchronization round is needed.

The driver process owns every segment and unlinks them on close;
workers only map and unmap.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.vectorized.executor import grown_size

__all__ = ["SharedBlock", "SharedScratch", "WorkerScratch", "ReleasedState"]


class SharedBlock:
    """One shared-memory segment viewed as a numpy array."""

    def __init__(self, shape, dtype, name: str = None, create: bool = True):
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        if create:
            self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        else:
            self.shm = shared_memory.SharedMemory(name=name)
        self.array = np.ndarray(shape, dtype=dtype, buffer=self.shm.buf)
        self.shape = tuple(shape)
        self.dtype = dtype
        self.owner = create

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        # Drop the array view first: SharedMemory.close() refuses while
        # exported buffers are alive.
        self.array = None
        self.shm.close()
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class ReleasedState:
    """What a pool simulation's ``state`` becomes at ``close()``: the
    columns lived in segments that are now unmapped, so every read
    raises instead of touching freed pages."""

    def __getattr__(self, name: str):
        raise RuntimeError(
            "this sharded simulation is closed and its shared-memory state "
            f"released (reading {name!r}); read what you need before close()"
        )

    @classmethod
    def take_over(cls, state) -> None:
        """Turn ``state`` itself into a released one, so every holder of
        the object — the simulation, a caller's local alias — gets the
        error, not only reads that go through one attribute path."""
        state.__dict__.clear()
        state.__class__ = cls


class SharedScratch:
    """Driver-side named scratch buffers (grow-on-demand)."""

    def __init__(self) -> None:
        self._blocks: Dict[str, SharedBlock] = {}
        self._remaps: List[Tuple[str, str, tuple, str]] = []

    def ensure(self, name: str, dtype, size: int) -> np.ndarray:
        """An array named ``name`` with at least ``size`` elements."""
        block = self._blocks.get(name)
        if block is not None and block.shape[0] >= size and block.dtype == dtype:
            return block.array
        new_size = grown_size(size, 0 if block is None else block.shape[0])
        if block is not None:
            block.close()
        block = SharedBlock((new_size,), dtype)
        self._blocks[name] = block
        self._remaps.append((name, block.name, block.shape, block.dtype.str))
        return block.array

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name].array

    def take_remaps(self) -> List[Tuple[str, str, tuple, str]]:
        """Re-attachment notices accumulated since the last broadcast."""
        remaps, self._remaps = self._remaps, []
        return remaps

    def close(self) -> None:
        for block in self._blocks.values():
            block.close()
        self._blocks.clear()


class WorkerScratch:
    """Worker-side mirror of :class:`SharedScratch`: maps segments by
    name as remap notices arrive."""

    def __init__(self) -> None:
        self._blocks: Dict[str, SharedBlock] = {}

    def apply_remaps(self, remaps) -> None:
        for name, shm_name, shape, dtype in remaps:
            old = self._blocks.get(name)
            if old is not None:
                old.close()
            self._blocks[name] = SharedBlock(
                shape, dtype, name=shm_name, create=False
            )

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name].array

    def close(self) -> None:
        for block in self._blocks.values():
            block.close()
        self._blocks.clear()
