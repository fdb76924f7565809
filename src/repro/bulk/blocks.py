"""The block rule of the bulk backends: wherever state is derived,
moved or worked on row by row — bootstrap fill, replication, sync,
migration and compaction, and the row-local kernels of the cycle — one
column, one :data:`BLOCK_BYTES` block of whole rows at a time, so no
step holds a second copy of the state (``docs/ARCHITECTURE.md``,
"Memory budget").  It lives in the plan layer so that both the plan's
compaction and the backends' kernels import the one constant.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["BLOCK_BYTES", "block_rows", "row_blocks", "index_blocks"]

#: Bytes per block — the only block-size constant in the tree.
BLOCK_BYTES = 4 << 20


def block_rows(column: np.ndarray) -> int:
    """Whole rows of ``column`` per block: what fits :data:`BLOCK_BYTES`,
    at least one."""
    return max(1, BLOCK_BYTES // column.strides[0])


def row_blocks(column: np.ndarray, lo: int, hi: int) -> List[Tuple[int, int]]:
    """The ascending ``(start, stop)`` spans that tile rows ``[lo, hi)``
    of ``column`` in blocks of :func:`block_rows` rows."""
    step = block_rows(column)
    return [(start, min(start + step, hi)) for start in range(lo, hi, step)]


def index_blocks(column: np.ndarray, rows, count: int) -> Iterator[tuple]:
    """``(a, b, rows[a:b])`` over a row index naming ``count`` rows of
    ``column`` — a slice or an id array, as :func:`~repro.vectorized.
    state.row_index` returns — in blocks of :func:`block_rows` rows:
    the one loop a row-local kernel runs its passes in, ``a:b`` cutting
    whatever rides along per row."""
    for a, b in row_blocks(column, 0, count):
        if isinstance(rows, slice):
            yield a, b, slice(rows.start + a, rows.start + b)
        else:
            yield a, b, rows[a:b]
