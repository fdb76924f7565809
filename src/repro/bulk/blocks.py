"""The block rule of the bulk backends: wherever state is derived,
moved or worked on row by row — bootstrap fill, replication, sync,
migration and compaction, and the row-local kernels of the cycle — one
:data:`BLOCK_BYTES` block of what the step costs per row at a time, so
no step holds a second copy of the state (``docs/ARCHITECTURE.md``,
"Memory budget").

A step states that cost once, beside its loop, as ``row_bytes``: a step
that moves one column's rows and nothing else passes that row's bytes
(``column.strides[0]``); a kernel passes the bytes of temporaries one
row costs it — gathers, keys, masks, products — from the view size and
its dtypes, so a block of a kernel is a block of *its* memory, not of
the column it walks.  It lives in the plan layer so that both the
plan's compaction and the backends' kernels import the one constant.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

__all__ = ["BLOCK_BYTES", "block_rows", "row_blocks", "index_blocks"]

#: Bytes per block — the only block-size constant in the tree.
BLOCK_BYTES = 4 << 20


def block_rows(row_bytes: int) -> int:
    """Rows per block of a step costing ``row_bytes`` per row: what fits
    :data:`BLOCK_BYTES` (read at call time), at least one."""
    return max(1, BLOCK_BYTES // row_bytes)


def row_blocks(row_bytes: int, lo: int, hi: int) -> List[Tuple[int, int]]:
    """The ascending ``(start, stop)`` spans that tile rows ``[lo, hi)``
    in blocks of :func:`block_rows` rows."""
    step = block_rows(row_bytes)
    return [(start, min(start + step, hi)) for start in range(lo, hi, step)]


def index_blocks(row_bytes: int, rows, count: int) -> Iterator[tuple]:
    """``(a, b, rows[a:b])`` over a row index naming ``count`` rows — a
    slice or an id array, as :func:`~repro.vectorized.state.row_index`
    returns — in blocks of :func:`block_rows` rows: the one loop a
    row-local kernel runs its passes in, ``a:b`` cutting whatever rides
    along per row."""
    for a, b in row_blocks(row_bytes, 0, count):
        if isinstance(rows, slice):
            yield a, b, slice(rows.start + a, rows.start + b)
        else:
            yield a, b, rows[a:b]
