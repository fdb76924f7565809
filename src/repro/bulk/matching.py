"""Conflict-free scheduling of batched pairwise exchanges.

The reference engine processes nodes *sequentially* in a random
permutation: a node's exchange completes atomically before the next
node fires, and a node may answer several requests in one cycle.  A
vectorized round processes every node at once, so two exchanges
touching the same node would race.

:func:`iter_disjoint_waves` restores the sequential semantics without
giving up batching: the full proposal set ``(initiator, target)`` is
split into *waves*, each a node-disjoint matching, and the caller
applies one wave at a time (re-reading current state between waves).
Every proposal is eventually processed, so the cycle performs exactly
the exchanges the protocol asked for — only their interleaving is
scheduled differently, which is the same freedom the random
permutation already exercises.

The per-wave selection is the classic parallel maximal-independent-set
trick: draw a random priority per proposal and keep the proposals that
hold the minimum priority on *both* their endpoints.  The global
minimum always survives, so the loop terminates; in practice a wave
absorbs a large constant fraction of the remaining proposals and a
cycle needs only a handful of waves.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["iter_disjoint_waves"]


def iter_disjoint_waves(
    initiators: np.ndarray,
    targets: np.ndarray,
    extra: np.ndarray,
    rng: np.random.Generator,
    n_rows: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield node-disjoint waves ``(initiators, targets, extra)``
    covering every proposal exactly once.

    ``extra`` is per-proposal payload carried through unchanged (e.g.
    the ordering algorithms' ``intended`` flag).  ``n_rows`` bounds the
    node-id space (the priority table size).
    """
    if len(initiators) != len(targets) or len(initiators) != len(extra):
        raise ValueError("initiators, targets and extra must align")
    best = np.full(n_rows, np.inf)
    while len(initiators):
        priority = rng.random(len(initiators))
        best[initiators] = np.inf
        best[targets] = np.inf
        np.minimum.at(best, initiators, priority)
        np.minimum.at(best, targets, priority)
        take = (priority == best.take(initiators)) & (priority == best.take(targets))
        wave, rest = np.flatnonzero(take), np.flatnonzero(~take)
        yield initiators.take(wave), targets.take(wave), extra.take(wave)
        initiators, targets, extra = (
            column.take(rest) for column in (initiators, targets, extra)
        )
