"""Deterministic random-number management for simulations.

Every stochastic component of a simulation (peer sampling, churn,
protocol decisions, message loss, attribute generation, ...) draws
from its own *named substream*, derived deterministically from a single
experiment seed.  This gives two properties that matter for reproducing
a paper:

* **Reproducibility** — a run is fully determined by one integer seed.
* **Variance isolation** — changing one component (say, the churn model)
  does not perturb the random draws of the others, so A/B comparisons
  between algorithm variants observe exactly the same environment.

The implementation derives substream seeds by hashing ``(root_seed,
stream_name)`` with SHA-256, which is stable across Python processes and
versions (unlike the built-in ``hash``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, Optional

__all__ = ["derive_seed", "RandomSource"]


def derive_seed(root_seed: int, stream_name: str) -> int:
    """Derive a stable 64-bit seed for ``stream_name`` from ``root_seed``.

    The derivation uses SHA-256 over the textual representation of the
    root seed and the stream name, so it is stable across processes,
    platforms and Python versions.

    >>> derive_seed(42, "churn") == derive_seed(42, "churn")
    True
    >>> derive_seed(42, "churn") != derive_seed(42, "sampling")
    True
    """
    digest = hashlib.sha256(f"{root_seed}:{stream_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomSource:
    """A tree of named, deterministic random substreams.

    A :class:`RandomSource` wraps one root seed and hands out
    :class:`random.Random` instances keyed by name.  Repeated requests
    for the same name return the *same* generator object, so state
    advances continuously within a stream.

    Example
    -------
    >>> src = RandomSource(seed=7)
    >>> churn_rng = src.stream("churn")
    >>> protocol_rng = src.stream("protocol")
    >>> churn_rng is src.stream("churn")
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this source was built from."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) generator for substream ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self._seed, name))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RandomSource":
        """Create a child :class:`RandomSource` rooted under ``name``.

        Useful to give a whole subsystem (e.g. one simulated node) its
        own namespace of substreams.
        """
        return RandomSource(derive_seed(self._seed, name))

    def fork_per_item(self, name: str, count: int) -> Iterator[random.Random]:
        """Yield ``count`` independent generators under ``name``.

        Handy for assigning one private generator per node without any
        cross-node correlation.
        """
        for index in range(count):
            yield random.Random(derive_seed(self._seed, f"{name}:{index}"))

    def stream_names(self) -> list:
        """Names of all substreams instantiated so far (sorted)."""
        return sorted(self._streams)

    def reset(self, name: Optional[str] = None) -> None:
        """Reset one substream (or all of them) to its initial state."""
        if name is None:
            self._streams.clear()
        else:
            self._streams.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self._seed}, streams={self.stream_names()})"
