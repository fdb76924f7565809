"""Message transport for the cycle-based engine.

The paper's simulations are *cycle-based*: in the default model every
message exchange is atomic (Section 4.5, "all messages exchanges are
atomic, so messages never overlap").  Section 4.5.2 then artificially
introduces concurrency: a message may be an *overlapping message*, i.e.
it carries the sender's state at send time but is only applied against
the receiver's state after other exchanges of the same cycle may have
modified it.  Two regimes are studied:

* **half concurrency** — each message overlaps with probability 1/2;
* **full concurrency** — every message of a cycle overlaps.

:class:`MessageBus` reproduces this exactly.  A non-overlapping message
is delivered synchronously (recursively, so a REQ's ACK is also
processed inline — an atomic exchange).  An overlapping message is
queued; the simulator calls :meth:`flush` after all active threads of
the cycle have run, delivering queued messages in random order.  A
reply generated while flushing is itself re-evaluated for overlap, so
under full concurrency *all* REQs of a cycle are delivered before any
ACK, matching "all messages are overlapping messages".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.trace import NULL_TRACE, TraceLog

__all__ = ["Message", "ConcurrencyModel", "MessageBus", "BusStats"]


@dataclass(frozen=True)
class Message:
    """An in-flight protocol message.

    Payload contents are protocol-specific tuples; they capture the
    *sender's state at send time*, which is what makes overlapping
    messages able to become stale ("useless" in the paper's terms).
    """

    sender: int
    receiver: int
    kind: str
    payload: Tuple
    send_time: int


class ConcurrencyModel:
    """Probability model for overlapping messages.

    ``probability`` is the chance that a given message is an
    overlapping message.  The paper's three regimes map to 0.0
    (:meth:`none`), 0.5 (:meth:`half`) and 1.0 (:meth:`full`).
    """

    __slots__ = ("probability",)

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability

    @classmethod
    def none(cls) -> "ConcurrencyModel":
        """Atomic exchanges — the paper's base cycle model."""
        return cls(0.0)

    @classmethod
    def half(cls) -> "ConcurrencyModel":
        """Each message overlaps with probability 1/2."""
        return cls(0.5)

    @classmethod
    def full(cls) -> "ConcurrencyModel":
        """Every message of a cycle is an overlapping message."""
        return cls(1.0)

    @classmethod
    def from_spec(cls, spec) -> "ConcurrencyModel":
        """Build from ``'none'``/``'half'``/``'full'``, a float, or self."""
        if isinstance(spec, ConcurrencyModel):
            return spec
        if isinstance(spec, str):
            try:
                return {"none": cls.none, "half": cls.half, "full": cls.full}[spec]()
            except KeyError:
                raise ValueError(f"unknown concurrency spec: {spec!r}") from None
        return cls(float(spec))

    def overlaps(self, rng: random.Random) -> bool:
        """Sample whether one message is an overlapping message."""
        if self.probability <= 0.0:
            return False
        if self.probability >= 1.0:
            return True
        return rng.random() < self.probability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConcurrencyModel(probability={self.probability})"


class BusStats:
    """Counters maintained by the bus, cumulative and per-cycle.

    ``sent``/``delivered``/``dropped`` count raw messages; ``per_kind``
    breaks ``sent`` down by message kind.  The swap-accounting counters
    (``intended_swaps``, ``unsuccessful_swaps``) are incremented by the
    *protocols* (the bus only stores them) and feed Figure 4(c).
    """

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.lost = 0
        self.overlapping = 0
        self.per_kind: Dict[str, int] = {}
        self.intended_swaps = 0
        self.unsuccessful_swaps = 0
        # Per-cycle snapshots (reset by the simulator between cycles).
        self.cycle_intended = 0
        self.cycle_unsuccessful = 0

    def note_sent(self, kind: str, overlapped: bool) -> None:
        self.sent += 1
        if overlapped:
            self.overlapping += 1
        self.per_kind[kind] = self.per_kind.get(kind, 0) + 1

    def note_intended_swap(self) -> None:
        self.intended_swaps += 1
        self.cycle_intended += 1

    def note_unsuccessful_swap(self) -> None:
        self.unsuccessful_swaps += 1
        self.cycle_unsuccessful += 1

    def begin_cycle(self) -> None:
        """Reset the per-cycle swap counters."""
        self.cycle_intended = 0
        self.cycle_unsuccessful = 0

    def cycle_unsuccessful_ratio(self) -> float:
        """Fraction of this cycle's intended swaps that failed (0 if none)."""
        if self.cycle_intended == 0:
            return 0.0
        return self.cycle_unsuccessful / self.cycle_intended

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BusStats(sent={self.sent}, delivered={self.delivered}, "
            f"dropped={self.dropped}, overlapping={self.overlapping})"
        )


class MessageBus:
    """Cycle-model message transport with optional overlapping messages.

    Parameters
    ----------
    deliver:
        Callback ``deliver(message) -> None`` that routes a message to
        the receiving node's passive thread.  Supplied by the simulator.
    rng:
        Random stream used for overlap sampling and queue shuffling.
    concurrency:
        A :class:`ConcurrencyModel` (or spec accepted by
        :meth:`ConcurrencyModel.from_spec`).
    is_alive:
        Callback ``is_alive(node_id) -> bool``; messages to dead nodes
        are counted as dropped, mirroring churn losing in-flight traffic.
    loss_probability:
        Independent per-message loss (extension; the paper assumes
        reliable links).  A lost ordering ACK leaves a one-sided swap —
        exactly the hazard concurrency creates — so this knob doubles
        as a fault-injection tool for the robustness tests.
    """

    def __init__(
        self,
        deliver: Callable[[Message], None],
        rng: random.Random,
        concurrency="none",
        is_alive: Optional[Callable[[int], bool]] = None,
        trace: TraceLog = NULL_TRACE,
        loss_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        self._deliver = deliver
        self._rng = rng
        self.concurrency = ConcurrencyModel.from_spec(concurrency)
        self._is_alive = is_alive if is_alive is not None else (lambda _node_id: True)
        self._trace = trace
        self.loss_probability = loss_probability
        self._queue: List[Message] = []
        self.stats = BusStats()

    def send(self, message: Message) -> None:
        """Send ``message``; deliver inline unless it overlaps."""
        overlapped = self.concurrency.overlaps(self._rng)
        self.stats.note_sent(message.kind, overlapped)
        self._trace.record(
            message.send_time,
            "send",
            message.sender,
            (message.kind, message.receiver, overlapped),
        )
        if self.loss_probability > 0.0 and self._rng.random() < self.loss_probability:
            self.stats.lost += 1
            self._trace.record(
                message.send_time, "loss", message.sender, (message.kind,)
            )
            return
        if overlapped:
            self._queue.append(message)
        else:
            self._dispatch(message)

    def flush(self) -> int:
        """Deliver all queued (overlapping) messages; return the count.

        Queued messages are delivered in batches: the current queue is
        shuffled and drained, and any messages generated during those
        deliveries (e.g. ACK replies) form the next batch.  Under full
        concurrency this yields the paper's semantics: every message of
        a round is sent before any is received.
        """
        delivered = 0
        while self._queue:
            batch, self._queue = self._queue, []
            self._rng.shuffle(batch)
            for message in batch:
                self._dispatch(message)
                delivered += 1
        return delivered

    def pending(self) -> int:
        """Number of queued, not yet delivered messages."""
        return len(self._queue)

    def _dispatch(self, message: Message) -> None:
        if not self._is_alive(message.receiver):
            self.stats.dropped += 1
            self._trace.record(
                message.send_time, "drop", message.receiver, (message.kind,)
            )
            return
        self.stats.delivered += 1
        self._deliver(message)
