"""Simulation substrate: the cycle engine, transport, clock, RNG, tracing."""

from repro.engine.clock import CycleClock
from repro.engine.network import BusStats, ConcurrencyModel, Message, MessageBus
from repro.engine.node import Node
from repro.engine.random_source import RandomSource, derive_seed
from repro.engine.simulator import CycleSimulation
from repro.engine.trace import NULL_TRACE, TraceEvent, TraceLog

__all__ = [
    "CycleClock",
    "BusStats",
    "ConcurrencyModel",
    "Message",
    "MessageBus",
    "Node",
    "RandomSource",
    "derive_seed",
    "CycleSimulation",
    "NULL_TRACE",
    "TraceEvent",
    "TraceLog",
]
