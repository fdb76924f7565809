"""Backend protocol and registry for the slicing service.

:class:`~repro.core.service.SlicingService` fronts several simulation
engines.  This module is the seam between them: a structural
:class:`SimulationBackend` protocol naming the surface every engine
serves, and a :class:`BackendSpec` registry replacing ad-hoc
``if backend == ...`` dispatch — adding an engine (the ROADMAP's GPU
or multi-host backends) means registering one spec, not editing the
service.

Every backend serves every protocol of the one table of policy axes
(:data:`PROTOCOLS`, :data:`SAMPLERS`) and every concurrency regime
(the bulk backends model message overlap in batched form,
:mod:`repro.bulk.concurrency`); the specs differ in how they execute —
single-process object-per-node, single-process numpy, or numpy on
worker threads / processes — and therefore in which ``workers`` values
(and samplers) they accept.  :func:`create_simulation` is the one path
from flat run options to a validated, running engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.bulk.faults import build_fault_model
from repro.bulk.rebalance import validate_rebalance_knobs
from repro.core.ordering import (
    SELECTION_MAX_GAIN,
    SELECTION_RANDOM,
    SELECTION_RANDOM_MISPLACED,
    OrderingProtocol,
)
from repro.core.ranking import DEFAULT_WINDOW, RankingProtocol
from repro.core.slices import SlicePartition
from repro.engine.network import ConcurrencyModel
from repro.engine.simulator import CycleSimulation
from repro.obs.telemetry import telemetry_from_options
from repro.sampling.cyclon import CyclonSampler
from repro.sampling.cyclon_variant import CyclonVariantSampler
from repro.sampling.newscast import NewscastSampler
from repro.sampling.uniform import UniformOracleSampler

__all__ = [
    "SimulationBackend",
    "BackendSpec",
    "register_backend",
    "get_backend",
    "backend_names",
    "supported_combinations",
    "create_simulation",
    "slicer_factory",
    "PROTOCOLS",
    "SAMPLERS",
    "protocol_policy",
    "sampler_policy",
]


class ProtocolPolicy(NamedTuple):
    """A protocol's ``family`` (ordering, Section 4, or ranking, 5), its
    partner ``selection`` (Fig. 2) and whether it keeps a ``window`` (5.3)."""

    family: str
    selection: str | None = None
    window: bool = False

    def window_length(self, window: int | None) -> int | None:
        """A run's window: ``None`` without one, ``DEFAULT_WINDOW`` if unset."""
        if not self.window:
            return None
        return DEFAULT_WINDOW if window is None else window


class SamplerPolicy(NamedTuple):
    """A sampler's reference-engine class and the backends serving it."""

    reference_class: type
    backends: Tuple[str, ...]


_EVERY_BACKEND = ("reference", "vectorized", "sharded", "distributed")

#: The protocol axis, by the name every engine accepts.
PROTOCOLS: Dict[str, ProtocolPolicy] = {
    "jk": ProtocolPolicy("ordering", SELECTION_RANDOM),
    "mod-jk": ProtocolPolicy("ordering", SELECTION_MAX_GAIN),
    "random-misplaced": ProtocolPolicy("ordering", SELECTION_RANDOM_MISPLACED),
    "ranking": ProtocolPolicy("ranking"),
    "ranking-window": ProtocolPolicy("ranking", window=True),
}

#: The sampler axis (Fig. 6(b)), by name.
SAMPLERS: Dict[str, SamplerPolicy] = {
    "cyclon-variant": SamplerPolicy(CyclonVariantSampler, _EVERY_BACKEND),
    "cyclon": SamplerPolicy(CyclonSampler, ("reference",)),
    "newscast": SamplerPolicy(NewscastSampler, ("reference",)),
    "uniform": SamplerPolicy(UniformOracleSampler, _EVERY_BACKEND),
}


def protocol_policy(name: str) -> ProtocolPolicy:
    """The :data:`PROTOCOLS` row of ``name``; any other name raises."""
    if name not in PROTOCOLS:
        known = tuple(PROTOCOLS)
        raise ValueError(f"unknown protocol {name!r}; expected one of {known}")
    return PROTOCOLS[name]


def sampler_policy(name: str, backend: str) -> SamplerPolicy:
    """The :data:`SAMPLERS` row of ``name`` if ``backend`` serves it;
    otherwise raise, naming the supported combinations."""
    policy = SAMPLERS.get(name)
    if policy is None or backend not in policy.backends:
        message = f"backend={backend!r} does not serve sampler={name!r}"
        raise ValueError(message + _supported_suffix())
    return policy


@runtime_checkable
class SimulationBackend(Protocol):
    """The engine surface: everything the service and generic tooling
    (collectors, figures, sweeps, churn models) call on an engine.
    :class:`~repro.engine.simulator.CycleSimulation` serves it from
    per-node objects, :class:`~repro.vectorized.simulation.VectorSimulation`
    (and the sharded and distributed constructors of it) from arrays;
    no caller checks which one it has.  A new query lands on both."""

    partition: SlicePartition
    telemetry: object

    @property
    def now(self) -> int: ...

    @property
    def live_count(self) -> int: ...

    @property
    def bus_stats(self): ...

    def run_cycle(self) -> None: ...

    def run(self, cycles: int, collectors=()) -> None: ...

    def live_nodes(self): ...

    def node(self, node_id: int): ...

    def add_node(self, attribute: float): ...

    def remove_node(self, node_id: int) -> None: ...

    def slice_assignment(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, slices)``: live ids ascending, each one's slice."""

    def slice_sizes(self) -> List[int]: ...

    def slice_disorder(self) -> float: ...

    def global_disorder(self) -> float: ...

    def accuracy(self) -> float: ...

    def confident_fraction(self, confidence: float = 0.95) -> float: ...

    def close(self) -> None: ...


@dataclass(frozen=True)
class BackendSpec:
    """One registered simulation engine.

    ``factory`` receives the engine options :func:`create_simulation`
    resolved — ``size``, ``partition``, ``protocol``, ``churn``,
    ``faults``, ``telemetry`` and every other run option under its own
    name — and returns a ready :class:`SimulationBackend`.
    ``multiprocess`` states whether the engine accepts ``workers > 1``;
    ``rebalances`` whether it serves the plan-driven dead-row
    compaction knobs (:mod:`repro.bulk.rebalance`); ``remote_hosts``
    whether it accepts a ``hosts=["host:port", ...]`` list of
    pre-started remote workers (the distributed backend's multi-host
    mode); ``fault_models`` whether it serves the full plan-level
    :class:`~repro.bulk.faults.FaultModel` (loss including 1.0, delay
    distributions, transient partitions) — the reference engine only
    models per-message loss below 1.0 through its message bus.
    """

    name: str
    summary: str
    factory: Callable[..., SimulationBackend]
    multiprocess: bool = False
    rebalances: bool = False
    remote_hosts: bool = False
    fault_models: bool = False

    def validate(
        self,
        protocol=None,
        sampler=None,
        concurrency="none",
        workers=None,
        rebalance_every=None,
        rebalance_threshold=None,
        hosts=None,
        faults=None,
        **_unconstrained,
    ) -> None:
        """Fail fast on parameters this backend cannot serve, naming
        the supported combinations.  The whole engine option set may be
        passed (:meth:`create` does); options no capability constrains
        are left to the engine."""
        if protocol is not None:
            protocol_policy(protocol)
        if sampler is not None:
            sampler_policy(sampler, self.name)
        # Every backend shares the reference spec grammar for the
        # paper's concurrency regimes; malformed specs die here.
        ConcurrencyModel.from_spec(concurrency)
        if workers is not None:
            if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
                raise ValueError(
                    f"workers must be a positive integer or None, got "
                    f"{workers!r}" + _supported_suffix()
                )
            if workers != 1 and not self.multiprocess:
                raise ValueError(
                    f"backend={self.name!r} is single-process, but "
                    f"workers={workers} was requested — parallel "
                    "execution needs backend='sharded' or 'distributed'"
                    + _supported_suffix()
                )
        if hosts is not None:
            if not self.remote_hosts:
                raise ValueError(
                    f"backend={self.name!r} does not accept hosts= — "
                    "remote workers need backend='distributed'"
                    + _supported_suffix()
                )
            hosts = list(hosts)
            if not hosts:
                raise ValueError(
                    "hosts must name at least one 'host:port' worker"
                )
            if workers is not None and workers != len(hosts):
                raise ValueError(
                    f"workers={workers} disagrees with the {len(hosts)} "
                    "hosts given; pass one or the other"
                )
        validate_rebalance_knobs(rebalance_every, rebalance_threshold)
        if (rebalance_every is not None or rebalance_threshold is not None) and (
            not self.rebalances
        ):
            raise ValueError(
                f"backend={self.name!r} does not support live-load "
                "rebalancing (rebalance_every / rebalance_threshold) — "
                "dead-row compaction is a bulk-backend feature"
                + _supported_suffix()
            )
        if faults is not None and faults.enabled and not self.fault_models:
            if faults.delay > 0 or faults.partitions:
                raise ValueError(
                    f"backend={self.name!r} models per-message loss only "
                    "— delay distributions and transient partitions are "
                    "plan-level fault features of the bulk backends"
                    + _supported_suffix()
                )
            if faults.loss >= 1.0:
                raise ValueError(
                    f"backend={self.name!r} requires loss < 1.0 (its "
                    "message bus rejects certain loss); loss=1.0 needs a "
                    "bulk backend" + _supported_suffix()
                )

    def create(self, **options) -> SimulationBackend:
        """Validate ``options`` against this backend's capabilities,
        then build the engine from the ones that are set: ``None``
        means "unset" for every run option, so it is left to the
        engine's own default and a factory never has to swallow an
        option its engine does not have."""
        self.validate(**options)
        return self.factory(
            **{name: value for name, value in options.items() if value is not None}
        )


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Add (or replace) a backend in the registry."""
    _REGISTRY[spec.name] = spec
    return spec


def backend_names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def get_backend(name: str) -> BackendSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(repr(known_name) for known_name in _REGISTRY)
        raise ValueError(f"unknown backend {name!r}; expected one of {known}")
    return spec


def supported_combinations() -> Tuple[str, ...]:
    """Human-readable capability lines, quoted by validation errors."""
    lines = []
    for spec in _REGISTRY.values():
        samplers = "/".join(n for n, p in SAMPLERS.items() if spec.name in p.backends)
        workers = "None or any N >= 1" if spec.multiprocess else "None or 1"
        rebalancing = ", rebalancing" if spec.rebalances else ""
        hosts = ", hosts=[...]" if spec.remote_hosts else ""
        faults = ", loss/delay/partition faults" if spec.fault_models else ""
        lines.append(
            f"backend={spec.name!r}: sampler={samplers}, any concurrency, "
            f"workers={workers}{rebalancing}{hosts}{faults} ({spec.summary})"
        )
    return tuple(lines)


def _supported_suffix() -> str:
    return "; supported combinations:\n  " + "\n  ".join(supported_combinations())


# ----------------------------------------------------------------------
# The one construction path
# ----------------------------------------------------------------------


def create_simulation(
    backend: str,
    *,
    telemetry=None,
    loss: float = 0.0,
    delay=None,
    partitions=None,
    **options,
) -> SimulationBackend:
    """Build the engine ``backend`` names from flat run options.

    The single path from option values to a running engine, shared by
    :func:`repro.experiments.config.build_simulation` and
    :class:`~repro.core.service.SlicingService`: the observability
    options become a telemetry object
    (:func:`~repro.obs.telemetry.telemetry_from_options`), ``loss`` /
    ``delay`` / ``partitions`` become a
    :class:`~repro.bulk.faults.FaultModel`, and
    :meth:`BackendSpec.create` validates what is left against the
    backend's capabilities before its factory receives it.  Callers
    translate only their own vocabulary (a slice count into a
    ``partition``, a churn shorthand into a model) and pass everything
    else through by name, so a new engine option needs no edit here.
    """
    spec = get_backend(backend)
    faults = build_fault_model(loss=loss, delay=delay, partition=partitions)
    telemetry, options = telemetry_from_options(telemetry, engine=backend, **options)
    return spec.create(faults=faults, telemetry=telemetry, **options)


# ----------------------------------------------------------------------
# The built-in backends
# ----------------------------------------------------------------------


def slicer_factory(
    partition, protocol: str, window=None, boundary_bias: bool = True
) -> Callable:
    """Per-node protocol factory for the reference engine: the slicer
    a protocol name (one of :data:`PROTOCOLS`) stands for."""
    policy = protocol_policy(protocol)
    if policy.family == "ordering":
        return lambda: OrderingProtocol(partition, selection=policy.selection)
    window = policy.window_length(window)
    return lambda: RankingProtocol(partition, window, boundary_bias)


def _reference_factory(
    *,
    partition,
    protocol,
    view_size,
    window=None,
    boundary_bias=True,
    sampler="cyclon-variant",
    faults=None,
    workers=None,
    **engine_options,
):
    # ``workers`` can only be 1 here and means nothing to a
    # single-process engine; a fault model that survived validate()
    # carries loss only, which maps onto the reference message bus.
    sampler_class = SAMPLERS[sampler].reference_class
    return CycleSimulation(
        partition=partition,
        slicer_factory=slicer_factory(partition, protocol, window, boundary_bias),
        sampler_factory=lambda node_id: sampler_class(node_id, view_size),
        view_size=view_size,
        loss_probability=faults.loss if faults is not None else 0.0,
        **engine_options,
    )


def _vectorized_factory(*, workers=None, **engine_options):
    from repro.vectorized import VectorSimulation

    return VectorSimulation(**engine_options)


def _sharded_factory(**engine_options):
    from repro.sharded import ShardedSimulation

    return ShardedSimulation(**engine_options)


def _distributed_factory(**engine_options):
    from repro.distributed import DistributedSimulation

    return DistributedSimulation(**engine_options)


register_backend(
    BackendSpec(
        name="reference",
        summary="object-per-node cycle engine, ~10^4 nodes",
        factory=_reference_factory,
    )
)
register_backend(
    BackendSpec(
        name="vectorized",
        summary="numpy bulk engine, ~10^6 nodes",
        factory=_vectorized_factory,
        rebalances=True,
        fault_models=True,
    )
)
register_backend(
    BackendSpec(
        name="sharded",
        summary="numpy bulk engine on worker threads, ~10^7 nodes",
        factory=_sharded_factory,
        multiprocess=True,
        rebalances=True,
        fault_models=True,
    )
)
register_backend(
    BackendSpec(
        name="distributed",
        summary="multi-host message-transport engine (TCP/loopback)",
        factory=_distributed_factory,
        multiprocess=True,
        rebalances=True,
        remote_hosts=True,
        fault_models=True,
    )
)
