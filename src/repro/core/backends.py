"""Backend protocol and registry for the slicing service.

:class:`~repro.core.service.SlicingService` fronts several simulation
engines.  This module is the seam between them: a structural
:class:`SimulationBackend` protocol naming the surface every engine
serves, and a :class:`BackendSpec` registry replacing ad-hoc
``if backend == ...`` dispatch — adding an engine (the ROADMAP's GPU
or multi-host backends) means registering one spec, not editing the
service.

Every registered backend supports every algorithm and every
concurrency regime (the bulk backends model the paper's message
overlap in batched form, :mod:`repro.bulk.concurrency`); the specs
differ in how they execute — single-process object-per-node,
single-process numpy, or a multi-process worker pool — and therefore
in which ``workers`` values they accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Protocol, Tuple, runtime_checkable

from repro.bulk.rebalance import validate_rebalance_knobs
from repro.core.ordering import OrderingProtocol
from repro.core.ranking import DEFAULT_WINDOW, RankingProtocol
from repro.engine.network import ConcurrencyModel

__all__ = [
    "SimulationBackend",
    "BackendSpec",
    "register_backend",
    "get_backend",
    "backend_names",
    "supported_combinations",
    "slicer_factory",
]


@runtime_checkable
class SimulationBackend(Protocol):
    """The engine surface the service (and generic tooling — collectors,
    figures, churn models) relies on.  Served by
    :class:`~repro.engine.simulator.CycleSimulation`,
    :class:`~repro.vectorized.simulation.VectorSimulation` and
    :class:`~repro.sharded.ShardedSimulation`; bulk engines additionally
    expose vectorized metric fast paths the service sniffs for."""

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


@dataclass(frozen=True)
class BackendSpec:
    """One registered simulation engine.

    ``factory`` receives the service-level keyword arguments (``size``,
    ``partition``, ``algorithm``, ``window``, ``attributes``,
    ``view_size``, ``concurrency``, ``workers``, ``hosts``, ``churn``,
    ``rebalance_every``, ``rebalance_threshold``, ``seed``,
    ``faults``) and returns a ready :class:`SimulationBackend`.
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
        concurrency,
        workers,
        rebalance_every=None,
        rebalance_threshold=None,
        hosts=None,
        faults=None,
    ) -> None:
        """Fail fast on parameters this backend cannot serve, naming
        the supported combinations."""
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
                    f"workers={workers} was requested — multi-process "
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

    def create(self, **kwargs) -> SimulationBackend:
        return self.factory(**kwargs)


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
        workers = "None or any N >= 1" if spec.multiprocess else "None or 1"
        rebalancing = ", rebalancing" if spec.rebalances else ""
        hosts = ", hosts=[...]" if spec.remote_hosts else ""
        faults = ", loss/delay/partition faults" if spec.fault_models else ""
        lines.append(
            f"backend={spec.name!r}: any concurrency, workers={workers}"
            f"{rebalancing}{hosts}{faults} ({spec.summary})"
        )
    return tuple(lines)


def _supported_suffix() -> str:
    return "; supported combinations:\n  " + "\n  ".join(supported_combinations())


# ----------------------------------------------------------------------
# The built-in backends
# ----------------------------------------------------------------------


def slicer_factory(partition, algorithm: str, window) -> Callable:
    """Per-node protocol factory for the reference engine's service
    algorithms (``ranking`` / ``ranking-window`` / ``ordering``)."""
    if algorithm == "ranking":
        return lambda: RankingProtocol(partition)
    if algorithm == "ranking-window":
        return lambda: RankingProtocol(
            partition, window=window if window is not None else DEFAULT_WINDOW
        )
    if algorithm == "ordering":
        return lambda: OrderingProtocol(partition)
    raise ValueError(
        f"unknown algorithm {algorithm!r}; expected 'ranking', "
        "'ranking-window' or 'ordering'"
    )


def _reference_factory(
    *,
    size,
    partition,
    algorithm,
    window,
    attributes,
    view_size,
    concurrency,
    workers,
    churn,
    seed,
    rebalance_every=None,
    rebalance_threshold=None,
    hosts=None,
    faults=None,
    telemetry=None,
):
    # The rebalance/hosts knobs are rejected for this backend by
    # validate(); they appear here only so spec.create() can pass one
    # kwargs dict.  A fault model that survived validate() carries loss
    # only, which maps onto the reference message bus directly.
    from repro.engine.simulator import CycleSimulation

    return CycleSimulation(
        size=size,
        partition=partition,
        slicer_factory=slicer_factory(partition, algorithm, window),
        attributes=attributes,
        view_size=view_size,
        concurrency=concurrency,
        churn=churn,
        seed=seed,
        loss_probability=faults.loss if faults is not None else 0.0,
        telemetry=telemetry,
    )


def _bulk_kwargs(
    *,
    size,
    partition,
    algorithm,
    window,
    attributes,
    view_size,
    concurrency,
    churn,
    seed,
    telemetry=None,
    **protocol_options,
):
    """Engine kwargs shared by the bulk factories.  ``algorithm`` may
    be a service algorithm (``"ordering"`` maps to the paper's mod-JK)
    or a bulk protocol name directly; extra keywords — the
    protocol-level options the service surface does not expose
    (``boundary_bias``, ``sampler``) — pass through
    to the engine, which validates them."""
    return dict(
        size=size,
        partition=partition,
        protocol={"ordering": "mod-jk"}.get(algorithm, algorithm),
        window=window,
        attributes=attributes,
        view_size=view_size,
        concurrency=concurrency,
        churn=churn,
        seed=seed,
        telemetry=telemetry,
        **protocol_options,
    )


def _vectorized_factory(*, workers, hosts=None, **kwargs):
    from repro.vectorized import VectorSimulation

    return VectorSimulation(**_bulk_kwargs(**kwargs))


def _sharded_factory(*, workers, hosts=None, **kwargs):
    from repro.sharded import ShardedSimulation

    return ShardedSimulation(workers=workers, **_bulk_kwargs(**kwargs))


def _distributed_factory(*, workers, hosts=None, **kwargs):
    from repro.distributed import DistributedSimulation

    return DistributedSimulation(
        workers=workers, hosts=hosts, **_bulk_kwargs(**kwargs)
    )


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
        summary="multi-process shared-memory engine, ~10^7 nodes",
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
