"""Declarative run specification for slicing experiments.

A :class:`RunSpec` names everything a single simulation run needs —
population, partition, protocol variant, sampler, concurrency, churn —
and :func:`build_simulation` turns it into a ready
:class:`~repro.engine.simulator.CycleSimulation`.  The per-figure
experiment functions, the benchmarks, and the examples all build runs
through this one path, so a figure's configuration is a data value you
can read, copy and sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, Union

from repro.churn.correlated import DistributionArrivals, UniformDepartures
from repro.churn.models import BurstChurn, ChurnModel, RegularChurn
from repro.core.backends import PROTOCOLS, SAMPLERS, backend_names, create_simulation
from repro.core.slices import SlicePartition
from repro.workloads.attributes import AttributeDistribution

__all__ = ["RunSpec", "build_simulation", "PROTOCOLS", "SAMPLERS", "BACKENDS"]

#: The built-in simulation backends (any backend registered with
#: :func:`repro.core.backends.register_backend` is accepted too).
BACKENDS = backend_names()


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run depends on.

    Attributes
    ----------
    n:
        Initial population size.
    cycles:
        How long the run lasts (consumed by the caller, not the builder).
    slice_count:
        Number of equal-width slices.
    view_size:
        View capacity ``c``.
    protocol:
        One of :data:`PROTOCOLS` (:mod:`repro.core.backends`): JK,
        mod-JK or random-misplaced ordering; ranking, windowed or not.
    window:
        Sliding-window length (``"ranking-window"`` only).
    boundary_bias:
        Ranking's boundary-biased ``j1`` targeting (ablation switch).
    sampler:
        One of :data:`SAMPLERS`.
    concurrency:
        ``"none"`` / ``"half"`` / ``"full"`` or an overlap probability.
    churn:
        ``None``, a ready :class:`~repro.churn.models.ChurnModel`, or
        one of the shorthand strings ``"burst"`` (Figure 6(c)) and
        ``"regular"`` (Figure 6(d)).
    churn_rate, churn_burst_end, churn_period:
        Parameters of the shorthand churn models.
    correlated_churn:
        Paper's policy (lowest leave / above-max join) when ``True``;
        uniform departures + same-distribution arrivals when ``False``.
    attributes:
        ``None`` (uniform), a distribution, or explicit values.
    backend:
        One of :data:`BACKENDS`: ``"reference"`` (object-per-node
        engines), ``"vectorized"`` (numpy bulk engine), ``"sharded"``
        (the bulk engine on worker threads), or ``"distributed"``
        (multi-host message-transport engine).  Every backend serves
        every protocol and concurrency regime (the bulk backends model
        overlap in batched form), and the samplers :data:`SAMPLERS`
        lists for it.
    workers:
        Worker count for the parallel backends (``"sharded"`` /
        ``"distributed"``; ``None`` = all CPU cores); must be
        ``None``/1 for the single-process backends.
    hosts:
        ``backend="distributed"`` only: ``("host:port", ...)`` of
        pre-started standalone workers (``python -m
        repro.distributed.worker --listen HOST:PORT``); ``None``
        spawns local TCP workers.
    rebalance_every, rebalance_threshold:
        Bulk backends only: plan-driven dead-row compaction
        (:mod:`repro.bulk.rebalance`) every ``rebalance_every``
        cycles and/or when the max/min live-load ratio over the
        occupancy probe exceeds ``rebalance_threshold`` — keeps the
        sharded backend's worker loads even under long correlated
        churn (compactions relabel node ids but never change
        results across backends/worker counts).
    loss, delay, partitions:
        Network fault model (:mod:`repro.bulk.faults`): per-message
        loss probability, delay spec (probability or ``"P:D"`` for a
        1..D-cycle delay distribution) and transient partition windows
        (``"start:duration[:groups]"``, comma-separated).  The bulk
        backends draw fault fates from the shared cycle plan — results
        stay bitwise identical across backends and worker counts under
        every fault regime.  The reference backend serves ``loss <
        1.0`` only and rejects the other two knobs.
    seed:
        Root seed — a run is a pure function of its spec.  A sharded
        run is additionally independent of its worker count (bitwise
        identical to the vectorized backend).
    profile:
        Optional NDJSON path: attach a
        :class:`~repro.obs.telemetry.Telemetry` with an
        :class:`~repro.obs.sink.NdjsonSink` appending per-cycle phase
        records there (the CLI's ``--profile``).  Profiling never
        changes simulation results.
    timeline:
        Record per-span timeline events in the cycle records (enables
        the :mod:`repro.obs.traceview` Perfetto export; the CLI's
        ``--trace`` implies it).
    metrics_every:
        Stream a ``{"kind": "metrics"}`` convergence record
        (SDM/GDM/accuracy/live count) every this many cycles (the
        CLI's ``--metrics-every``).
    watchdog:
        Check the telemetry accounting invariants every cycle
        (:class:`~repro.obs.watchdog.Watchdog`); a violation raises
        with the offending cycle number (the CLI's ``--watchdog``).
        None of the three observability knobs ever changes simulation
        results.
    """

    n: int = 1000
    cycles: int = 200
    slice_count: int = 100
    view_size: int = 20
    protocol: str = "mod-jk"
    window: Optional[int] = None
    boundary_bias: bool = True
    sampler: str = "cyclon-variant"
    concurrency: Union[str, float] = "none"
    churn: Union[None, str, ChurnModel] = None
    churn_rate: float = 0.001
    churn_burst_end: int = 200
    churn_period: int = 10
    correlated_churn: bool = True
    attributes: Union[AttributeDistribution, Sequence[float], None] = None
    backend: str = "reference"
    workers: Optional[int] = None
    hosts: Optional[Sequence[str]] = None
    rebalance_every: Optional[int] = None
    rebalance_threshold: Optional[float] = None
    loss: float = 0.0
    delay: Optional[str] = None
    partitions: Optional[str] = None
    seed: int = 0
    profile: Optional[str] = None
    timeline: bool = False
    metrics_every: Optional[int] = None
    watchdog: bool = False

    def with_overrides(self, **kwargs) -> "RunSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)

    def partition(self) -> SlicePartition:
        return SlicePartition.equal(self.slice_count)

    def describe(self) -> str:
        """One-line human summary for reports: every field that differs
        from its default, as ``name=value``."""
        bits = []
        for field in fields(self):
            value, default = getattr(self, field.name), field.default
            # Same-type comparison only: ``attributes`` may be an array.
            if value is default or (type(value) is type(default) and value == default):
                continue
            if field.name == "hosts":
                value = ",".join(value)
            bits.append(f"{field.name}={value}")
        return ", ".join(bits)


def _churn_model(spec: RunSpec) -> Optional[ChurnModel]:
    if spec.churn is None:
        return None
    if isinstance(spec.churn, ChurnModel):
        return spec.churn
    kwargs = {}
    if not spec.correlated_churn:
        if spec.attributes is None or not isinstance(
            spec.attributes, AttributeDistribution
        ):
            raise ValueError(
                "uncorrelated churn needs an AttributeDistribution for arrivals"
            )
        kwargs = {
            "departures": UniformDepartures(),
            "arrivals": DistributionArrivals(spec.attributes),
        }
    if spec.churn == "burst":
        return BurstChurn(
            rate=spec.churn_rate, start=0, end=spec.churn_burst_end, **kwargs
        )
    if spec.churn == "regular":
        return RegularChurn(rate=spec.churn_rate, period=spec.churn_period, **kwargs)
    raise ValueError(f"unknown churn shorthand {spec.churn!r}")


#: The fields :func:`build_simulation` translates itself (``cycles`` is
#: consumed by whoever runs the simulation).  Every other field reaches
#: the construction path, and through it the engine, under its own name.
_TRANSLATED = (
    "n",
    "cycles",
    "slice_count",
    "backend",
    "churn",
    "churn_rate",
    "churn_burst_end",
    "churn_period",
    "correlated_churn",
)


def build_simulation(spec: RunSpec, telemetry=None):
    """Instantiate the simulation a spec describes.

    Goes through the one construction path
    (:func:`repro.core.backends.create_simulation`) and its backend
    registry, so a newly registered engine is reachable from specs, the
    CLI and the figure harnesses without touching this module — and so
    is a new spec field: only the population, partition and churn
    shorthand are translated here, every other field is passed through
    by name.

    ``telemetry`` attaches an explicit
    :class:`~repro.obs.telemetry.Telemetry`; when omitted and any of
    ``spec.profile`` / ``spec.timeline`` / ``spec.metrics_every`` /
    ``spec.watchdog`` is set, one is created (with an NDJSON sink only
    when ``spec.profile`` names a path).  An explicitly passed
    telemetry object gains the spec's observability knobs for any it
    does not already set.
    """
    options = {
        field.name: getattr(spec, field.name)
        for field in fields(spec)
        if field.name not in _TRANSLATED
    }
    return create_simulation(
        spec.backend,
        size=spec.n,
        partition=spec.partition(),
        churn=_churn_model(spec),
        telemetry=telemetry,
        **options,
    )
