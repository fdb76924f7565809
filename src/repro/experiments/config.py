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

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from repro.bulk.faults import build_fault_model
from repro.churn.correlated import DistributionArrivals, UniformDepartures
from repro.churn.models import BurstChurn, ChurnModel, RegularChurn
from repro.core.backends import backend_names, get_backend
from repro.core.ordering import (
    SELECTION_MAX_GAIN,
    SELECTION_RANDOM,
    SELECTION_RANDOM_MISPLACED,
    OrderingProtocol,
)
from repro.core.ranking import DEFAULT_WINDOW, RankingProtocol
from repro.core.slices import SlicePartition
from repro.engine.simulator import CycleSimulation
from repro.sampling.cyclon import CyclonSampler
from repro.sampling.cyclon_variant import CyclonVariantSampler
from repro.sampling.newscast import NewscastSampler
from repro.sampling.uniform import UniformOracleSampler
from repro.workloads.attributes import AttributeDistribution

__all__ = ["RunSpec", "build_simulation", "PROTOCOLS", "SAMPLERS", "BACKENDS"]

#: Protocol spec names accepted by :class:`RunSpec.protocol`.
PROTOCOLS = ("jk", "mod-jk", "random-misplaced", "ranking", "ranking-window")

#: Sampler spec names accepted by :class:`RunSpec.sampler`.
SAMPLERS = ("cyclon-variant", "cyclon", "newscast", "uniform")

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
        One of :data:`PROTOCOLS`: ``"jk"`` (random partner ordering),
        ``"mod-jk"`` (max-gain ordering), ``"random-misplaced"``
        (ablation ordering), ``"ranking"``, ``"ranking-window"``.
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
        (multi-process shared-memory engine), or ``"distributed"``
        (multi-host message-transport engine).  Every
        backend supports every concurrency regime (the bulk backends
        model message overlap in batched form); the bulk backends
        support the ``cyclon-variant`` and ``uniform`` samplers only.
    workers:
        Worker count for the multi-process backends (``"sharded"`` /
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
        """One-line human summary for reports."""
        bits = [
            f"n={self.n}",
            f"cycles={self.cycles}",
            f"slices={self.slice_count}",
            f"view={self.view_size}",
            f"protocol={self.protocol}",
            f"sampler={self.sampler}",
        ]
        if self.window is not None:
            bits.append(f"window={self.window}")
        if self.concurrency != "none":
            bits.append(f"concurrency={self.concurrency}")
        if self.backend != "reference":
            bits.append(f"backend={self.backend}")
        if self.workers is not None:
            bits.append(f"workers={self.workers}")
        if self.hosts is not None:
            bits.append(f"hosts={','.join(self.hosts)}")
        if self.rebalance_every is not None:
            bits.append(f"rebalance_every={self.rebalance_every}")
        if self.rebalance_threshold is not None:
            bits.append(f"rebalance_threshold={self.rebalance_threshold}")
        if self.loss:
            bits.append(f"loss={self.loss}")
        if self.delay is not None:
            bits.append(f"delay={self.delay}")
        if self.partitions is not None:
            bits.append(f"partitions={self.partitions}")
        if self.churn is not None:
            bits.append(f"churn={self.churn}")
        if self.profile is not None:
            bits.append(f"profile={self.profile}")
        if self.timeline:
            bits.append("timeline")
        if self.metrics_every is not None:
            bits.append(f"metrics_every={self.metrics_every}")
        if self.watchdog:
            bits.append("watchdog")
        bits.append(f"seed={self.seed}")
        return ", ".join(bits)


def _slicer_factory(spec: RunSpec, partition: SlicePartition) -> Callable:
    if spec.protocol == "jk":
        return lambda: OrderingProtocol(partition, selection=SELECTION_RANDOM)
    if spec.protocol == "mod-jk":
        return lambda: OrderingProtocol(partition, selection=SELECTION_MAX_GAIN)
    if spec.protocol == "random-misplaced":
        return lambda: OrderingProtocol(
            partition, selection=SELECTION_RANDOM_MISPLACED
        )
    if spec.protocol == "ranking":
        return lambda: RankingProtocol(partition, boundary_bias=spec.boundary_bias)
    if spec.protocol == "ranking-window":
        window = spec.window if spec.window is not None else DEFAULT_WINDOW
        return lambda: RankingProtocol(
            partition, window=window, boundary_bias=spec.boundary_bias
        )
    raise ValueError(f"unknown protocol {spec.protocol!r}; expected one of {PROTOCOLS}")


def _sampler_factory(spec: RunSpec) -> Callable:
    view_size = spec.view_size
    if spec.sampler == "cyclon-variant":
        return lambda node_id: CyclonVariantSampler(node_id, view_size)
    if spec.sampler == "cyclon":
        return lambda node_id: CyclonSampler(node_id, view_size)
    if spec.sampler == "newscast":
        return lambda node_id: NewscastSampler(node_id, view_size)
    if spec.sampler == "uniform":
        return lambda node_id: UniformOracleSampler(node_id, view_size)
    raise ValueError(f"unknown sampler {spec.sampler!r}; expected one of {SAMPLERS}")


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
        return BurstChurn(rate=spec.churn_rate, start=0, end=spec.churn_burst_end, **kwargs)
    if spec.churn == "regular":
        return RegularChurn(rate=spec.churn_rate, period=spec.churn_period, **kwargs)
    raise ValueError(f"unknown churn shorthand {spec.churn!r}")


def build_simulation(spec: RunSpec, telemetry=None):
    """Instantiate the simulation a spec describes.

    Dispatches through the backend registry
    (:mod:`repro.core.backends`), so a newly registered engine is
    reachable from specs, the CLI and the figure harnesses without
    touching this module.  The reference backend is built directly:
    its per-node factories carry spec options (protocol variants, all
    four samplers) the registry's service surface does not model.

    ``telemetry`` attaches an explicit
    :class:`~repro.obs.telemetry.Telemetry`; when omitted and any of
    ``spec.profile`` / ``spec.timeline`` / ``spec.metrics_every`` /
    ``spec.watchdog`` is set, one is created (with an NDJSON sink only
    when ``spec.profile`` names a path).  An explicitly passed
    telemetry object gains the spec's observability knobs for any it
    does not already set.
    """
    wants_obs = (
        spec.profile is not None
        or spec.timeline
        or spec.metrics_every is not None
        or spec.watchdog
    )
    if telemetry is None and wants_obs:
        from repro.obs import NdjsonSink, Telemetry, Watchdog

        telemetry = Telemetry(
            engine=spec.backend,
            sink=(
                NdjsonSink(spec.profile, append=True)
                if spec.profile is not None
                else None
            ),
            timeline=spec.timeline,
            metrics_every=spec.metrics_every,
            watchdog=Watchdog() if spec.watchdog else None,
        )
    elif telemetry is not None and telemetry.enabled and wants_obs:
        from repro.obs import Watchdog

        if spec.timeline:
            telemetry.timeline = True
        if spec.metrics_every is not None and telemetry.metrics_every is None:
            telemetry.metrics_every = int(spec.metrics_every)
        if spec.watchdog and telemetry.watchdog is None:
            telemetry.watchdog = Watchdog()
    backend_spec = get_backend(spec.backend)
    faults = build_fault_model(
        loss=spec.loss, delay=spec.delay, partition=spec.partitions
    )
    backend_spec.validate(
        concurrency=spec.concurrency,
        workers=spec.workers,
        rebalance_every=spec.rebalance_every,
        rebalance_threshold=spec.rebalance_threshold,
        hosts=spec.hosts,
        faults=faults,
    )
    partition = spec.partition()
    if spec.backend == "reference":
        return CycleSimulation(
            size=spec.n,
            partition=partition,
            slicer_factory=_slicer_factory(spec, partition),
            attributes=spec.attributes,
            sampler_factory=_sampler_factory(spec),
            view_size=spec.view_size,
            concurrency=spec.concurrency,
            churn=_churn_model(spec),
            seed=spec.seed,
            loss_probability=faults.loss if faults is not None else 0.0,
            telemetry=telemetry,
        )
    if spec.protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {spec.protocol!r}; expected one of {PROTOCOLS}"
        )
    window = spec.window
    if spec.protocol == "ranking-window" and window is None:
        window = DEFAULT_WINDOW
    return backend_spec.create(
        size=spec.n,
        partition=partition,
        algorithm=spec.protocol,
        window=window,
        boundary_bias=spec.boundary_bias,
        attributes=spec.attributes,
        view_size=spec.view_size,
        sampler=spec.sampler,
        churn=_churn_model(spec),
        concurrency=spec.concurrency,
        workers=spec.workers,
        hosts=spec.hosts,
        rebalance_every=spec.rebalance_every,
        rebalance_threshold=spec.rebalance_threshold,
        faults=faults,
        seed=spec.seed,
        telemetry=telemetry,
    )
