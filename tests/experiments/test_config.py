"""Unit tests for RunSpec and the simulation builder."""

import pytest

from repro.churn.models import BurstChurn, NoChurn, RegularChurn
from repro.core.backends import get_backend
from repro.core.ordering import SELECTION_MAX_GAIN, OrderingProtocol
from repro.core.ranking import RankingProtocol
from repro.core.service import SlicingService
from repro.experiments.__main__ import main
from repro.experiments.config import (
    BACKENDS,
    PROTOCOLS,
    SAMPLERS,
    RunSpec,
    build_simulation,
)
from repro.sampling.cyclon import CyclonSampler
from repro.sampling.cyclon_variant import CyclonVariantSampler
from repro.sampling.newscast import NewscastSampler
from repro.sampling.uniform import UniformOracleSampler
from repro.workloads.attributes import UniformAttributes


class TestRunSpec:
    def test_with_overrides(self):
        spec = RunSpec(n=100)
        other = spec.with_overrides(n=200, protocol="jk")
        assert other.n == 200
        assert other.protocol == "jk"
        assert spec.n == 100  # original untouched

    def test_partition_size(self):
        assert len(RunSpec(slice_count=7).partition()) == 7

    def test_describe_mentions_key_fields(self):
        text = RunSpec(n=50, protocol="ranking", churn="burst").describe()
        assert "n=50" in text
        assert "protocol=ranking" in text
        assert "churn=burst" in text


@pytest.mark.parametrize("surface", ["reference", "vectorized", "cli"])
def test_negative_cycle_count_rejected(surface):
    """A negative cycle count is refused, naming the value, instead of
    reporting the untouched initial state; zero cycles stays legal."""
    if surface == "cli":
        with pytest.raises(ValueError, match="-3"):
            main(["fig4a", "--n", "50", "--cycles", "-3"])
        return
    sim = build_simulation(RunSpec(n=30, view_size=6, backend=surface))
    sim.run(0)
    with pytest.raises(ValueError, match="-3"):
        sim.run(-3)
    service = SlicingService(size=30, view_size=6, backend=surface, seed=1)
    with pytest.raises(ValueError, match="-3"):
        service.run(-3)
    assert (sim.now, service.cycle) == (0, 0)


class TestTable:
    """The policy table and the engines agree, cell by cell: a served
    (backend, protocol, sampler) builds and runs, an unserved one is
    refused by ``validate``.  The distributed row is checked through
    ``validate`` only, so no TCP worker is spawned."""

    @pytest.mark.parametrize(
        "backend,protocol,sampler",
        [(b, p, s) for b in BACKENDS for p in PROTOCOLS for s in SAMPLERS],
    )
    def test_cell(self, backend, protocol, sampler):
        validate = get_backend(backend).validate
        if backend not in SAMPLERS[sampler].backends:
            with pytest.raises(ValueError, match="supported combinations"):
                validate(protocol=protocol, sampler=sampler)
            return
        validate(protocol=protocol, sampler=sampler)
        if backend == "distributed":
            return
        spec = RunSpec(
            n=30, protocol=protocol, sampler=sampler, view_size=6, window=100,
            backend=backend, workers=2 if backend == "sharded" else None,
        )
        sim = build_simulation(spec)
        try:
            sim.run(1)
            assert (sim.now, sim.live_count) == (1, 30)
        finally:
            sim.close()


class TestOrderingName:
    """``"ordering"`` is :class:`SlicingService` vocabulary for mod-JK;
    the engines accept exactly the table's protocol names."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engines_reject_it(self, backend):
        with pytest.raises(ValueError) as error:
            build_simulation(RunSpec(n=30, protocol="ordering", backend=backend))
        assert str(error.value) == (
            f"unknown protocol 'ordering'; expected one of {tuple(PROTOCOLS)}"
        )

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_service_runs_mod_jk(self, backend):
        with SlicingService(
            size=60, slices=4, algorithm="ordering", backend=backend, seed=3
        ) as service:
            service.run(3)
            sim = service.simulation
            if backend == "reference":
                assert sim.live_nodes()[0].slicer.selection == SELECTION_MAX_GAIN
            else:
                assert sim.protocol == "mod-jk"


class TestBuildProtocols:
    def test_protocol_types(self):
        sim = build_simulation(RunSpec(n=10, protocol="jk", view_size=4))
        assert isinstance(sim.live_nodes()[0].slicer, OrderingProtocol)
        assert sim.live_nodes()[0].slicer.selection == "random"
        sim = build_simulation(RunSpec(n=10, protocol="mod-jk", view_size=4))
        assert sim.live_nodes()[0].slicer.selection == "max_gain"
        sim = build_simulation(RunSpec(n=10, protocol="ranking", view_size=4))
        assert isinstance(sim.live_nodes()[0].slicer, RankingProtocol)

    def test_window_default_for_window_protocol(self):
        sim = build_simulation(RunSpec(n=10, protocol="ranking-window", view_size=4))
        assert sim.live_nodes()[0].slicer.window == 10_000

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            build_simulation(RunSpec(n=10, protocol="magic"))


class TestBuildSamplers:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("cyclon-variant", CyclonVariantSampler),
            ("cyclon", CyclonSampler),
            ("newscast", NewscastSampler),
            ("uniform", UniformOracleSampler),
        ],
    )
    def test_sampler_types(self, name, cls):
        assert name in SAMPLERS
        sim = build_simulation(RunSpec(n=10, sampler=name, view_size=4))
        assert isinstance(sim.live_nodes()[0].sampler, cls)

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            build_simulation(RunSpec(n=10, sampler="magic"))


class TestBuildChurn:
    def test_none(self):
        assert build_simulation(RunSpec(n=10, view_size=4)).churn is None

    def test_burst_shorthand(self):
        sim = build_simulation(
            RunSpec(n=10, view_size=4, churn="burst", churn_burst_end=50)
        )
        assert isinstance(sim.churn, BurstChurn)
        assert sim.churn.end == 50

    def test_regular_shorthand(self):
        sim = build_simulation(RunSpec(n=10, view_size=4, churn="regular"))
        assert isinstance(sim.churn, RegularChurn)

    def test_model_passthrough(self):
        model = NoChurn()
        sim = build_simulation(RunSpec(n=10, view_size=4, churn=model))
        assert sim.churn is model

    def test_uncorrelated_needs_distribution(self):
        with pytest.raises(ValueError):
            build_simulation(
                RunSpec(n=10, view_size=4, churn="burst", correlated_churn=False)
            )

    def test_uncorrelated_with_distribution(self):
        spec = RunSpec(
            n=10,
            view_size=4,
            churn="regular",
            correlated_churn=False,
            attributes=UniformAttributes(),
        )
        sim = build_simulation(spec)
        sim.run(3)
        assert sim.live_count >= 8

    def test_unknown_churn(self):
        with pytest.raises(ValueError):
            build_simulation(RunSpec(n=10, view_size=4, churn="tsunami"))
