"""One generative check that `RunSpec` is the only carrier of run options.

A field declared on :class:`RunSpec` must reach the engine from every
entry point — the figure runners, the CLI, ``build_simulation`` and
``SlicingService`` — without any of them restating it.  The probes
below cover *every* field, so a new option is checked the moment it is
declared (and the first test fails until it gets a probe value).
"""

import dataclasses

import pytest

from repro.core.service import SlicingService
from repro.experiments import figures
from repro.experiments.__main__ import _build_parser, main
from repro.experiments.config import RunSpec, build_simulation

#: One non-default value per ``RunSpec`` field.
PROBES = dict(
    n=77, cycles=3, slice_count=7, view_size=5, protocol="jk", window=50,
    boundary_bias=False, sampler="uniform", concurrency="half", churn="regular",
    churn_rate=0.02, churn_burst_end=9, churn_period=3, correlated_churn=False,
    attributes=(0.1, 0.2), backend="vectorized", workers=1, hosts=("a:1", "b:2"),
    rebalance_every=4, rebalance_threshold=1.5, loss=0.1, delay="0.2:2",
    partitions="1:2", seed=9, profile="p.ndjson", timeline=True, metrics_every=2,
    watchdog=True,
)  # fmt: skip
#: The CLI options that are not run options (``dest`` names).
CLI_ONLY = ("help", "figure", "full_scale", "trace", "max_rows", "chart")
SIMULATION_FIGURES = {
    name: run for name, run in figures.ALL_FIGURES.items() if hasattr(run, "sweeps")
}


class Captured(Exception):
    """Raised in place of building the simulation."""


@pytest.fixture
def captured(monkeypatch):
    specs = []

    def capture(spec, telemetry=None):
        specs.append(spec)
        raise Captured

    monkeypatch.setattr(figures, "build_simulation", capture)
    return specs


def test_probes_cover_every_field():
    defaults = {field.name: field.default for field in dataclasses.fields(RunSpec)}
    assert len(defaults) == 28  # a simplification PR adds none
    assert len(SIMULATION_FIGURES) == 8
    assert set(PROBES) == set(defaults)
    assert all(PROBES[name] != default for name, default in defaults.items())


@pytest.mark.parametrize("name", sorted(SIMULATION_FIGURES))
def test_every_field_overrides_every_figure(name, captured):
    run = SIMULATION_FIGURES[name]
    for field, value in PROBES.items():
        if field in run.sweeps:
            with pytest.raises(TypeError, match=field):
                run(**{field: value})
        else:
            with pytest.raises(Captured):
                run(**{field: value})
            assert getattr(captured[-1], field) == value, field


def test_every_cli_run_option_parses_into_the_spec(captured, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_options = [a for a in _build_parser()._actions if a.dest not in CLI_ONLY]
    argv = ["fig4b", "--trace", "t.json"]
    for action in run_options:
        value = PROBES[action.dest]  # KeyError: a flag that is no RunSpec field
        argv.append(action.option_strings[0])
        if action.nargs != 0:  # store_true flags take no value
            argv.append(",".join(value) if action.dest == "hosts" else str(value))
    assert {"--partition", "--hosts", "--watchdog"} <= set(argv)
    with pytest.raises(Captured):
        main(argv)
    spec = captured[-1]
    for action in run_options:
        assert getattr(spec, action.dest) == PROBES[action.dest], action.dest
    assert spec.timeline is True  # --trace implies it; no flag of its own


def _settings(sim):
    carrier = getattr(sim, "bus", sim)  # the reference engine's live on its bus
    telemetry = sim.telemetry
    return {
        "engine": type(sim),
        "concurrency": carrier.concurrency.probability,
        "faults": sim.faults if carrier is sim else carrier.loss_probability,
        "rebalance_every": getattr(sim, "rebalance_every", None),
        "rebalance_threshold": getattr(sim, "rebalance_threshold", None),
        "view_size": sim.view_size,
        "telemetry": (
            telemetry.engine,
            telemetry.metrics_every,
            type(telemetry.watchdog).__name__,
        ),
    }


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_service_and_spec_build_the_same_engine(backend):
    shared = dict(
        backend=backend, concurrency="half", loss=0.1, view_size=6, seed=4,
        workers=1, metrics_every=2, watchdog=True,
    )  # fmt: skip
    if backend == "vectorized":
        shared.update(delay="0.2:2", rebalance_every=3, rebalance_threshold=1.5)
    service = SlicingService(size=60, slices=5, algorithm="ordering", **shared)
    spec = RunSpec(n=60, slice_count=5, protocol="mod-jk", **shared)
    assert _settings(service.simulation) == _settings(build_simulation(spec))
    assert _settings(service.simulation)["telemetry"][1:] == (2, "Watchdog")
    with pytest.raises(TypeError):  # a RunSpec field is not thereby a service option
        SlicingService(size=60, sampler="uniform")
