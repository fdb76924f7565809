"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.churn.models import RegularChurn
from repro.core.ordering import OrderingProtocol
from repro.core.ranking import RankingProtocol
from repro.core.slices import SlicePartition
from repro.engine.simulator import CycleSimulation


BUS_COUNTERS = ("sent", "swaps", "unsuccessful_swaps", "overlapping")


def assert_states_identical(sim_a, sim_b, bus_stats=True):
    """Bitwise equality of two bulk simulations' populated state (a
    distributed run's shard-resident columns are pulled down first)."""
    state_a, state_b = (
        sim.sync_state() if hasattr(sim, "sync_state") else sim.state
        for sim in (sim_a, sim_b)
    )
    assert state_a.size == state_b.size
    n = state_a.size
    for column in (
        "attribute", "value", "alive", "obs_le", "obs_total", "view_ids", "view_ages"
    ):
        a, b = getattr(state_a, column)[:n], getattr(state_b, column)[:n]
        assert np.array_equal(a, b), f"{column} diverged"
    if bus_stats:
        for counter in BUS_COUNTERS:
            assert getattr(sim_a.bus_stats, counter) == getattr(
                sim_b.bus_stats, counter
            ), counter


_OPENED = []


def closing(sim):
    """Have ``sim`` closed when the current test ends, pass or fail
    (a no-op for engines that hold no pool or transport)."""
    if hasattr(sim, "close"):
        _OPENED.append(sim)
    return sim


@pytest.fixture(autouse=True)
def _close_registered_simulations():
    yield
    while _OPENED:
        _OPENED.pop().close()


def skewed_churn(rate=0.05):
    """The paper's correlated-churn policy at an aggressive rate:
    lowest attributes leave every cycle, above-max attributes join, so
    the original id range [0, size) dies off while every joiner lands
    at the top — dead rows concentrate in one (low) id range and the
    rebalancing path actually fires."""
    return RegularChurn(rate=rate, period=1)


@pytest.fixture
def rng():
    """A deterministic RNG for tests."""
    return random.Random(12345)


@pytest.fixture
def ten_slices():
    return SlicePartition.equal(10)


@pytest.fixture
def four_slices():
    return SlicePartition.equal(4)


def make_ordering_sim(
    n=100,
    slice_count=4,
    view_size=8,
    seed=7,
    selection="max_gain",
    concurrency="none",
    attributes=None,
    churn=None,
):
    """A small, ready-to-run ordering simulation."""
    partition = SlicePartition.equal(slice_count)
    return CycleSimulation(
        size=n,
        partition=partition,
        slicer_factory=lambda: OrderingProtocol(partition, selection=selection),
        attributes=attributes,
        view_size=view_size,
        concurrency=concurrency,
        churn=churn,
        seed=seed,
    )


def make_ranking_sim(
    n=100,
    slice_count=4,
    view_size=8,
    seed=7,
    window=None,
    boundary_bias=True,
    attributes=None,
    churn=None,
    sampler_factory=None,
):
    """A small, ready-to-run ranking simulation."""
    partition = SlicePartition.equal(slice_count)
    return CycleSimulation(
        size=n,
        partition=partition,
        slicer_factory=lambda: RankingProtocol(
            partition, window=window, boundary_bias=boundary_bias
        ),
        attributes=attributes,
        sampler_factory=sampler_factory,
        view_size=view_size,
        churn=churn,
        seed=seed,
    )
