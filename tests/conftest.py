"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import multiprocessing
import random
import threading

import pytest

from repro.core.ordering import OrderingProtocol
from repro.core.ranking import RankingProtocol
from repro.core.slices import SlicePartition
from repro.engine.simulator import CycleSimulation
from repro.vectorized.executor import THREAD_PREFIX


def executor_threads():
    """The in-process executor's worker threads alive right now."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(THREAD_PREFIX)
    ]


@pytest.fixture(autouse=True, scope="module")
def _no_worker_outlives_its_module():
    """Every worker a test starts must be stopped by it — a transport's
    processes (a leaked one holds its sockets until exit) and the
    in-process executor's threads alike."""
    yield
    assert not multiprocessing.active_children()
    assert not executor_threads()


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
