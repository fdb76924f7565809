"""The benchmark's workload table.

Five fixed run specifications, each built from ``--seed`` and nothing
else; the program under test only ever sees the resulting ``RunSpec``.
Why each one exists is recorded next to its name in ``BENCHMARK.json``
and in ``README.md``; the numbers here are the protocol.

``sdm_threshold`` is the per-node slice disorder (``slice_disorder() /
live_count``) a run has to reach.  Each threshold sits midway between
the two probes it separates, on a stretch of the convergence curve
where one probe interval moves the disorder by several times what a
change of seed does, so the cycle it is first met at does not move
with the seed.

The two large workloads run at n=4e5, not 1e6: from about 5e5 nodes up
glibc serves every per-cycle temporary (> 32 MB) from a fresh ``mmap``,
a cycle faults in ~2 GB of new pages, and what those faults cost is set
by the host, not the program (0.3-4.4 s per cycle on the reference
box) — no wall-clock metric repeats there.  At 4e5 the per-node cost is
already twice that at 1e5 and the state is ~400 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: ROADMAP baseline convention, shared by every workload.
SLICE_COUNT = 10
VIEW_SIZE = 10

#: Worker count for the backends that take one (= cores of the
#: reference box).
WORKERS = 2

#: Call ``sim.slice_disorder()`` after every this many cycles.
PROBE_EVERY = 5

#: Leading cycles left out of ``cycles_per_s`` (caches fill, the rank
#: index is built, workers touch their pages).
WARMUP = 2

#: Correlated regular churn: 0.1% of the nodes replaced every cycle,
#: with dead-row compaction when shard loads drift apart.
_CHURN = {
    "churn": "regular",
    "churn_rate": 0.001,
    "churn_period": 1,
    "rebalance_threshold": 1.2,
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``RunSpec`` fields on top of the shared convention.
    spec: dict
    #: Disorder per live node the run must reach (``time_to_sdm_s``).
    sdm_threshold: float
    #: Hard cycle cap (smoke scale only; a full-scale run is bounded
    #: by time instead).
    max_cycles: Optional[int] = None


WORKLOADS = (
    Workload(
        name="rank-1e5-vec",
        spec={"n": 100_000, "protocol": "ranking", "backend": "vectorized"},
        sdm_threshold=0.157,  # first met at cycle 40
    ),
    Workload(
        name="modjk-churn-1e5-vec",
        spec={
            "n": 100_000,
            "protocol": "mod-jk",
            "backend": "vectorized",
            "concurrency": "half",
            "loss": 0.05,
            **_CHURN,
        },
        sdm_threshold=0.295,  # first met at cycle 15
    ),
    Workload(
        name="rankwin-churn-1e5-dist2",
        spec={
            "n": 100_000,
            "protocol": "ranking-window",
            "backend": "distributed",
            "workers": WORKERS,
            "delay": "0.1:3",
            **_CHURN,
        },
        sdm_threshold=0.243,  # first met at cycle 20
    ),
    Workload(
        name="rank-4e5-vec",
        spec={"n": 400_000, "protocol": "ranking", "backend": "vectorized"},
        sdm_threshold=0.275,  # first met at cycle 15
    ),
    Workload(
        name="rank-4e5-shard2",
        spec={
            "n": 400_000,
            "protocol": "ranking",
            "backend": "sharded",
            "workers": WORKERS,
        },
        sdm_threshold=0.275,  # first met at cycle 15, same state as rank-4e5-vec
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: Workloads whose state digest at the threshold cycle must be equal
#: (the bulk backends' bitwise-parity contract at the scale we time).
PARITY_PAIRS = (("rank-4e5-vec", "rank-4e5-shard2"),)

SCALES = ("full", "smoke")


def at_scale(workload: Workload, scale: str) -> Workload:
    """``smoke`` keeps every code path of the workload but shrinks it
    to n=2000 and at most 8 cycles, for the tier-1 smoke test."""
    if scale == "full":
        return workload
    return replace(
        workload,
        spec={**workload.spec, "n": 2000},
        sdm_threshold=2.0,
        max_cycles=8,
    )


def run_spec(workload: Workload, seed: int):
    from repro.experiments.config import RunSpec

    return RunSpec(
        slice_count=SLICE_COUNT, view_size=VIEW_SIZE, seed=seed, **workload.spec
    )
