"""Where a run's memory peak may be set: inside the cycle, never in
import, setup, teardown or a compaction ("Memory budget" in
``docs/ARCHITECTURE.md``).  Each probe runs in a fresh interpreter — a
peak is per process and only ever rises — and prints one JSON line of
readings in MB (10^6 B).  The probe reads its own peak as ``VmHWM``:
``ru_maxrss`` survives ``exec``, so in a subprocess it starts at the
size of the pytest process that forked it."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.bulk.blocks import BLOCK_BYTES

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

PRELUDE = """
import json, resource, sys

def hwm(pid="self"):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM"):
                return int(line.split()[1]) * 1024 / 1e6

def workers_peak():  # forked, never exec'd: their own pages only
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6

from repro.experiments.config import RunSpec, build_simulation

WINDOW = dict(n=20_000, protocol="ranking-window", workers=2, slice_count=10,
              view_size=10, seed=3)
CHURN = dict(churn="regular", churn_rate=0.01, churn_period=1,
             rebalance_threshold=1.2)
"""


def probe(body: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_DISTRIBUTED_TRANSPORT="tcp")
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_no_scipy_stats_and_stays_small():
    seen = probe(
        """
        import repro, repro.distributed.worker, repro.sharded
        print(json.dumps({"stats": "scipy.stats" in sys.modules,
            "networkx": "networkx" in sys.modules, "mb": hwm()}))
        """
    )
    assert not seen["stats"], "scipy.stats is back on the import path (+78 MB)"
    assert not seen["networkx"], "networkx is back on the import path (+17 MB)"
    assert seen["mb"] <= 45, seen


def built_and_cycled(cycles: int) -> dict:
    return probe(
        f"""
        sim = build_simulation(RunSpec(n=200_000, protocol="ranking",
            backend="vectorized", slice_count=10, view_size=10, seed=3))
        built = hwm()
        sim.run({cycles})
        print(json.dumps({{"built": built, "cycled": hwm()}}))
        """
    )


def test_setup_never_sets_the_peak():
    seen = built_and_cycled(3)
    # A high-water mark never falls, so "the cycles set the peak" reads
    # as: they raised it past where the build left it.
    assert seen["built"] < seen["cycled"], seen


def test_cycle_holds_one_phase_of_scratch():
    seen = built_and_cycled(5)
    # 165.9 MB while every buffer a cycle ever staged stayed allocated
    # and the swap and the fold gathered whole waves and whole shards;
    # the state is 32 MB of it, the import image 35.
    assert seen["built"] < seen["cycled"] <= 158, seen


def test_ordering_round_holds_one_block_of_temporaries():
    seen = probe(
        """
        sim = build_simulation(RunSpec(n=100_000, protocol="mod-jk",
            backend="vectorized", slice_count=10, view_size=10, seed=3,
            **{**CHURN, "churn_rate": 0.001}))
        built = hwm()
        sim.run(10)
        print(json.dumps({"built": built, "cycled": hwm()}))
        """
    )
    # mod-JK's partner selection and the oldest-neighbour proposals run
    # one block of their temporaries at a time: the cycles add 18 MB
    # over the build at the ledger's churn, 64 while the selection's
    # (c + 1, n) blocks and the proposals' gathers spanned the shard.
    assert seen["cycled"] - seen["built"] <= 28, seen


def test_teardown_never_sets_the_peak():
    seen = probe(
        """
        from repro.vectorized.state import column_spec
        imported = hwm()
        sim = build_simulation(RunSpec(backend="distributed", **WINDOW))
        sim.run(3)
        state = sim.state
        replica = sum(
            state.capacity * dtype.itemsize * width
            for dtype, width in column_spec(state.view_size, state.window).values()
        ) / 1e6
        before = hwm()
        sim.close()
        print(json.dumps({"imported": imported, "replica": replica,
            "before": before, "after": hwm(), "workers": workers_peak()}))
        """
    )
    assert seen["after"] <= 1.15 * seen["before"], seen
    # A worker: its import image, its replica, and less than one more
    # replica of everything else (the parent: 2.2 replicas on top).
    assert seen["workers"] <= seen["imported"] + 2.0 * seen["replica"], seen


STAGES = ("setup", "cycle", "compaction", "teardown")


def staged_peaks(backend: str, **overrides) -> dict:
    """This process's peak after each stage of a churned run that ends
    with its first compaction, and the workers' peaks around the cycle
    that migrates every row."""
    return probe(
        f"""
        import multiprocessing

        def worker_peaks():
            return [hwm(child.pid) for child in multiprocessing.active_children()]

        spec = {{**WINDOW, **CHURN, **{overrides!r}}}
        sim = build_simulation(RunSpec(backend={backend!r}, **spec))
        seen = {{"setup": hwm()}}
        while sim.rebalance_count == 0:
            seen["cycle"], seen["workers_before"] = hwm(), worker_peaks()
            sim.run_cycle()
        seen["compaction"], seen["workers_after"] = hwm(), worker_peaks()
        sim.close()
        seen["teardown"] = hwm()
        print(json.dumps(seen))
        """
    )


@pytest.mark.parametrize("backend", ["distributed", "sharded", "vectorized"])
def test_compaction_never_sets_the_peak(backend):
    if backend != "distributed":
        # In process a compaction relabels each column in place, one
        # block of rows at a time: the cycle that moves every row adds
        # no more than a block to the peak the cycles before it set
        # (a whole column per step: +20 MB on one thread, +26 on two).
        workers = {"workers": None} if backend == "vectorized" else {}
        seen = staged_peaks(backend, n=40_000, **workers)
        assert seen["compaction"] <= seen["cycle"] + BLOCK_BYTES / 1e6, seen
        if backend == "vectorized":
            return
        # Worker threads work on the driver's own arrays: at every
        # stage the process peaks within 10 % of the single-threaded
        # run's — a second copy of anything would show (twice the
        # rows, so the state outweighs the import image).
        assert not seen["workers_before"], seen
        alone = staged_peaks("vectorized", n=40_000, workers=None)
        for stage in STAGES:
            assert seen[stage] <= 1.10 * alone[stage], (stage, seen, alone)
        return
    seen = staged_peaks(backend)
    # Driver first, then the workers: none grows by more than 15 %
    # across the cycle that migrates every row.
    before = [seen["cycle"]] + seen["workers_before"]
    after = [seen["compaction"]] + seen["workers_after"]
    assert len(before) == len(after) == 3, seen
    for was, now in zip(before, after):
        assert now <= 1.15 * was, seen
