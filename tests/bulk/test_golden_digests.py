"""Golden full-state digests of the bulk cycle.

``golden_digests.json`` was recorded at the commit it names — the last
one that still carried the whole-population functions next to the
command sequence — by running this file as a script there
(``PYTHONPATH=src python tests/bulk/test_golden_digests.py``).  Every
bulk executor must keep reproducing it bit for bit: that is what lets
the cycle be rewritten without keeping an old copy as an oracle.
"""

import hashlib
import itertools
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.config import PROTOCOLS, SAMPLERS, RunSpec, build_simulation
from repro.vectorized.state import column_spec

FIXTURE = pathlib.Path(__file__).with_name("golden_digests.json")
N, CYCLES = 2000, 10
# The policy axes are the table's: every protocol, every bulk sampler
# (the window length is inert outside ranking-window).
AXES = {
    "protocol": {p: dict(protocol=p, window=40) for p in PROTOCOLS},
    "sampler": {
        s: dict(sampler=s) for s, p in SAMPLERS.items() if "vectorized" in p.backends
    },
    "concurrency": {c: dict(concurrency=c) for c in ("none", "half", "full")},
    "churn": {
        "static": {},
        "regular": dict(
            churn="regular", churn_rate=0.05, churn_period=1, rebalance_threshold=1.2
        ),
        "burst": dict(churn="burst", churn_rate=0.03, churn_burst_end=5),
    },
    "faults": {
        "off": {},
        "on": dict(loss=0.1, delay="0.1:3", partitions="3:3:2"),
    },
}
BUS_FIELDS = (
    "sent", "delivered", "overlapping", "lost", "delayed",
    "intended_swaps", "unsuccessful_swaps", "swaps",
)


def configs():
    """``{key: RunSpec overrides}`` over the full cross product."""
    out = {}
    for names in itertools.product(*AXES.values()):
        overrides = {}
        for axis, name in zip(AXES.values(), names):
            overrides.update(axis[name])
        out["/".join(names)] = overrides
    return out


def run_digest(overrides, **backend) -> str:
    """Run one config and hash every state column over the live rows,
    the transport counters and the cycle number."""
    spec = RunSpec(n=N, slice_count=10, view_size=10, seed=29, **overrides, **backend)
    sim = build_simulation(spec)
    try:
        sim.run(CYCLES)
        state = sim.state
        live = state.live_ids()
        digest = hashlib.sha256()
        for name in column_spec(state.view_size, state.window):
            digest.update(np.ascontiguousarray(getattr(state, name)[live]).tobytes())
        stats = [int(getattr(sim.bus_stats, name)) for name in BUS_FIELDS]
        digest.update(repr((stats, sim.now, sim.rebalance_count)).encode())
        return digest.hexdigest()[:24]
    finally:
        sim.close()


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"digests": {}}


def test_fixture_covers_the_matrix():
    assert len(GOLDEN["commit"]) == 40
    assert set(GOLDEN["digests"]) == set(configs())


def mismatches(protocol, **backend):
    return [
        key
        for key, overrides in configs().items()
        if key.startswith(protocol + "/")
        and run_digest(overrides, **backend) != GOLDEN["digests"][key]
    ]


@pytest.mark.parametrize(
    "backend",
    [
        dict(backend="vectorized"),
        dict(backend="sharded", workers=2),
        dict(backend="sharded", workers=3),
    ],
    ids=["vectorized", "sharded2", "sharded3"],
)
@pytest.mark.parametrize("protocol", AXES["protocol"])
def test_reproduces_the_recorded_digests(protocol, backend):
    assert not mismatches(protocol, **backend)


@pytest.mark.parametrize("protocol", ["ranking", "mod-jk"])
def test_race_shaker(protocol):
    """Four threads with the interpreter switching between them every
    microsecond instead of every 5 ms: a kernel that touched anything
    but its own rows and scratch slices gets its chance to show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert not mismatches(protocol, backend="sharded", workers=4)
    finally:
        sys.setswitchinterval(interval)


if __name__ == "__main__":
    commit = subprocess.check_output(["git", "rev-parse", "HEAD"], text=True).strip()
    digests = {
        key: run_digest(overrides, backend="vectorized")
        for key, overrides in configs().items()
    }
    FIXTURE.write_text(
        json.dumps({"commit": commit, "n": N, "cycles": CYCLES, "digests": digests}, indent=0)
        + "\n"
    )
