"""Tier-1 smoke test of the benchmark harness.

Runs the whole ledger — all five workloads, one timed and one traced
run each (the traced run under ``Watchdog()``) — at ``--scale smoke``
(n=2000, at most 8 cycles) and checks that what it emits is what
``BENCHMARK.json`` declares, in both directions.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = [sys.executable, str(BENCH / "run.py")]
DECLARATION = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def names(section: str) -> list:
    return [entry["name"] for entry in DECLARATION[section]]


def test_smoke_ledger_matches_declaration(tmp_path):
    out = tmp_path / "ledger.json"
    ledger_run = subprocess.run(
        RUN + ["--scale", "smoke", "--repeats", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert ledger_run.returncode == 0, ledger_run.stdout + ledger_run.stderr
    ledger = json.loads(out.read_text())

    assert list(ledger["workloads"]) == names("workloads")
    for name, entry in ledger["workloads"].items():
        assert entry["failed_share"] == 0, name
        assert entry["failures"] == [], name
        assert sorted(entry["end_to_end"]) == sorted(names("end_to_end")), name
        assert sorted(entry["per_layer"]) == sorted(names("per_layer")), name
        for metric, row in entry["end_to_end"].items():
            assert math.isfinite(row["median"]) and row["median"] > 0, (name, metric)
        for metric, value in entry["per_layer"].items():
            assert math.isfinite(value), (name, metric)
        assert entry["traced"]["serial_spine"], name
    # The parity pair ran the same spec on two backends.
    workloads = ledger["workloads"]
    assert workloads["rank-4e5-vec"]["digest"] == workloads["rank-4e5-shard2"]["digest"]

    compare = subprocess.run(
        RUN + ["--compare", str(out), str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert compare.returncode == 0, compare.stdout + compare.stderr
    verdicts = [line.split()[-1] for line in compare.stdout.splitlines()[1:]]
    rows_per_workload = len(names("end_to_end")) + 1  # + failed_share
    assert len(verdicts) == len(names("workloads")) * rows_per_workload
    assert set(verdicts) == {"same"}
