"""The committed perf trajectory: every ``BENCH_<pr>.json`` at the repo
root parses and speaks ``BENCHMARK.json``'s vocabulary — exactly its
workloads, and for each exactly its end-to-end metrics, on both the
parent and the change — so the files stay comparable with each other
and with the ledgers ``bench/run.py`` writes."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))
VERDICTS = {"same", "better", "worse", "unresolved"}


def test_a_trajectory_is_committed():
    assert TRAJECTORY, "no BENCH_<pr>.json at the repo root"


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda path: path.name)
def test_trajectory_file_names_the_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    assert record["context"], "machine context missing"
    assert set(record["workloads"]) == {
        workload["name"] for workload in DECLARATION["workloads"]
    }
    units = {metric["name"]: metric["unit"] for metric in DECLARATION["end_to_end"]}
    for name, entry in record["workloads"].items():
        assert set(entry["end_to_end"]) == set(units), name
        for metric, row in entry["end_to_end"].items():
            assert row["unit"] == units[metric], (name, metric)
            assert row["verdict"] in VERDICTS, (name, metric)
            for side in ("parent", "change"):
                stats, where = row[side], (name, metric, side)
                assert stats["k"] >= 1, where
                assert stats["min"] <= stats["median"] <= stats["max"], where
