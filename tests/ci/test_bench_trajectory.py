"""The committed perf trajectory: every ``BENCH_<pr>.json`` at the repo
root parses and speaks ``BENCHMARK.json``'s vocabulary — exactly its
workloads, and for each exactly its end-to-end metrics, on both the
parent and the change — so the files stay comparable with each other
and with the ledgers ``bench/run.py`` writes.  Below that, the rule
each of those rows was judged by."""

import argparse
import importlib.util
import json
import os
import statistics
import sys
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


# The rule every row above was judged by: ``verdict`` / ``run_compare``
# of ``bench/run.py``, loaded by path (a script directory, no package).


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        # run.py imports its sibling modules by bare name and points
        # PYTHONPATH at the checkout for the children it starts.
        patch.syspath_prepend(str(ROOT / "bench"))
        patch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
        script = ROOT / "bench" / "run.py"
        spec = importlib.util.spec_from_file_location("bench_run", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def runs(*values):
    """What the verdict reads of one side of a ledger row."""
    return {"median": statistics.median(values), "values": list(values)}


def write_ledger(path, failed_share=0.0, **rows):
    """A one-workload ledger: every declared end-to-end metric at a flat
    10.0 except the ``rows`` given (``None`` leaves the metric out)."""
    end_to_end = {
        metric["name"]: runs(10.0, 10.0, 10.0) for metric in DECLARATION["end_to_end"]
    }
    end_to_end.update(rows)
    entry = {
        "end_to_end": {k: v for k, v in end_to_end.items() if v is not None},
        "failed_share": failed_share,
    }
    path.write_text(json.dumps({"workloads": {"w": entry}}))
    return str(path)


def compare(bench, capsys, base, new):
    """``(exit code, {metric: verdict})`` of ``--compare base new``."""
    code = bench.run_compare(argparse.Namespace(compare=[base, new]))
    lines = capsys.readouterr().out.splitlines()[1:]
    return code, {line.split()[1]: line.split()[-1] for line in lines}


class TestCompare:
    """``verdict``: medians against the bound, once the runs resolve."""

    def test_within_threshold_passes(self, bench):
        # Exactly at the bound, in the losing direction, is still "same".
        assert bench.verdict(runs(4.0), runs(3.0), "higher", 0.25) == "same"
        assert bench.verdict(runs(4.0), runs(5.0), "lower", 0.25) == "same"

    def test_regression_flagged(self, bench):
        assert bench.verdict(runs(4.0), runs(2.9), "higher", 0.25) == "worse"
        assert bench.verdict(runs(4.0), runs(5.1), "lower", 0.25) == "worse"

    def test_improvement_passes(self, bench):
        assert bench.verdict(runs(4.0), runs(5.1), "higher", 0.25) == "better"
        assert bench.verdict(runs(4.0), runs(2.9), "lower", 0.25) == "better"
        assert bench.verdict(runs(4.0), runs(4.9), "higher", 0.25) == "same"

    def test_wide_spread_is_unresolved_unless_separated(self, bench):
        noisy = runs(3.0, 4.0, 5.0)  # spread 50 % of its median
        assert bench.verdict(noisy, runs(4.1, 4.2, 4.3), "higher", 0.25) == "unresolved"
        assert bench.verdict(runs(4.1, 4.2, 4.3), noisy, "higher", 0.25) == "unresolved"
        # Every run of one side beats every run of the other: resolved.
        assert bench.verdict(noisy, runs(5.5, 6.0, 9.0), "higher", 0.25) == "better"
        assert bench.verdict(noisy, runs(5.5, 6.0, 9.0), "lower", 0.25) == "worse"
        assert bench.verdict(noisy, runs(2.9, 2.9, 2.9), "higher", 0.25) == "worse"


class TestGate:
    """``--compare``: one row per metric plus ``failed_share``; exit 1
    iff a row is ``worse``."""

    def test_passing_run_exits_zero_and_prints_every_row(self, bench, capsys, tmp_path):
        ledger = write_ledger(tmp_path / "a.json")
        code, verdicts = compare(bench, capsys, ledger, ledger)
        declared = [metric["name"] for metric in DECLARATION["end_to_end"]]
        assert code == 0
        assert list(verdicts) == declared + ["failed_share"]
        assert set(verdicts.values()) == {"same"}

    def test_regressed_run_exits_nonzero(self, bench, capsys, tmp_path):
        base = write_ledger(tmp_path / "a.json")
        slower = write_ledger(tmp_path / "b.json", cycles_per_s=runs(7.0, 7.0, 7.0))
        code, verdicts = compare(bench, capsys, base, slower)
        assert (code, verdicts["cycles_per_s"]) == (1, "worse")
        # Better and unresolved rows are not failures.
        mixed = write_ledger(
            tmp_path / "c.json",
            cycles_per_s=runs(14.0, 14.0, 14.0),
            setup_s=runs(6.0, 10.0, 14.0),
        )
        code, verdicts = compare(bench, capsys, base, mixed)
        assert code == 0
        assert (verdicts["cycles_per_s"], verdicts["setup_s"]) == ("better", "unresolved")

    def test_missing_metric_is_unresolved_not_fatal(self, bench, capsys, tmp_path):
        base = write_ledger(tmp_path / "a.json")
        partial = write_ledger(tmp_path / "b.json", time_to_sdm_s=None)
        for one, other in ((base, partial), (partial, base)):
            code, verdicts = compare(bench, capsys, one, other)
            assert (code, verdicts["time_to_sdm_s"]) == (0, "unresolved")

    def test_any_rise_in_failed_share_is_worse(self, bench, capsys, tmp_path):
        clean = write_ledger(tmp_path / "a.json")
        failing = write_ledger(tmp_path / "b.json", failed_share=0.01)
        code, verdicts = compare(bench, capsys, clean, failing)
        assert (code, verdicts["failed_share"]) == (1, "worse")
        code, verdicts = compare(bench, capsys, failing, clean)
        assert (code, verdicts["failed_share"]) == (0, "better")

    def test_main_cli(self, bench, tmp_path, monkeypatch):
        base = write_ledger(tmp_path / "a.json")
        fatter = write_ledger(tmp_path / "b.json", peak_rss_mb=runs(10.6, 10.6, 10.6))
        for pair, code in (((base, base), 0), ((base, fatter), 1)):
            monkeypatch.setattr(sys, "argv", ["run.py", "--compare", *pair])
            assert bench.main() == code
