"""Perfetto trace export tests (`repro.obs.traceview`): golden shape
of the trace-event JSON from a real timeline-profiled sharded run —
valid structure, one track per worker plus the driver, monotone
timestamps per track — plus a record without timeline events and the
CLI."""

import json
from collections import defaultdict

import pytest

from repro.experiments.config import RunSpec, build_simulation
from repro.obs import NdjsonSink, Telemetry, traceview

WORKERS = 2
CYCLES = 3


@pytest.fixture(scope="module")
def sharded_profile(tmp_path_factory):
    """One timeline-profiled sharded run, shared by the golden tests."""
    path = str(tmp_path_factory.mktemp("trace") / "profile.ndjson")
    telemetry = Telemetry(
        engine="sharded",
        sink=NdjsonSink(path, append=False),
        timeline=True,
        metrics_every=1,
    )
    spec = RunSpec(n=400, slice_count=5, view_size=8, protocol="ranking",
                   backend="sharded", workers=WORKERS, seed=11)
    sim = build_simulation(spec, telemetry=telemetry)
    try:
        sim.run(CYCLES)
    finally:
        sim.close()
    telemetry.close()
    return path, telemetry.records


class TestGoldenTrace:
    def test_file_is_valid_trace_event_json(self, sharded_profile, tmp_path):
        path, _records = sharded_profile
        out = str(tmp_path / "trace.json")
        count = traceview.convert(path, out)
        with open(out) as handle:
            trace = json.load(handle)
        assert trace["displayTimeUnit"] == "ms"
        assert len(trace["traceEvents"]) == count > 0
        for event in trace["traceEvents"]:
            assert event["ph"] in ("X", "M", "C")
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert "path" in event["args"]

    def test_one_track_per_worker_plus_driver(self, sharded_profile):
        _path, records = sharded_profile
        trace = traceview.to_trace(records)
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert sorted(names.values()) == sorted(
            ["driver"] + [f"w{i}" for i in range(WORKERS)]
        )
        # Every X event lands on a named track.
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                assert (event["pid"], event["tid"]) in names

    def test_timestamps_monotone_per_track(self, sharded_profile):
        _path, records = sharded_profile
        trace = traceview.to_trace(records)
        per_track = defaultdict(list)
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                per_track[(event["pid"], event["tid"])].append(event["ts"])
        assert len(per_track) == WORKERS + 1
        for track, stamps in per_track.items():
            assert stamps == sorted(stamps), f"track {track} not monotone"

    def test_worker_tracks_carry_sub_spans(self, sharded_profile):
        _path, records = sharded_profile
        trace = traceview.to_trace(records)
        worker_names = {
            e["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] > traceview.DRIVER_TID
        }
        assert "kernel" in worker_names  # a thread's only sub-span

    def test_metrics_stream_becomes_counter_events(self, sharded_profile):
        _path, records = sharded_profile
        trace = traceview.to_trace(records)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {
            "sdm", "gdm", "accuracy", "live",
        }
        assert len(counters) == 4 * CYCLES

    def test_cycle_events_cover_the_driver_track(self, sharded_profile):
        _path, records = sharded_profile
        trace = traceview.to_trace(records)
        cycle_events = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("cycle ")
        ]
        assert len(cycle_events) == CYCLES
        assert all(e["tid"] == traceview.DRIVER_TID for e in cycle_events)


class TestFallbackAndLayout:
    def test_no_timeline_record_is_its_cycle_event_only(self):
        records = [{
            "kind": "cycle", "engine": "v", "cycle": 0, "wall_ns": 300,
            "spans": {"a": [100, 1], "a/sub": [90, 1], "b": [150, 1]},
            "counters": {},
        }]
        trace = traceview.to_trace(records)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # Span totals carry no start times: nothing is made up.
        assert [(e["name"], e["ts"], e["dur"]) for e in complete] == [
            ("cycle 0", 0.0, 0.3)
        ]

    def test_engines_get_separate_processes_with_own_clocks(self):
        def record(engine, cycle):
            return {
                "kind": "cycle", "engine": engine, "cycle": cycle,
                "wall_ns": 1000, "spans": {"a": [500, 1]}, "counters": {},
            }

        trace = traceview.to_trace([
            record("vectorized", 0), record("sharded", 0),
            record("vectorized", 1),
        ])
        processes = {
            e["args"]["name"]: e["pid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert set(processes) == {"vectorized", "sharded"}
        assert processes["vectorized"] != processes["sharded"]
        # vectorized's second cycle starts after its first, unaffected
        # by the sharded record in between.
        vec_cycles = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == processes["vectorized"]
            and e["name"].startswith("cycle")
        ]
        assert [e["ts"] for e in vec_cycles] == [0.0, 1.0]


class TestCli:
    def test_main_converts_and_reports_count(self, sharded_profile, tmp_path, capsys):
        path, _records = sharded_profile
        out = str(tmp_path / "cli-trace.json")
        assert traceview.main([path, "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "trace events" in printed
        with open(out) as handle:
            assert json.load(handle)["traceEvents"]
