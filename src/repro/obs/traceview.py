"""Convert profile NDJSON into Chrome/Perfetto trace-event JSON.

The telemetry layer's timeline mode records, per cycle, ``[track,
path, start_offset_ns, dur_ns]`` events — driver spans plus the
worker sub-spans shipped back in replies.  This module lays those out
as a `trace-event format`__ file: one *process* per engine, one
*thread* (track) per worker plus the driver, "X" complete events for
spans, and "C" counter events for the convergence stream, so a run
opens directly in https://ui.perfetto.dev or ``chrome://tracing``.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Cycles are placed end-to-end on a per-engine clock: each record
advances the engine's cursor by its ``wall_ns``, so a multi-engine
profile (``examples/profile_cycle.py`` writes three) renders as three
parallel process groups with comparable time axes.  A record without
timeline events (a profile taken without ``timeline=True``) converts
to its cycle event only: its span totals say how long each phase took,
not when it ran, so there is nothing to lay out.

Usage::

    python -m repro.obs.traceview profile.ndjson -o trace.json

or programmatically via :func:`to_trace` / :func:`write_trace` /
:func:`convert`.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from .sink import read_ndjson

__all__ = ["to_trace", "write_trace", "convert", "main"]

#: The driver track's thread id; worker ``w<N>`` maps to ``N + 1``.
DRIVER_TID = 0


def _track_tid(track: str) -> int:
    if track.startswith("w") and track[1:].isdigit():
        return int(track[1:]) + 1
    return DRIVER_TID


def _span_name(path: str) -> str:
    """Short display name: the last path segment (the full path stays
    in args for disambiguation)."""
    return path.rsplit("/", 1)[-1]


def _complete_event(name, path, pid, tid, start_ns, dur_ns):
    return {
        "name": name,
        "cat": "span",
        "ph": "X",
        "ts": start_ns / 1000.0,  # trace-event timestamps are µs
        "dur": max(dur_ns, 0) / 1000.0,
        "pid": pid,
        "tid": tid,
        "args": {"path": path},
    }


def to_trace(records: List[dict]) -> dict:
    """Build a ``{"traceEvents": [...]}`` dict from telemetry records."""
    events: List[dict] = []
    pids = {}  # engine -> pid, in order of first appearance
    cursors = {}  # engine -> running ns offset
    tracks_seen = {}  # engine -> set of tids already named

    def pid_for(engine: str) -> int:
        if engine not in pids:
            pid = len(pids) + 1
            pids[engine] = pid
            cursors[engine] = 0
            tracks_seen[engine] = set()
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": engine or "run"},
            })
        return pids[engine]

    def name_track(engine: str, pid: int, tid: int) -> None:
        if tid in tracks_seen[engine]:
            return
        tracks_seen[engine].add(tid)
        label = "driver" if tid == DRIVER_TID else f"w{tid - 1}"
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label},
        })
        events.append({
            "name": "thread_sort_index", "ph": "M", "pid": pid, "tid": tid,
            "args": {"sort_index": tid},
        })

    for record in records:
        kind = record.get("kind")
        engine = record.get("engine", "")
        pid = pid_for(engine)
        base = cursors[engine]
        if kind == "metrics":
            for metric in ("sdm", "gdm", "accuracy", "live"):
                if metric in record:
                    events.append({
                        "name": metric, "cat": "metrics", "ph": "C",
                        "ts": base / 1000.0, "pid": pid, "tid": DRIVER_TID,
                        "args": {metric: record[metric]},
                    })
            continue
        if kind not in ("cycle", "ambient"):
            continue
        wall_ns = int(record.get("wall_ns", 0))
        name_track(engine, pid, DRIVER_TID)
        label = (
            f"cycle {record['cycle']}" if kind == "cycle" else "ambient"
        )
        events.append(
            _complete_event(label, label, pid, DRIVER_TID, base, wall_ns)
        )
        for track, path, offset, dur in record.get("events", ()):
            tid = _track_tid(track)
            name_track(engine, pid, tid)
            events.append(_complete_event(
                _span_name(path), path, pid, tid, base + int(offset), int(dur)
            ))
        cursors[engine] = base + wall_ns

    events.sort(key=lambda e: (e["pid"], e.get("tid", 0), e.get("ts", -1.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(records: List[dict], path: str) -> int:
    """Write records as a trace-event JSON file; returns event count."""
    trace = to_trace(records)
    with open(path, "w") as handle:
        json.dump(trace, handle, separators=(",", ":"))
    return len(trace["traceEvents"])


def convert(in_path: str, out_path: str) -> int:
    """NDJSON profile → trace-event JSON file; returns event count."""
    return write_trace(read_ndjson(in_path), out_path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.traceview",
        description="Convert a telemetry NDJSON profile into "
        "Chrome/Perfetto trace-event JSON (open in ui.perfetto.dev).",
    )
    parser.add_argument("profile", help="input NDJSON profile path")
    parser.add_argument(
        "-o", "--output", required=True, help="output trace JSON path"
    )
    args = parser.parse_args(argv)
    count = convert(args.profile, args.output)
    print(f"wrote {count} trace events to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
