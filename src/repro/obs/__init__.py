"""Observability: per-cycle span/counter telemetry for every engine.

See :mod:`repro.obs.telemetry` for the collection model (including
worker sub-spans, timeline events, and the metrics stream),
:mod:`repro.obs.sink` for NDJSON emission, :mod:`repro.obs.report`
for aggregation into a cycle report, :mod:`repro.obs.traceview` for
the Chrome/Perfetto trace export, :mod:`repro.obs.health` for the
convergence summary, and :mod:`repro.obs.watchdog` for per-cycle
invariant checking.
"""

from repro.obs.health import health_summary, render_health
from repro.obs.report import CycleReport
from repro.obs.sink import NdjsonSink, read_ndjson
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    telemetry_from_options,
)
from repro.obs.watchdog import Watchdog, WatchdogViolation

__all__ = [
    "CycleReport",
    "NdjsonSink",
    "read_ndjson",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "telemetry_from_options",
    "Watchdog",
    "WatchdogViolation",
    "health_summary",
    "render_health",
]
