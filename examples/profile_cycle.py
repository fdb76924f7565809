#!/usr/bin/env python
"""Where does a cycle's time go?  Profile one ranking run at n = 10^5
on the three bulk backends and print the per-phase breakdown
side by side.

Each engine runs the *same* plan (bitwise-identical results — the
telemetry only times, it never touches an RNG stream), so the columns
differ purely in execution strategy:

* ``vectorized``  — single-threaded numpy;
* ``sharded``     — 2 worker threads over the same arrays, with the
  driver/worker split visible as ``cmd:*`` dispatch spans plus
  per-worker kernel sub-spans and kernel vs barrier-wait accounting;
* ``distributed`` — 2 workers over the in-process loopback message
  transport, adding per-command wire-byte accounting.

The "serial spine" line names the span with the most *self* time —
the first target for any further optimization work — and the
per-worker straggler table shows how much of each worker's dispatched
time was busy vs idle.

Run:  python examples/profile_cycle.py
      python examples/profile_cycle.py --trace trace.json
      # then open trace.json in https://ui.perfetto.dev

``--trace`` records per-span timeline events for the sharded run and
writes them as Chrome/Perfetto trace-event JSON (one track per worker
plus the driver).
"""

import argparse

from repro.experiments.config import RunSpec, build_simulation
from repro.obs import CycleReport, Telemetry

N = 100_000
CYCLES = 5
BACKENDS = (
    ("vectorized", {}),
    ("sharded", {"workers": 2}),
    ("distributed", {"workers": 2}),
)


def profile(backend: str, timeline: bool = False, **overrides):
    spec = RunSpec(
        n=N,
        slice_count=10,
        view_size=10,
        protocol="ranking",
        backend=backend,
        seed=0,
        **overrides,
    )
    telemetry = Telemetry(engine=backend, timeline=timeline)
    sim = build_simulation(spec, telemetry=telemetry)
    try:
        sim.run(CYCLES)
    finally:
        sim.close()
    return CycleReport(telemetry.records), telemetry


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write the sharded run's timeline as Perfetto trace JSON",
    )
    args = parser.parse_args()

    print(f"ranking, n={N:,}, {CYCLES} cycles — per-phase seconds\n")
    reports = {}
    telemetries = {}
    for backend, overrides in BACKENDS:
        print(f"profiling {backend} ...", flush=True)
        timeline = args.trace is not None and backend == "sharded"
        reports[backend], telemetries[backend] = profile(
            backend, timeline=timeline, **overrides
        )
    print()

    # Side-by-side top-level phase table.
    phases = []
    for report in reports.values():
        for name in report.phase_seconds():
            if name not in phases:
                phases.append(name)
    header = f"{'phase':<12}" + "".join(f"{b:>14}" for b in reports)
    print(header)
    print("-" * len(header))
    for phase in sorted(phases):
        row = f"{phase:<12}"
        for report in reports.values():
            seconds = report.phase_seconds().get(phase)
            row += f"{seconds:>14.3f}" if seconds is not None else f"{'-':>14}"
        print(row)
    row = f"{'wall':<12}"
    for report in reports.values():
        row += f"{report.wall_ns / 1e9:>14.3f}"
    print(row)
    row = f"{'coverage':<12}"
    for report in reports.values():
        row += f"{report.coverage * 100.0:>13.1f}%"
    print(row)

    print("\nserial spine (max self time) per backend:")
    for backend, report in reports.items():
        print(f"  {backend:>12}: {report.serial_spine()}")

    # The parallel engines itemize their coordination costs.
    print("\ncoordination accounting:")
    for backend, report in reports.items():
        counters = report.counters
        if "worker_kernel_ns" not in counters:
            continue
        kernel = counters["worker_kernel_ns"] / 1e9
        wait = counters["barrier_wait_ns"] / 1e9
        line = (
            f"  {backend:>12}: worker kernel {kernel:.3f}s, "
            f"barrier wait {wait:.3f}s"
        )
        if "wire.sent_bytes" in counters:
            mb = (counters["wire.sent_bytes"] + counters["wire.recv_bytes"]) / 1e6
            line += f", wire {mb:.1f} MB in {counters['wire.frames']:.0f} frames"
        print(line)

    # Per-worker straggler table for the sharded run.  Each worker's
    # busy + wait sums over its share of every dispatch span, so
    # sum(busy) == worker_kernel_ns and sum(wait) == barrier_wait_ns
    # exactly (the PR-6 barrier identity, per worker).
    sharded = reports["sharded"]
    rows = sharded.worker_table()
    if rows:
        print("\nper-worker utilization (sharded):")
        print(f"  {'worker':<8} {'busy_s':>9} {'wait_s':>9} {'util%':>7}")
        for row in rows:
            print(
                f"  {'w' + row['worker']:<8} {row['busy_ns'] / 1e9:>9.3f} "
                f"{row['wait_ns'] / 1e9:>9.3f} "
                f"{row['utilization'] * 100.0:>7.1f}"
            )
        busy_sum = sum(row["busy_ns"] for row in rows)
        wait_sum = sum(row["wait_ns"] for row in rows)
        exact = (
            busy_sum == sharded.counters["worker_kernel_ns"]
            and wait_sum == sharded.counters["barrier_wait_ns"]
        )
        print(
            f"  identity: sum(busy) == worker_kernel_ns and "
            f"sum(wait) == barrier_wait_ns: {'exact' if exact else 'VIOLATED'}"
        )

    print("\nfull per-span report for the sharded run:\n")
    print(sharded.render())

    if args.trace is not None:
        from repro.obs import traceview

        count = traceview.write_trace(
            telemetries["sharded"].records, args.trace
        )
        print(
            f"\n[{count} trace events written to {args.trace}; "
            "open in https://ui.perfetto.dev]"
        )


if __name__ == "__main__":
    main()
