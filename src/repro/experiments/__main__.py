"""CLI for regenerating the paper's figures.

Usage::

    python -m repro.experiments fig4b
    python -m repro.experiments fig6c --full-scale
    python -m repro.experiments all --seed 7
    python -m repro.experiments fig6a --n 2000 --cycles 500
    python -m repro.experiments fig6a --n 100000 --backend vectorized

``--full-scale`` runs the paper's exact parameters (n = 10^4, paper
cycle counts); the default scale reproduces the same shapes in a
fraction of the time.  Every run option is a ``RunSpec`` field and
overrides the figure's setup; the theory checks (``lemma41``,
``theorem51``) run no simulation and take ``--seed`` only.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from typing import List

from repro.experiments.config import BACKENDS, RunSpec
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import render_result


def _host_list(text: str) -> tuple:
    return tuple(host.strip() for host in text.split(",") if host.strip())


def _build_parser() -> argparse.ArgumentParser:
    # Every run option's ``dest`` is its RunSpec field and is absent
    # from the namespace unless the flag was given (SUPPRESS), so "the
    # overrides" are exactly the RunSpec-named attributes that are set.
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures of 'Distributed Slicing in Dynamic Systems'.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "figure",
        choices=sorted(ALL_FIGURES) + ["all"],
        help="which figure to regenerate ('all' runs every one)",
    )
    parser.add_argument("--seed", type=int, help="root random seed")
    parser.add_argument(
        "--full-scale",
        action="store_true",
        default=False,
        help="use the paper's exact scale (n=10^4; slower); an explicit "
        "--n / --cycles still wins",
    )
    parser.add_argument("--n", type=int, help="override population size")
    parser.add_argument("--cycles", type=int, help="override cycle count")
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        help="simulation engine: per-node objects (reference, the default), "
        "the numpy bulk engine (vectorized; reaches 10^6 nodes), the "
        "same engine on worker threads (sharded; reaches 10^7 "
        "nodes, see --workers), or the multi-host message-transport "
        "engine (distributed; see --workers/--hosts). Every figure "
        "runs on every backend, including the concurrency studies "
        "(fig4c, fig4d), which the bulk engines model in batched form",
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="worker threads / processes for --backend sharded / distributed "
        "(default: all CPU cores)",
    )
    parser.add_argument(
        "--hosts",
        type=_host_list,
        metavar="HOST:PORT,HOST:PORT,...",
        help="--backend distributed only: comma-separated pre-started "
        "remote workers (start each with 'python -m "
        "repro.distributed.worker --listen HOST:PORT'); omit to spawn "
        "local workers",
    )
    parser.add_argument(
        "--rebalance-every",
        type=int,
        metavar="K",
        help="bulk backends: compact dead rows (and rebalance the "
        "sharded worker loads) every K cycles — effective on the "
        "churn figures (fig6c, fig6d)",
    )
    parser.add_argument(
        "--rebalance-threshold",
        type=float,
        metavar="R",
        help="bulk backends: compact when the max/min live-load ratio "
        "over the occupancy probe exceeds R (> 1.0) — effective on "
        "the churn figures (fig6c, fig6d)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        metavar="P",
        help="drop each protocol message independently with probability "
        "P; the bulk backends draw fault fates from the shared cycle "
        "plan, so results stay bitwise identical across backends and "
        "worker counts (the reference backend serves P < 1.0 only)",
    )
    parser.add_argument(
        "--delay",
        metavar="P[:D]",
        help="bulk backends: delay each surviving protocol message with "
        "probability P by 1..D cycles (uniform; D defaults to 1) — "
        "EpTO-style late ball delivery through a deterministic mailbox",
    )
    parser.add_argument(
        "--partition",
        dest="partitions",
        metavar="START:DUR[:GROUPS],...",
        help="bulk backends: transient network partitions that heal — "
        "from cycle START, for DUR cycles, split nodes into GROUPS "
        "(default 2) groups by id and suppress every cross-group "
        "pairing and protocol message; comma-separate multiple windows",
    )
    parser.add_argument(
        "--profile",
        metavar="OUT.ndjson",
        help="write per-cycle phase telemetry (span timings, counters, "
        "worker kernel/barrier-wait and wire-byte accounting) as "
        "NDJSON to this path and print a cycle report after the run; "
        "profiling never changes simulation results",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="also convert the profile into Chrome/Perfetto trace-event "
        "JSON (one track per worker + driver; open in ui.perfetto.dev); "
        "requires --profile and implies timeline recording",
    )
    parser.add_argument(
        "--metrics-every",
        type=int,
        metavar="K",
        help="stream a {\"kind\": \"metrics\"} convergence record "
        "(SDM/GDM/accuracy/live count) every K cycles into the profile "
        "and print a run-health summary",
    )
    parser.add_argument(
        "--watchdog",
        action="store_true",
        help="check the telemetry accounting invariants (barrier "
        "identity, wire-byte sums, occupancy partition, counter "
        "consistency) every cycle; raises naming the offending cycle",
    )
    parser.add_argument(
        "--max-rows", type=int, default=20, help="table rows per series"
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        default=False,
        help="also render the series as an ASCII chart (log scale)",
    )
    return parser


_RUN_OPTIONS = frozenset(field.name for field in fields(RunSpec))


def _overrides(args: argparse.Namespace) -> dict:
    """The ``RunSpec`` fields the command line set."""
    overrides = {
        name: value for name, value in vars(args).items() if name in _RUN_OPTIONS
    }
    if args.trace is not None:
        overrides["timeline"] = True
    return overrides


def _run_one(name: str, args: argparse.Namespace) -> None:
    function = ALL_FIGURES[name]
    overrides = _overrides(args)
    started = time.time()
    if hasattr(function, "sweeps"):
        result = function(full_scale=args.full_scale, **overrides)
    else:  # the theory checks run no simulation: the seed is all they share
        result = function(seed=overrides.get("seed", 0))
    elapsed = time.time() - started
    print(render_result(result, max_rows=args.max_rows))
    if args.chart and result.series:
        from repro.experiments.report import ascii_chart

        print()
        print(ascii_chart(list(result.series.values())))
    print(f"[{name} regenerated in {elapsed:.1f}s]")
    print()


def main(argv: List[str] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    profile = getattr(args, "profile", None)
    if args.trace is not None and profile is None:
        parser.error("--trace requires --profile (the NDJSON source)")
    names = sorted(ALL_FIGURES) if args.figure == "all" else [args.figure]
    if profile is not None:
        # Truncate once up front: figure runs (and the multiple
        # simulations inside one figure) append per-cycle records.
        open(profile, "w").close()
    for name in names:
        _run_one(name, args)
    if profile is not None:
        from repro.obs import CycleReport

        report = CycleReport.from_ndjson(profile)
        print(report.render())
        print(f"[phase telemetry written to {profile}]")
        if args.trace is not None:
            from repro.obs import traceview

            count = traceview.convert(profile, args.trace)
            print(
                f"[{count} trace events written to {args.trace}; "
                "open in https://ui.perfetto.dev]"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
