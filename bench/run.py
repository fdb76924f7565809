#!/usr/bin/env python3
"""The repo's benchmark: one command, three modes.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  Prints every metric by
    name with its unit, the failed checks if any, a ``DETAIL`` line, and
    as its last line one JSON object ``{"correct", "attempted",
    "failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``
    (telemetry off), the per-layer metrics with ``--trace 1``.

``python3 bench/run.py [--seed N] [--repeats K] [--out FILE]``
    The ledger: every workload of ``BENCHMARK.json``, K timed runs each
    in a fresh subprocess, interleaved round-robin, then one traced run
    each; median/min/max per metric, noise flags, cross-run digest
    checks, one JSON file.  Exits non-zero on any failed check.

``python3 bench/run.py --compare A.json B.json``
    One row per workload × end-to-end metric with the verdict ``same /
    better / worse / unresolved`` under the bounds of ``BENCHMARK.json``.
    Exits non-zero on ``worse``.

Metric definitions, the noise protocol and how to read the output are
in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Seconds after which a run is abandoned: the ledger kills the run's
#: whole process group, a single run interrupts itself and cleans up.
RUN_TIMEOUT_S = 170

if not (SRC / "repro").is_dir():
    sys.exit("bench: no src/repro next to bench/ — there is no program to measure")
# The checkout's own source, for this process and any worker it starts.
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
)

from workloads import BY_NAME, PARITY_PAIRS, SCALES, at_scale  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
if {workload["name"] for workload in DECLARATION["workloads"]} != set(BY_NAME):
    sys.exit("bench: workloads.py and BENCHMARK.json name different workloads")


# ---------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S}s")


def _on_term(signum, frame):
    raise SystemExit(f"bench: stopped by signal {signum}")


def child_pids() -> list:
    """Live or unreaped processes whose parent is this process."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``sim.close()`` joins the workers, but the interpreter's
    shared-memory resource tracker (started by the sharded backend's
    first ``SharedMemory``) only exits *after* its parent has, so without
    this a run would return while one of its processes is still alive.
    Closing the tracker's pipe lets it finish its own clean-up; whatever
    else is left — a worker orphaned by an exception or a timeout — is
    killed.  Every child is waited for.
    """
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def run_single(args) -> int:
    from measure import measure

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(RUN_TIMEOUT_S)
    workload = at_scale(BY_NAME[args.workload], args.scale)
    try:
        metrics, detail, failures = measure(
            workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        signal.alarm(0)
        stop_children()

    declared = DECLARATION["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        sys.exit(
            "bench: metric names differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6f} {unit}")
    for failure in failures:
        print(f"FAILED CHECK: {failure}")
    print("DETAIL " + json.dumps(detail))
    attempted = detail["cycles"]
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": attempted if failures else 0,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 1 if failures else 0


# ---------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------


def child_run(name: str, args, trace: int) -> dict:
    """One run in a fresh subprocess with its own process group, so a
    hung run (and its workers) can be killed whole."""
    command = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
    ]  # fmt: skip
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S + 10)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": "timed out; process group killed"}
    lines = output.strip().splitlines()
    try:
        record = json.loads(lines[-1])
        detail = next(line for line in lines if line.startswith("DETAIL "))
        record["detail"] = json.loads(detail.removeprefix("DETAIL "))
    except (IndexError, StopIteration, ValueError):
        return {"error": f"exit code {process.returncode}, no result line"}
    record["failures"] = [
        line.removeprefix("FAILED CHECK: ")
        for line in lines
        if line.startswith("FAILED CHECK: ")
    ]
    return record


def spread(values) -> float:
    """Full range of the values as a share of their median."""
    return (max(values) - min(values)) / abs(statistics.median(values))


def machine_context() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def summarise(name: str, timed: list, traced: dict) -> dict:
    """One workload's ledger entry from its K timed runs and its traced
    run: medians with min/max/K, noise flags, failed share, checks."""
    good = [run for run in timed if "error" not in run]
    failures = [f"{name}: {run['error']}" for run in timed if "error" in run]
    for run in good:
        failures += [f"{name}: {failure}" for failure in run["failures"]]
    if "error" in traced:
        failures.append(f"{name} (traced): {traced['error']}")
    else:
        failures += [f"{name} (traced): {failure}" for failure in traced["failures"]]

    details = [run["detail"] for run in good]
    if "error" not in traced:
        details.append(traced["detail"])
    # Same seed, same spec: the state at the threshold cycle must be
    # bitwise the same in every run, telemetry on or off.
    digests = {detail["digest"] for detail in details}
    if len(digests) > 1:
        failures.append(
            f"{name}: result digest differs between runs: {sorted(map(str, digests))}"
        )
    calib = [
        detail[key]
        for detail in details
        for key in ("calib_before_ms", "calib_after_ms")
    ]

    # A run that raised, timed out or failed a check counts all of its
    # cycles as failed; a run that left no count stands for one cycle.
    attempted = sum(run.get("attempted", 1) for run in timed)
    failed = sum(
        run.get("attempted", 1) if "error" in run or run["failures"] else 0
        for run in timed
    )
    if len(digests) > 1:
        failed = attempted

    entry = {
        "end_to_end": {},
        "failed_share": failed / attempted,
        "digest": digests.pop() if len(digests) == 1 else None,
        "calib_ms": calib,
        "failures": failures,
    }
    for metric in DECLARATION["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in good]
        if not values:
            continue
        # The sentinel speaks for the host's speed, so only for times.
        noisy = metric["unit"] in ("s", "cycles/s") and spread(calib) > metric["bound"]
        noisy = noisy or (len(values) > 1 and spread(values) > metric["bound"])
        entry["end_to_end"][metric["name"]] = {
            "unit": metric["unit"],
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "k": len(values),
            "values": values,
            "noisy": noisy,
        }
    if "error" not in traced:
        entry["per_layer"] = {
            key: value["value"] for key, value in traced["metrics"].items()
        }
        entry["traced"] = {
            key: traced["detail"][key] for key in ("serial_spine", "traced_cycles")
        }
    return entry


def print_ledger(ledger: dict) -> None:
    for name, entry in ledger["workloads"].items():
        print(f"\n== {name}  (failed_share {entry['failed_share']:.3f} ratio)")
        for metric, row in entry["end_to_end"].items():
            flag = "  NOISY" if row["noisy"] else ""
            print(
                f"  {metric:<38} {row['median']:>14.4f} {row['unit']:<9} "
                f"[{row['min']:.4f} .. {row['max']:.4f}] k={row['k']}{flag}"
            )
        units = {metric["name"]: metric["unit"] for metric in DECLARATION["per_layer"]}
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:<38} {value:>14.4f} {units[metric]}")
        if "traced" in entry:
            print(f"  serial spine: {entry['traced']['serial_spine']}")


def run_ledger(args) -> int:
    names = [workload["name"] for workload in DECLARATION["workloads"]]
    timed = {name: [] for name in names}
    # Round-robin: one slow burst of the host cannot hit every repeat
    # of one workload.
    for repeat in range(args.repeats):
        for name in names:
            print(f"[timed {repeat + 1}/{args.repeats}] {name}", flush=True)
            timed[name].append(child_run(name, args, trace=0))
    traced = {}
    for name in names:
        print(f"[traced] {name}", flush=True)
        traced[name] = child_run(name, args, trace=1)

    ledger = {
        "context": machine_context(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "workloads": {
            name: summarise(name, timed[name], traced[name]) for name in names
        },
    }
    failures = []
    for first, second in PARITY_PAIRS:
        one, other = ledger["workloads"][first], ledger["workloads"][second]
        if one["digest"] != other["digest"] or one["digest"] is None:
            message = f"{first} / {second}: state digests differ at the threshold cycle"
            for entry in (one, other):
                entry["failures"].append(message)
                entry["failed_share"] = 1.0
    for entry in ledger["workloads"].values():
        failures += entry["failures"]

    print_ledger(ledger)
    out = Path(args.out or BENCH / "out" / f"ledger-{args.scale}-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nledger written to {out}")
    for failure in failures:
        print(f"FAILED CHECK: {failure}")
    return 1 if failures else 0


# ---------------------------------------------------------------------
# Compare two ledgers
# ---------------------------------------------------------------------


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``new`` against ``base`` for one workload × metric.  Unresolved
    when either side's runs spread wider than the bound, unless every
    run of one side beats every run of the other."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"]) / abs(base["median"])
    separated = (
        min(new["values"]) > max(base["values"])
        or max(new["values"]) < min(base["values"])
    )
    resolved = separated or max(spread(base["values"]), spread(new["values"])) <= bound
    if not resolved:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def run_compare(args) -> int:
    base, new = (json.loads(Path(path).read_text()) for path in args.compare)
    worse = 0
    print(
        f"{'workload':<26} {'metric':<15} {'base':>12} {'new':>12} {'change':>8}"
        "  verdict"
    )
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"][name]
        rows = []
        for metric in DECLARATION["end_to_end"]:
            one = base_entry["end_to_end"].get(metric["name"])
            other = new_entry["end_to_end"].get(metric["name"])
            if one is None or other is None:
                rows.append((metric["name"], float("nan"), float("nan"), "unresolved"))
                continue
            rows.append(
                (
                    metric["name"],
                    one["median"],
                    other["median"],
                    verdict(one, other, metric["better"], metric["bound"]),
                )
            )
        # Any increase in the failed share is a regression.
        one, other = base_entry["failed_share"], new_entry["failed_share"]
        rows.append(
            (
                "failed_share",
                one,
                other,
                "worse" if other > one else "better" if other < one else "same",
            )
        )
        for metric, one, other, result in rows:
            change = f"{100.0 * (other - one) / one:+.1f}%" if one else "-"
            print(
                f"{name:<26} {metric:<15} {one:>12.4f} {other:>12.4f} {change:>8}"
                f"  {result}"
            )
            worse += result == "worse"
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(BY_NAME), help="run this one workload"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=DECLARATION["run_seconds"],
        help="how long one run measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics",
    )  # fmt: skip
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed runs per workload"
    )
    parser.add_argument("--out", help="ledger file (default bench/out/ledger-*.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return run_compare(args)
    if args.workload:
        return run_single(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
