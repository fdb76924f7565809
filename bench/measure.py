"""One benchmark run of one workload, measured from outside the program.

Everything here times *public* calls — ``build_simulation``,
``sim.run_cycle``, ``sim.slice_disorder``, ``sim.global_disorder``,
``sim.close`` and two direct layer probes — with the benchmark's own
clock, or reads the program's existing telemetry stream through
``build_simulation(spec, telemetry=Telemetry(...))`` → ``CycleReport``.
No span or counter lives in ``src/``.

``measure()`` returns ``(metrics, detail, failures)``: with ``trace``
off the end-to-end metrics of one timed run (telemetry off), with
``trace`` on the per-layer metrics of one traced run.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import resource
import socket
import statistics
import threading
import time
from typing import Optional

import numpy as np

from workloads import PROBE_EVERY, SLICE_COUNT, WARMUP, Workload, run_spec

now = time.perf_counter

#: ``build_simulation`` calls per timed run; ``setup_s`` is the fastest.
SETUP_REPEATS = 3

#: A run that has not reached its disorder threshold after this many
#: times its time budget is stopped and counted as failed.
TIME_CAP = 4.0

#: The integer counters of ``sim.bus_stats`` that enter the digest.
BUS_FIELDS = (
    "sent",
    "delivered",
    "overlapping",
    "lost",
    "delayed",
    "intended_swaps",
    "unsuccessful_swaps",
    "swaps",
)

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def import_program() -> float:
    """Seconds to import the packages a run touches, so no run pays a
    lazy import inside a timer."""
    start = now()
    import repro.distributed  # noqa: F401
    import repro.experiments.config  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.sharded  # noqa: F401
    import repro.vectorized  # noqa: F401

    return now() - start


def calibrate() -> float:
    """Noise sentinel: median milliseconds of a fixed numpy sort+gather
    kernel.  Stored beside every run; never used to rescale a number."""
    rng = np.random.default_rng(20070625)
    keys = rng.random(200_000)
    index = rng.integers(0, len(keys), len(keys))
    samples = []
    for _ in range(5):
        start = now()
        order = np.argsort(keys, kind="stable")
        keys[index][order].sum()
        samples.append(now() - start)
    return statistics.median(samples) * 1e3


def cpu_seconds() -> float:
    """User+system CPU seconds so far of this process and its live
    worker processes (``RUSAGE_CHILDREN`` only counts reaped ones)."""
    total = 0.0
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS_PER_S
    return total


def peak_rss_mb() -> float:
    """Driver peak plus the largest reaped worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) * 1024 / 1e6


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def state_digest(sim) -> str:
    """sha256 of the populated ``attribute``/``value``/``alive`` columns
    plus the transport counters — the run's result, bitwise."""
    state = sim.state
    digest = hashlib.sha256()
    for column in (state.attribute, state.value, state.alive):
        digest.update(np.ascontiguousarray(column[: state.size]).tobytes())
    stats = sim.bus_stats
    digest.update(repr([int(getattr(stats, name)) for name in BUS_FIELDS]).encode())
    return digest.hexdigest()


def recomputed_sdm(sim) -> float:
    """The slice disorder measure computed by the benchmark from the raw
    state columns, independently of ``repro.metrics``/``vectorized.metrics``:
    a node's true slice comes from its 1-based ``(attribute, id)`` rank,
    its believed slice from its value, and with equal-width slices its
    SDM term is the distance between the two indices."""
    state = sim.state
    live = np.flatnonzero(state.alive[: state.size])
    order = np.lexsort((live, state.attribute[live]))
    rank = np.empty(len(live), dtype=np.int64)
    rank[order] = np.arange(1, len(live) + 1)
    truth = (rank * SLICE_COUNT + len(live) - 1) // len(live) - 1
    # Rounding first keeps a value that sits on a slice boundary
    # (3/10 = 0.30000000000000004 * 10) in the slice it closes.
    believed = np.ceil(np.round(state.value[live] * SLICE_COUNT, 9)) - 1
    believed = np.clip(believed, 0, SLICE_COUNT - 1).astype(np.int64)
    return float(np.abs(truth - believed).sum())


def close_simulation(sim) -> float:
    """``sim.close()`` where the backend has one; seconds it took."""
    start = now()
    close = getattr(sim, "close", None)
    if close is not None:
        close()
    return now() - start


def timed_setup(spec) -> float:
    """Build and discard one simulation; seconds ``build_simulation``
    took (state allocation, view bootstrap, worker spawn/connect, shm)."""
    from repro.experiments.config import build_simulation

    start = now()
    sim = build_simulation(spec)
    elapsed = now() - start
    close_simulation(sim)
    del sim
    gc.collect()
    return elapsed


def run_once(
    workload: Workload,
    spec,
    budget_s: float,
    cap_s: float,
    telemetry=None,
    until_reached: bool = True,
) -> dict:
    """Build, run and close one simulation.

    Cycles run until ``budget_s`` seconds have passed since the first
    ``run_cycle`` *and* (when ``until_reached``) a probe has seen the
    disorder threshold — or, failing that, until ``cap_s``; each
    ``run_cycle`` call is timed on its own and the probes sit outside
    those timers.  Returns the raw record; the
    ``failures`` entry lists every correctness or clean-up check the
    run did not pass.
    """
    from repro.experiments.config import build_simulation

    segments_before = shm_segments()
    start = now()
    sim = build_simulation(spec, telemetry=telemetry)
    run = {"setup_s": now() - start, "failures": []}
    try:
        cycle_s = []
        probe_s = []
        reached = None
        cpu_start = cpu_seconds()
        loop_start = now()
        while True:
            start = now()
            sim.run_cycle()
            cycle_s.append(now() - start)
            if len(cycle_s) % PROBE_EVERY == 0:
                start = now()
                sdm = sim.slice_disorder() / sim.live_count
                probe_s.append(now() - start)
                if reached is None and sdm <= workload.sdm_threshold:
                    reached = {"cycles": len(cycle_s), "seconds": now() - loop_start}
                    run["digest"] = state_digest(sim)
            elapsed = now() - loop_start
            if workload.max_cycles is not None:
                if len(cycle_s) >= workload.max_cycles:
                    break
            elif elapsed >= cap_s:
                break
            if elapsed >= budget_s and (reached or not until_reached):
                break
        run["cpu_s"] = cpu_seconds() - cpu_start
        run["cycle_s"] = cycle_s
        run["reached"] = reached
        if until_reached and reached is None:
            run["failures"].append(
                f"disorder threshold {workload.sdm_threshold} not reached "
                f"in {len(cycle_s)} cycles"
            )

        start = now()
        final_sdm = sim.slice_disorder()
        probe_s.append(now() - start)
        run["probe_s"] = probe_s
        start = now()
        sim.global_disorder()
        run["gdm_s"] = now() - start

        live = sim.live_count
        run["final_sdm_per_node"] = final_sdm / live
        ours = recomputed_sdm(sim)
        if abs(ours - final_sdm) > 1e-9 * max(final_sdm, 1.0):
            run["failures"].append(
                f"slice_disorder() = {final_sdm!r}, recomputed from state = {ours!r}"
            )
        claimed = sum(sim.slice_sizes())
        if claimed != live:
            run["failures"].append(
                f"slice sizes sum to {claimed}, live count is {live}"
            )
        run["bus"] = {name: int(getattr(sim.bus_stats, name)) for name in BUS_FIELDS}
    finally:
        run["close_s"] = close_simulation(sim)
    del sim
    gc.collect()
    leaked = sorted(shm_segments() - segments_before)
    survivors = multiprocessing.active_children()
    run["leaked"] = len(leaked) + len(survivors)
    if run["leaked"]:
        run["failures"].append(
            f"after close(): shm segments {leaked}, live workers {survivors}"
        )
    return run


def probe_matching(seed: int):
    """Direct probe of ``repro.bulk.matching``: split 1e5 seeded
    proposals into node-disjoint waves; (median ms of 7, wave count)."""
    from repro.bulk.matching import iter_disjoint_waves

    n = 100_000
    rng = np.random.default_rng(seed)
    initiators = np.arange(n)
    targets = (initiators + rng.integers(1, n, n)) % n
    extra = np.zeros(n, dtype=bool)
    samples = []
    for _ in range(7):
        wave_rng = np.random.default_rng(seed)
        start = now()
        waves = sum(
            1 for _ in iter_disjoint_waves(initiators, targets, extra, wave_rng, n)
        )
        samples.append(now() - start)
    return statistics.median(samples) * 1e3, waves


def probe_framing() -> float:
    """Direct probe of ``repro.distributed.framing``: one 16 MB dict of
    arrays through ``send_message``/``recv_message`` over a socketpair;
    median MB/s of 7."""
    from repro.distributed.framing import recv_message, send_message

    payload = {f"column{i}": np.arange(500_000, dtype=np.float64) for i in range(4)}
    left, right = socket.socketpair()
    rates = []
    try:
        for _ in range(7):
            received = []
            reader = threading.Thread(
                target=lambda: received.append(recv_message(right))
            )
            start = now()
            reader.start()
            sent = send_message(left, payload)
            reader.join()
            rates.append(sent / (now() - start) / 1e6)
            if not received or len(received[0]) != len(payload):
                raise RuntimeError("framing probe: message did not arrive intact")
    finally:
        left.close()
        right.close()
    return statistics.median(rates)


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def layer_metrics(report, run: dict) -> dict:
    """Per-layer metrics of a traced run: bench spans from ``run`` and
    the program's stream from ``report``, per traced cycle.  A span or
    counter the stream does not carry (a layer that did not run) reads 0."""
    cycles = max(report.cycles, 1)
    counters = report.counters

    def span_ms(path: str) -> float:
        stat = report.spans.get(path)
        return stat.total_ns / 1e6 / cycles if stat else 0.0

    def suffix_ms(suffix: str, worker: bool) -> float:
        """Every span ending in ``suffix``, on the driver or summed
        over the workers."""
        return sum(
            stat.total_ns / 1e6 / cycles
            for path, stat in report.spans.items()
            if stat.is_worker == worker and path.rsplit("/", 1)[-1] == suffix
        )

    def per_cycle(counter: str) -> float:
        return counters.get(counter, 0) / cycles

    def wire_mb(command: Optional[str] = None) -> float:
        prefix = f"wire.{command}." if command else "wire."
        sent = per_cycle(prefix + "sent_bytes")
        return (sent + per_cycle(prefix + "recv_bytes")) / 1e6

    cycle_ms = [seconds * 1e3 for seconds in run["cycle_s"]]
    bus = run["bus"]
    kernel_ms = per_cycle("worker_kernel_ns") / 1e6
    wait_ms = per_cycle("barrier_wait_ns") / 1e6
    reached = run["reached"]
    metrics = {
        "cycle.p50_ms": statistics.median(cycle_ms[WARMUP:]),
        "cycle.p90_ms": percentile(cycle_ms[WARMUP:], 0.90),
        "cycle.first_ms": cycle_ms[0],
        "protocol.cycles_to_sdm": reached["cycles"] if reached else 0,
        "protocol.final_sdm_per_node": run["final_sdm_per_node"],
        "protocol.swap_success_ratio": (
            bus["swaps"] / bus["intended_swaps"] if bus["intended_swaps"] else 0.0
        ),
        "protocol.lost_share": bus["lost"] / bus["sent"] if bus["sent"] else 0.0,
        "protocol.delayed_share": bus["delayed"] / bus["sent"] if bus["sent"] else 0.0,
        "metrics.probe_ms": statistics.median(run["probe_s"]) * 1e3,
        "metrics.gdm_ms": run["gdm_s"] * 1e3,
        "bulk.plan_ms": span_ms("plan"),
        "bulk.rebalance_ms": span_ms("rebalance"),
        "bulk.waves_per_cycle": per_cycle("sampler.waves"),
        "vectorized.churn_ms": span_ms("churn"),
        "vectorized.refresh_ms": span_ms("refresh"),
        "vectorized.refresh.age_purge_ms": span_ms("refresh/age_purge"),
        "vectorized.refresh.partner_select_ms": span_ms("refresh/partner_select"),
        "vectorized.refresh.waves_ms": span_ms("refresh/waves"),
        "vectorized.ranking_ms": span_ms("ranking"),
        "vectorized.ranking.fold_ms": span_ms("ranking/fold"),
        "vectorized.ranking.targets_ms": span_ms("ranking/targets"),
        "vectorized.ranking.estimates_ms": span_ms("ranking/estimates"),
        "vectorized.ranking.upd_deliver_ms": span_ms("ranking/upd_deliver"),
        "vectorized.ordering_ms": span_ms("ordering"),
        "vectorized.exchanges_per_cycle": per_cycle("sampler.exchanges"),
        "vectorized.upd_messages_per_cycle": per_cycle("ranking.upd_messages"),
        "sharded.barriers_per_cycle": per_cycle("barriers"),
        "sharded.commands_per_cycle": per_cycle("commands"),
        "sharded.worker_kernel_ms": kernel_ms,
        "sharded.barrier_wait_ms": wait_ms,
        "sharded.utilization": (
            kernel_ms / (kernel_ms + wait_ms) if kernel_ms + wait_ms else 0.0
        ),
        "sharded.close_s": run["close_s"],
        "sharded.leaked_segments": run["leaked"],
        "distributed.wire_mb_per_cycle": wire_mb(),
        "distributed.frames_per_cycle": per_cycle("wire.frames"),
        "distributed.serialize_ms": suffix_ms("serialize", worker=True),
        "distributed.deserialize_ms": suffix_ms("deserialize", worker=True),
        "distributed.compute_ms": suffix_ms("compute", worker=True),
        "obs.coverage": report.coverage,
        "host.cpu_s_per_cycle": run["cpu_s"] / len(cycle_ms),
    }
    for command in (
        "refresh_swap",
        "rank_fold",
        "rank_apply",
        "refresh_age",
        "refresh_fill_partners",
    ):
        metrics[f"sharded.cmd.{command}_ms"] = suffix_ms("cmd:" + command, worker=False)
    for command in ("refresh_swap", "fetch_rows", "rank_apply", "rank_targets"):
        metrics[f"distributed.wire.{command}_mb"] = wire_mb(command)
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """One run of ``workload``: ``(metrics, detail, failures)``."""
    import_s = import_program()
    spec = run_spec(workload, seed)
    detail = {"workload": workload.name, "seed": seed, "trace": trace}
    detail["calib_before_ms"] = calibrate()
    cap_s = TIME_CAP * seconds

    if not trace:
        setups = [timed_setup(spec) for _ in range(SETUP_REPEATS - 1)]
        run = run_once(workload, spec, seconds, cap_s)
        setups.append(run["setup_s"])
        cycle_s = run["cycle_s"]
        timed = cycle_s[WARMUP:]
        reached = run["reached"] or {"cycles": len(cycle_s), "seconds": sum(cycle_s)}
        to_sdm = reached["cycles"]
        # Host contention only ever adds time — in bursts and in phases
        # that outlast a run — so both rates are read off the fastest
        # decile of the timed calls, not off sums; the plain sums stay
        # in the detail line.
        cycle_wall = percentile(timed, 0.10)
        metrics = {
            "cycles_per_s": 1.0 / cycle_wall,
            "time_to_sdm_s": (
                to_sdm * cycle_wall + sum(run["probe_s"][: to_sdm // PROBE_EVERY])
            ),
            "peak_rss_mb": peak_rss_mb(),
            # The first build is cold and stalls are additive: fastest of three.
            "setup_s": min(setups),
        }
        detail["mean_cycles_per_s"] = len(timed) / sum(timed)
        detail["wall_to_sdm_s"] = reached["seconds"]
        detail["setups_s"] = setups
    else:
        from repro.obs import CycleReport, Telemetry, Watchdog

        # Telemetry off, same spec, a third of the time: the yardstick
        # the traced cycles are compared against for obs.overhead_pct.
        plain = run_once(workload, spec, seconds / 3, cap_s, until_reached=False)
        telemetry = Telemetry(engine=spec.backend, watchdog=Watchdog())
        # Budget 0: the traced run stops at the threshold cycle, which
        # is fixed for a seed, so every per-cycle count repeats exactly.
        run = run_once(workload, spec, 0.0, cap_s, telemetry=telemetry)
        report = CycleReport(telemetry.records)
        metrics = layer_metrics(report, run)
        shared = min(len(plain["cycle_s"]), len(run["cycle_s"]))
        window = slice(min(WARMUP, shared - 1), shared)
        metrics["obs.overhead_pct"] = 100.0 * (
            statistics.median(run["cycle_s"][window])
            / statistics.median(plain["cycle_s"][window])
            - 1.0
        )
        metrics["experiments.import_s"] = import_s
        matching_ms, matching_waves = probe_matching(seed)
        metrics["bulk.matching_ms"] = matching_ms
        metrics["bulk.matching_waves"] = matching_waves
        metrics["distributed.framing_mb_per_s"] = probe_framing()
        detail["serial_spine"] = report.serial_spine()
        detail["traced_cycles"] = report.cycles
        run["failures"] += plain["failures"]

    detail["calib_after_ms"] = calibrate()
    if trace:
        metrics["host.calib_ms"] = statistics.median(
            [detail["calib_before_ms"], detail["calib_after_ms"]]
        )
    detail["cycles"] = len(run["cycle_s"])
    detail["cycle_ms"] = [round(seconds * 1e3, 3) for seconds in run["cycle_s"]]
    detail["probe_ms"] = [round(seconds * 1e3, 3) for seconds in run["probe_s"]]
    detail["cycles_to_sdm"] = run["reached"]["cycles"] if run["reached"] else None
    detail["final_sdm_per_node"] = run["final_sdm_per_node"]
    detail["digest"] = run.get("digest")
    return metrics, detail, run["failures"]
