"""Invariant watchdog: re-checks, every cycle, the accounting
identities the telemetry layer documents — so drift raises loudly at
the offending cycle instead of rotting into the ledger's numbers.

The checks mirror identities pinned by the test suite:

* ``barrier_identity`` — dispatch accounting: per cycle,
  ``worker_kernel_ns + barrier_wait_ns == workers * sum(cmd:* span
  ns)`` exactly (wait is defined as each worker's idle remainder of
  the dispatch span; the in-process executor of a vectorized run is
  the ``workers = 1`` case, all kernel and no wait).  The simulation's
  executor says how many shards it has and whether a command may
  address only some of them (the transport's ``fetch_rows`` hits only
  partner shards); there the sum is bounded by the 1- and all-worker
  cases instead.
* ``wire_sums`` — per-command ``wire.<cmd>.sent_bytes`` /
  ``.recv_bytes`` counters must sum exactly to the cycle's
  ``wire.sent_bytes`` / ``wire.recv_bytes`` totals.
* ``occupancy_partition`` — the per-shard live occupancies reported
  back by refresh must partition the run's live count:
  ``sum(shard_live_loads()) == state.live_count``.
* ``counter_consistency`` — the driver's ``commands`` counter must
  equal the summed dispatch count of every ``cmd:*`` span.

A violation raises :class:`WatchdogViolation` carrying the check name,
the cycle number (in the message) and the full offending record.
Checks whose inputs are absent from a record (the reference engine
dispatches no commands; refresh is skipped below two live nodes) are
skipped, so one watchdog serves every engine.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["Watchdog", "WatchdogViolation", "WATCHDOG_CHECKS"]

#: All check names, in the order they run.
WATCHDOG_CHECKS = (
    "barrier_identity",
    "wire_sums",
    "occupancy_partition",
    "counter_consistency",
)


class WatchdogViolation(RuntimeError):
    """An invariant failed; carries the check, cycle and record."""

    def __init__(self, check: str, cycle, record: dict, detail: str) -> None:
        self.check = check
        self.cycle = cycle
        self.record = record
        super().__init__(
            f"watchdog check {check!r} failed at cycle {cycle}: {detail}"
        )


def _dispatch_spans(record: dict):
    """The ``cmd:*`` dispatch spans of a cycle record."""
    return {
        path: value
        for path, value in record.get("spans", {}).items()
        if path.rsplit("/", 1)[-1].startswith("cmd:")
    }


class Watchdog:
    """Runs the named invariant checks against each finished cycle
    record; engines call :meth:`check` at the end of ``run_cycle``."""

    def __init__(self, checks: Optional[Iterable[str]] = None) -> None:
        names = tuple(checks) if checks is not None else WATCHDOG_CHECKS
        unknown = set(names) - set(WATCHDOG_CHECKS)
        if unknown:
            raise ValueError(f"unknown watchdog checks: {sorted(unknown)}")
        self.checks = names
        self.cycles_checked = 0

    def check(self, sim, record: dict) -> None:
        """Validate one cycle record against the simulation that
        produced it.  Raises :class:`WatchdogViolation` on failure."""
        if record.get("kind") != "cycle":
            return
        cycle = record.get("cycle")
        for name in self.checks:
            getattr(self, "_check_" + name)(sim, record, cycle)
        self.cycles_checked += 1

    # -- individual checks --------------------------------------------

    def _check_barrier_identity(self, sim, record, cycle) -> None:
        counters = record.get("counters", {})
        if "worker_kernel_ns" not in counters:
            return  # no dispatch this cycle (or not a bulk engine)
        dispatch_ns = sum(v[0] for v in _dispatch_spans(record).values())
        if dispatch_ns == 0:
            return
        accounted = counters["worker_kernel_ns"] + counters.get(
            "barrier_wait_ns", 0
        )
        workers = len(sim.executor.bounds)
        if sim.executor.addresses_subsets:
            if not dispatch_ns <= accounted <= workers * dispatch_ns:
                raise WatchdogViolation(
                    "barrier_identity", cycle, record,
                    f"kernel+wait = {accounted} ns outside "
                    f"[{dispatch_ns}, {workers * dispatch_ns}] ns "
                    f"({workers} workers)",
                )
        elif accounted != workers * dispatch_ns:
            raise WatchdogViolation(
                "barrier_identity", cycle, record,
                f"kernel+wait = {accounted} ns != workers * dispatch = "
                f"{workers} * {dispatch_ns} ns",
            )

    def _check_wire_sums(self, sim, record, cycle) -> None:
        counters = record.get("counters", {})
        for direction in ("sent_bytes", "recv_bytes"):
            total_key = f"wire.{direction}"
            if total_key not in counters:
                continue
            per_command = sum(
                value
                for key, value in counters.items()
                if key.startswith("wire.")
                and key.endswith("." + direction)
                and key.count(".") == 2
            )
            if per_command != counters[total_key]:
                raise WatchdogViolation(
                    "wire_sums", cycle, record,
                    f"per-command {direction} sum {per_command} != "
                    f"total {counters[total_key]}",
                )

    def _check_occupancy_partition(self, sim, record, cycle) -> None:
        if "refresh" not in record.get("spans", {}):
            return  # only the bulk cycle refreshes shards
        loads = sim.shard_live_loads()
        if not loads:
            return
        live = sim.state.live_count
        if sum(loads) != live:
            raise WatchdogViolation(
                "occupancy_partition", cycle, record,
                f"shard occupancies {list(loads)} sum to {sum(loads)} "
                f"but live count is {live}",
            )

    def _check_counter_consistency(self, sim, record, cycle) -> None:
        counters = record.get("counters", {})
        if "commands" not in counters:
            return
        span_commands = sum(
            v[1] for v in _dispatch_spans(record).values()
        )
        if counters["commands"] != span_commands:
            raise WatchdogViolation(
                "counter_consistency", cycle, record,
                f"commands counter {counters['commands']} != "
                f"cmd:* span count {span_commands}",
            )
