"""Barrier-count smoke pins for the bulk cycle's dispatch.

Every phase costs one collective round-trip per dispatched command —
on a pool, workers cannot proceed until the driver has collected the
whole wave; in-process the "barrier" is a function return, but the
command sequence, and so the count, is the same.  The fused dispatch
keeps a ranking cycle at exactly

    refresh   age + fill_partners + W swap waves   = 2 + W
    ranking   fold + targets + apply               = 3

i.e. ``sampler.waves + 5`` barriers per cycle — even on churn-active
cycles, where the pre-fusion driver spent ``sampler.waves + 7``
(separate fill and partner-remap commands, plus a ``write_live``
round-trip to ship the membership change).  The specs below churn
every cycle so the pin covers the expensive path, not just the
steady state.  These pins are tier-1 on purpose: any change that
slips an extra round-trip into the spine fails fast at n = 10^4,
long before a ledger would notice the wall-clock cost.
"""

from repro.experiments.config import RunSpec, build_simulation
from repro.obs.telemetry import Telemetry

# The pre-PR-8 driver's per-cycle cost, kept as the ceiling we must
# stay strictly under.
LEGACY_RANKING_OVERHEAD = 7
FUSED_RANKING_OVERHEAD = 5


def _cycle_counters(workers, cycles=5, n=10_000, backend="sharded"):
    telemetry = Telemetry(engine=backend)
    spec = RunSpec(
        n=n, slice_count=10, protocol="ranking",
        backend=backend, workers=workers, seed=13,
        churn="regular", churn_rate=0.01, churn_period=1,
    )
    sim = build_simulation(spec, telemetry=telemetry)
    try:
        sim.run(cycles)
    finally:
        sim.close()
    records = telemetry.cycle_records()
    assert len(records) == cycles
    return [record["counters"] for record in records]


class TestBarrierLeanDispatch:
    def test_ranking_cycle_barrier_budget(self):
        """Each ranking cycle costs exactly waves + 5 barriers."""
        for counters in _cycle_counters(workers=2):
            waves = counters["sampler.waves"]
            assert waves > 0
            assert counters["barriers"] == waves + FUSED_RANKING_OVERHEAD

    def test_strictly_below_legacy_budget(self):
        """The fusion must actually pay: fewer round-trips per cycle
        than the unfused driver ever dispatched."""
        for counters in _cycle_counters(workers=2, cycles=3):
            legacy = counters["sampler.waves"] + LEGACY_RANKING_OVERHEAD
            assert counters["barriers"] < legacy

    def test_inline_executor_counts_identically(self):
        """The in-process executor (``backend="vectorized"``) accounts
        barriers the same way as the pool — the counter reflects
        dispatch structure, not transport — so the waves + 5 pin holds
        for it too."""
        inline = _cycle_counters(workers=None, cycles=3, backend="vectorized")
        pooled = _cycle_counters(workers=2, cycles=3)
        for a, b in zip(inline, pooled):
            assert a["barriers"] == a["sampler.waves"] + FUSED_RANKING_OVERHEAD
            assert a["barriers"] == b["barriers"] == a["commands"]
            assert a["sampler.waves"] == b["sampler.waves"]

    def test_one_barrier_per_command(self):
        """No command escapes the accounting and none double-counts:
        every dispatched command is exactly one collective round-trip."""
        for counters in _cycle_counters(workers=2, cycles=3):
            assert counters["barriers"] == counters["commands"]
