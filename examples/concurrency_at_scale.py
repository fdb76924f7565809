#!/usr/bin/env python
"""Figure 4(c)/(d) at scale: message overlap beyond n = 10^4.

The paper's Section 4.5.2 artificially introduces *concurrency* — a
message may carry its sender's state at send time yet be applied only
after other exchanges of the cycle have run — and measures two things
for the ordering algorithms:

* Figure 4(c): the percentage of *unsuccessful swaps* (an intended
  exchange spoiled by a stale payload) under half and full overlap;
* Figure 4(d): how little full concurrency costs in convergence.

The paper stops at n = 10^4.  The bulk backends now run the same
overlap regimes in batched form (``repro.bulk.concurrency``): planned
per-message overlap masks split each exchange into a REQ phase and a
deferred-ACK phase, reproducing the reference engine's one-sided stale
swaps — so this study runs at 10^5..10^7 nodes.  Sharded output is
bitwise identical to vectorized at every worker count, concurrency
included.

Run:  python examples/concurrency_at_scale.py                (10^5 nodes)
      python examples/concurrency_at_scale.py --n 1000000    (10^6, slower)
      python examples/concurrency_at_scale.py --backend sharded --workers 8
"""

import argparse
import time

from repro.experiments.config import RunSpec, build_simulation
from repro.metrics.collectors import SliceDisorderCollector


def run_regime(base: RunSpec, concurrency):
    spec = base.with_overrides(concurrency=concurrency)
    sim = build_simulation(spec)
    collector = SliceDisorderCollector(name=str(concurrency))
    started = time.perf_counter()
    sim.run(spec.cycles, collectors=[collector])
    elapsed = time.perf_counter() - started
    stats = sim.bus_stats
    unsuccessful_pct = 100.0 * stats.unsuccessful_swaps / max(stats.intended_swaps, 1)
    final_sdm = collector.series.final
    sim.close()
    return unsuccessful_pct, final_sdm, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000, help="population size")
    parser.add_argument("--cycles", type=int, default=30, help="cycles per regime")
    parser.add_argument(
        "--backend", choices=["vectorized", "sharded"], default="vectorized"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads for --backend sharded",
    )
    args = parser.parse_args()

    base = RunSpec(
        n=args.n,
        cycles=args.cycles,
        slice_count=10,
        view_size=20,
        protocol="mod-jk",
        backend=args.backend,
        workers=args.workers,
        seed=0,
    )
    print(
        f"mod-JK, n={args.n:,}, {args.cycles} cycles per regime "
        f"({args.backend} backend)\n"
    )
    print(f"{'concurrency':>12s} {'unsuccessful':>13s} {'final SDM':>12s} {'time':>8s}")
    baseline_sdm = None
    for concurrency in ("none", "half", "full"):
        unsuccessful_pct, final_sdm, elapsed = run_regime(base, concurrency)
        print(
            f"{concurrency:>12s} {unsuccessful_pct:>12.1f}% "
            f"{final_sdm:>12.0f} {elapsed:>7.1f}s"
        )
        if concurrency == "none":
            baseline_sdm = final_sdm
        elif concurrency == "full" and baseline_sdm:
            ratio = final_sdm / baseline_sdm
            print(
                f"\nfull-over-none final-SDM ratio: {ratio:.2f} "
                "(the paper: full concurrency costs only a small factor)"
            )


if __name__ == "__main__":
    main()
