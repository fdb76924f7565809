#!/usr/bin/env python
"""Slicing ten million nodes — three orders of magnitude past the paper.

The paper evaluates at n = 10^4; the vectorized backend (PR 1) reached
10^6 on one core.  This example runs the ranking algorithm over 10^7
nodes with the *sharded* backend: one copy of the node state, worker
threads executing every protocol phase over per-worker id ranges of it
(numpy releases the GIL inside the array passes), and the driver
planning churn, random draws and exchange waves centrally — so the run
produces bitwise the same result as the single-threaded backend, just
on all cores, and the state grows with the joiners.

The paper's correlated churn (lowest-attribute nodes leave, newcomers
join above the maximum — its hardest regime) stays live the whole run,
and the report tracks Theorem 5.1 at scale: the fraction of nodes
whose Wald interval already fits inside one slice.

Run:  python examples/ten_million_nodes.py                (~4 GB RAM)
      python examples/ten_million_nodes.py --n 1000000    (smaller)
      python examples/ten_million_nodes.py --workers 4
"""

import argparse
import time

from repro import RegularChurn, SlicingService


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=10_000_000, help="population size"
    )
    parser.add_argument("--cycles", type=int, default=30, help="cycles to run")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads (default: all CPU cores)",
    )
    parser.add_argument(
        "--slices", type=int, default=10, help="equal slices to maintain"
    )
    args = parser.parse_args()

    print(
        f"building a {args.n:,}-node slicing service "
        f"(sharded backend, workers={args.workers or 'all cores'})..."
    )
    started = time.perf_counter()
    service = SlicingService(
        size=args.n,
        slices=args.slices,
        algorithm="ranking",
        backend="sharded",
        workers=args.workers,
        view_size=10,
        churn=RegularChurn(rate=0.001, period=10),  # paper's Fig 6(d) schedule
        seed=42,
    )
    print(f"  setup: {time.perf_counter() - started:.1f}s")

    print(
        f"\n{'cycle':>5}  {'SDM/n':>8}  {'accuracy':>8}  "
        f"{'confident':>9}  {'cyc/s':>6}  {'elapsed':>8}"
    )
    started = time.perf_counter()
    with service:
        while service.cycle < args.cycles:
            step = min(5, args.cycles - service.cycle)
            service.run(step)
            elapsed = time.perf_counter() - started
            print(
                f"{service.cycle:>5}  {service.disorder() / args.n:>8.3f}  "
                f"{service.accuracy():>8.1%}  "
                f"{service.confident_fraction():>9.1%}  "
                f"{service.cycle / elapsed:>6.2f}  {elapsed:>7.1f}s"
            )
        print(
            f"\n{args.n:,} nodes sliced under continuous correlated churn: "
            f"accuracy {service.accuracy():.1%} after {service.cycle} cycles "
            f"({service.cycle / (time.perf_counter() - started):.2f} "
            "cycles/sec wall clock)."
        )
        print(f"final slice sizes: {service.slice_sizes()}")


if __name__ == "__main__":
    main()
