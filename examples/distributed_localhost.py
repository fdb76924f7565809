#!/usr/bin/env python
"""Distributed slicing over a real message transport — end to end.

The paper defines its gossip-based slicing for nodes spread across
machines; the ``distributed`` backend actually runs it that way.  This
example drives a multi-process run over **localhost TCP sockets**: the
driver plans every cycle centrally (churn, random draws, exchange
waves — one ``repro.bulk.CyclePlan``), ships each phase to the shard
workers as length-prefixed framed messages, and merges their replies —
wave-boundary sync and row migration all travel over the wire (the
metrics do not: the driver computes them from columns it holds
itself).  Because the plan and the kernels are shared
with the other bulk backends, the run is *bitwise identical* to a
single-process ``backend="vectorized"`` run, which this example
verifies at the end.

To span real machines instead, start a worker on each host::

    python -m repro.distributed.worker --listen 0.0.0.0:7077

and point the service at them::

    SlicingService(..., backend="distributed",
                   hosts=["hostA:7077", "hostB:7077"])

Run:  python examples/distributed_localhost.py
      python examples/distributed_localhost.py --n 100000 --workers 4
"""

import argparse
import time

from repro import RegularChurn, SlicingService


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20_000, help="population size")
    parser.add_argument("--cycles", type=int, default=20, help="cycles to run")
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="local TCP worker processes to spawn",
    )
    parser.add_argument(
        "--slices", type=int, default=10, help="equal slices to maintain"
    )
    args = parser.parse_args()

    spec = dict(
        size=args.n,
        slices=args.slices,
        algorithm="ranking",
        view_size=10,
        churn=RegularChurn(rate=0.001, period=10),  # paper's Fig 6(d) schedule
        seed=42,
    )

    print(
        f"building a {args.n:,}-node slicing service over localhost TCP "
        f"({args.workers} workers)..."
    )
    started = time.perf_counter()
    service = SlicingService(
        backend="distributed", workers=args.workers, **spec
    )
    print(f"  setup + worker handshake: {time.perf_counter() - started:.1f}s")

    print(f"running {args.cycles} cycles...")
    started = time.perf_counter()
    for checkpoint in range(0, args.cycles, max(args.cycles // 4, 1)):
        service.run(max(args.cycles // 4, 1))
        print(
            f"  cycle {service.cycle:>4d}: "
            f"SDM {service.disorder():10.1f}, "
            f"accuracy {100 * service.accuracy():5.1f}%, "
            f"confident {100 * service.confident_fraction():5.1f}%"
        )
    elapsed = time.perf_counter() - started
    print(f"  {service.cycle / elapsed:.2f} cycles/sec over the wire")

    print("verifying bitwise parity against the vectorized backend...")
    with SlicingService(backend="vectorized", **spec) as reference:
        reference.run(service.cycle)
        assert reference.disorder() == service.disorder()
        assert reference.accuracy() == service.accuracy()
        assert reference.slice_sizes() == service.slice_sizes()
    print(
        "  identical SDM/accuracy/slice sizes — same bits, different machines"
    )
    service.close()


if __name__ == "__main__":
    main()
