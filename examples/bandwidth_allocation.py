#!/usr/bin/env python
"""Resource allocation on a heterogeneous P2P platform.

The paper's motivating scenario: a service-oriented P2P platform must
hand the "best" 20% of peers (by bandwidth) to a video-streaming
application, the middle 30% to file distribution, and the rest to
background tasks.  Measured P2P bandwidths are heavy-tailed, so we
draw them from a Pareto distribution and use an *unequal* slice
partition — something absolute thresholds cannot do robustly because
the distribution is unknown to the operator.

Run:  python examples/bandwidth_allocation.py
"""

from repro import (
    CycleSimulation,
    ParetoAttributes,
    RankingProtocol,
    SlicePartition,
)

N = 1500
SEED = 11

APPLICATIONS = {
    0: "background tasks   (bottom 50%)",
    1: "file distribution  (middle 30%)",
    2: "video streaming    (top 20%)",
}


def main():
    # Slices: (0, 0.5], (0.5, 0.8], (0.8, 1.0].
    partition = SlicePartition.from_boundaries([0.5, 0.8])
    sim = CycleSimulation(
        size=N,
        partition=partition,
        slicer_factory=lambda: RankingProtocol(partition),
        attributes=ParetoAttributes(shape=1.3, scale=1.0),  # Mbps, heavy tail
        view_size=12,
        seed=SEED,
    )
    sim.run(150)

    print(f"{N} peers, Pareto(1.3) bandwidths, 3 unequal slices\n")
    nodes = sim.live_nodes()
    for index, label in APPLICATIONS.items():
        bandwidths = sorted(n.attribute for n in nodes if n.slice_index == index)
        low = bandwidths[0] if bandwidths else float("nan")
        high = bandwidths[-1] if bandwidths else float("nan")
        print(
            f"{label}: {len(bandwidths):>4} peers "
            f"({100 * len(bandwidths) / N:4.1f}%), "
            f"bandwidth {low:8.1f} – {high:10.1f} Mbps"
        )

    correct = round(sim.accuracy() * N)
    print(
        f"\noverall: {correct}/{N} peers "
        f"({100 * correct / N:.1f}%) self-assigned correctly after "
        "150 gossip cycles, with no central coordinator and no knowledge "
        "of the bandwidth distribution."
    )


if __name__ == "__main__":
    main()
