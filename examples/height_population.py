#!/usr/bin/env python
"""Figure 1 of the paper: slicing a population by height.

Ten people with normally distributed heights (skewed toward 2 m in the
paper's drawing) are partitioned into two slices: the short half and
the tall half.  This illustrates why slices are defined by *rank*
proportion rather than by absolute thresholds — a threshold like
"taller than 1.65 m" could produce an empty or overfull group, while
slices are always balanced.

We run it at a slightly larger scale (100 people) so the gossip
protocol has something to do, then print the resulting groups.

Run:  python examples/height_population.py
"""


from repro import (
    CycleSimulation,
    NormalAttributes,
    RankingProtocol,
    SlicePartition,
)

N = 100
SEED = 7


def main():
    partition = SlicePartition.equal(2)  # short half, tall half
    sim = CycleSimulation(
        size=N,
        partition=partition,
        slicer_factory=lambda: RankingProtocol(partition),
        attributes=NormalAttributes(mu=1.72, sigma=0.12),  # heights in meters
        view_size=10,
        seed=SEED,
    )
    sim.run(80)

    names = {0: "short", 1: "tall"}
    groups = {0: [], 1: []}
    for node in sim.live_nodes():
        groups[node.slice_index].append(node.attribute)

    print(f"Population of {N}, heights ~ N(1.72 m, 0.12 m)\n")
    for index in (0, 1):
        heights = sorted(groups[index])
        print(
            f"slice {index} ({names[index]:>5}): {len(heights):>3} members, "
            f"heights {heights[0]:.2f}-{heights[-1]:.2f} m"
        )
    correct = round(sim.accuracy() * N)
    print(f"\n{correct}/{N} nodes self-assigned to their correct slice.")

    # Contrast with an absolute threshold, as in the paper's discussion.
    threshold = 1.65
    short = sum(1 for node in sim.live_nodes() if node.attribute <= threshold)
    print(
        f"\nAn absolute threshold at {threshold} m would split the same "
        f"population {short} / {N - short} — unbalanced, and it would be "
        "empty for a population of basketball players."
    )


if __name__ == "__main__":
    main()
