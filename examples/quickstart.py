#!/usr/bin/env python
"""Quickstart: slice a 1000-node network into 10 groups by capacity.

Runs the paper's two algorithm families side by side on the same
population and shows the slice disorder measure (SDM) falling:

* the **ordering** algorithm (mod-JK) — fast, but floored by the
  spread of its random values;
* the **ranking** algorithm — slower start, keeps improving.

Run:  python examples/quickstart.py
"""

from repro import (
    CycleSimulation,
    OrderingProtocol,
    RankingProtocol,
    SliceDisorderCollector,
    SlicePartition,
)

N = 1000
CYCLES = 120
SLICES = 10
VIEW = 10
SEED = 42


def run(protocol_name):
    partition = SlicePartition.equal(SLICES)
    if protocol_name == "ordering (mod-JK)":
        factory = lambda: OrderingProtocol(partition)
    else:
        factory = lambda: RankingProtocol(partition)
    sim = CycleSimulation(
        size=N,
        partition=partition,
        slicer_factory=factory,
        view_size=VIEW,
        seed=SEED,
    )
    collector = SliceDisorderCollector(name=protocol_name, every=10)
    sim.run(CYCLES, collectors=[collector])
    return collector.series


def main():
    print(f"Slicing {N} nodes into {SLICES} equal slices ({CYCLES} cycles)\n")
    series = [run("ordering (mod-JK)"), run("ranking")]
    header = f"{'cycle':>6}  " + "  ".join(f"{s.name:>18}" for s in series)
    print(header)
    print("-" * len(header))
    for index, time in enumerate(series[0].times):
        row = f"{time:>6g}  " + "  ".join(
            f"{s.values[index]:>18.0f}" for s in series
        )
        print(row)
    print(
        "\nSDM = summed distance between each node's true slice and the "
        "slice it believes it is in (0 = perfect).\n"
        "Note the ordering algorithm plateaus (random-value floor) while "
        "ranking keeps improving — Figure 6(a) of the paper."
    )


if __name__ == "__main__":
    main()
