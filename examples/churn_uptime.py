#!/usr/bin/env python
"""Slicing by uptime under attribute-correlated churn (Section 5.3.3).

The hardest case in the paper: the attribute *is* session duration, so
churn is maximally correlated with it — short-lived nodes keep leaving
from the bottom of the order while newcomers keep extending the top.
The frozen random values of the ordering algorithm go stale; the
ranking algorithm re-estimates continuously, and its sliding-window
variant forgets pre-churn observations, tracking the drifting
population best.

Run:  python examples/churn_uptime.py
"""

from repro import (
    BurstChurn,
    CycleSimulation,
    OrderingProtocol,
    RankingProtocol,
    SliceDisorderCollector,
    SlicePartition,
)

N = 800
CYCLES = 300
BURST_END = 100
RATE = 0.005  # 0.5% leave + join per cycle during the burst
SLICES = 10
SEED = 23


def run(label):
    partition = SlicePartition.equal(SLICES)
    factories = {
        "ordering": lambda: OrderingProtocol(partition),
        "ranking": lambda: RankingProtocol(partition),
        "sliding-window": lambda: RankingProtocol(partition, window=2000),
    }
    sim = CycleSimulation(
        size=N,
        partition=partition,
        slicer_factory=factories[label],
        view_size=10,
        churn=BurstChurn(rate=RATE, start=0, end=BURST_END),
        seed=SEED,
    )
    collector = SliceDisorderCollector(name=label, every=25)
    sim.run(CYCLES, collectors=[collector])
    return collector.series


def main():
    print(
        f"{N} nodes, attribute = uptime; churn burst of {RATE:.1%}/cycle "
        f"for the first {BURST_END} cycles (lowest-uptime nodes leave, "
        "newcomers outlive everyone)\n"
    )
    series = [run("ordering"), run("ranking"), run("sliding-window")]
    header = f"{'cycle':>6}  " + "  ".join(f"{s.name:>15}" for s in series)
    print(header)
    print("-" * len(header))
    for index, time in enumerate(series[0].times):
        marker = " <- churn stops" if time == BURST_END else ""
        print(
            f"{time:>6g}  "
            + "  ".join(f"{s.values[index]:>15.0f}" for s in series)
            + marker
        )
    print(
        "\nAfter the burst stops, ranking keeps converging while the "
        "ordering algorithm is stuck with stale random values "
        "(Figure 6(c)); the sliding window adapts fastest (Figure 6(d))."
    )


if __name__ == "__main__":
    main()
