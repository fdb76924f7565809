"""Overlay-graph analysis.

Both the ordering and ranking algorithms rely on the peer-sampling
layer keeping the overlay (the directed graph whose arcs are view
entries) connected and random-graph-like — that is the property behind
the paper's claim that a Cyclon-like protocol "is reportedly the best
approach to achieve a uniform random neighbor set".  This module turns
a set of node views into a :mod:`networkx` graph and computes the
statistics used by the sampler benchmarks and tests (no engine calls
it, so ``networkx`` — the ``analysis`` extra — is imported where it is
used, not with the package):

* in-degree distribution (uniformity of being sampled),
* weak connectivity and largest-component coverage,
* clustering coefficient and an average-path-length estimate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = ["OverlayStats", "build_overlay_graph", "analyze_overlay", "indegree_counts"]


@dataclass(frozen=True)
class OverlayStats:
    """Summary statistics of an overlay graph snapshot."""

    node_count: int
    edge_count: int
    weakly_connected: bool
    largest_component_fraction: float
    mean_in_degree: float
    max_in_degree: int
    min_in_degree: int
    in_degree_std: float
    clustering_coefficient: float
    approx_avg_path_length: Optional[float]


def _networkx():
    try:
        import networkx
    except ImportError as error:
        raise ImportError(
            "overlay analysis needs networkx: pip install '.[analysis]'"
        ) from error
    return networkx


def build_overlay_graph(nodes: Iterable):
    """Directed graph (``networkx.DiGraph``) with an arc ``i -> j`` for
    every view entry.

    ``nodes`` is any iterable of :class:`~repro.engine.node.Node` with
    attached samplers (dead nodes are skipped).
    """
    graph = _networkx().DiGraph()
    live = [node for node in nodes if node.alive]
    graph.add_nodes_from(node.node_id for node in live)
    live_ids = set(graph.nodes)
    for node in live:
        for entry in node.sampler.view:
            if entry.node_id in live_ids:
                graph.add_edge(node.node_id, entry.node_id)
    return graph


def indegree_counts(nodes: Iterable) -> Dict[int, int]:
    """In-degree (number of views containing each node), by node id."""
    graph = build_overlay_graph(nodes)
    return {node_id: degree for node_id, degree in graph.in_degree()}


def analyze_overlay(
    nodes: Iterable,
    path_length_samples: int = 0,
    rng: Optional[random.Random] = None,
) -> OverlayStats:
    """Compute :class:`OverlayStats` for the current views.

    ``path_length_samples > 0`` estimates the average shortest-path
    length from that many random source nodes (BFS on the undirected
    projection); exact all-pairs computation is quadratic and
    unnecessary for the assertions we make.
    """
    nx = _networkx()
    graph = build_overlay_graph(nodes)
    n = graph.number_of_nodes()
    if n == 0:
        return OverlayStats(0, 0, True, 1.0, 0.0, 0, 0, 0.0, 0.0, None)

    undirected = graph.to_undirected()
    components = list(nx.connected_components(undirected))
    largest = max(components, key=len) if components else set()
    in_degrees: List[int] = [degree for _node, degree in graph.in_degree()]
    mean_in = sum(in_degrees) / n
    variance = sum((d - mean_in) ** 2 for d in in_degrees) / n

    avg_path: Optional[float] = None
    if path_length_samples > 0 and len(largest) > 1:
        rng = rng if rng is not None else random.Random(0)
        sources = rng.sample(sorted(largest), min(path_length_samples, len(largest)))
        totals = 0.0
        pairs = 0
        for source in sources:
            lengths = nx.single_source_shortest_path_length(undirected, source)
            for target, distance in lengths.items():
                if target != source:
                    totals += distance
                    pairs += 1
        avg_path = totals / pairs if pairs else None

    return OverlayStats(
        node_count=n,
        edge_count=graph.number_of_edges(),
        weakly_connected=len(components) == 1,
        largest_component_fraction=len(largest) / n,
        mean_in_degree=mean_in,
        max_in_degree=max(in_degrees),
        min_in_degree=min(in_degrees),
        in_degree_std=variance ** 0.5,
        clustering_coefficient=nx.average_clustering(undirected),
        approx_avg_path_length=avg_path,
    )
