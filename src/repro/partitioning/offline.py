"""Offline multilevel k-way partitioning (the METIS role).

The paper uses METIS as the reference offline partitioner: "a multilevel
technique: it computes a succession of recursively compressed graphs,
partitions the smallest then 'projects' that partitioning onto previous
graphs in the sequence, applying local refinement techniques at each
step".  This module implements that exact pipeline from scratch:

1. **Coarsening** -- repeated heavy-edge matching: each unmatched vertex
   merges with the unmatched neighbour behind its heaviest edge; merged
   vertices accumulate weight, parallel edges accumulate edge weight.
2. **Initial partitioning** -- greedy weighted placement on the coarsest
   graph (affinity to already-placed neighbours, under a weight cap).
3. **Uncoarsening + refinement** -- project the partition down one level
   at a time and apply Kernighan-Lin/Fiduccia-Mattheyses-style boundary
   passes: move boundary vertices to the partition they have the most
   edge weight toward whenever the gain is positive and balance allows.

It serves as the quality bound streaming partitioners are measured
against (experiments E1/E2/E9): better cuts, but needs the whole graph in
memory and a full re-run on growth -- the two shortcomings (section 3.1)
that motivate streaming partitioners in the first place.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from repro.exceptions import PartitioningError
from repro.graph.labelled import LabelledGraph, Vertex
from repro.partitioning.base import (
    PartitionAssignment,
    default_capacity,
)


class _WeightedGraph:
    """Vertex- and edge-weighted graph used across coarsening levels."""

    def __init__(
        self,
        vertex_weights: dict[Vertex, int],
        adjacency: dict[Vertex, dict[Vertex, int]],
    ) -> None:
        self.vertex_weights = vertex_weights
        self.adjacency = adjacency

    @classmethod
    def from_labelled(
        cls,
        graph: LabelledGraph,
        edge_weights: Mapping | None = None,
    ) -> "_WeightedGraph":
        """Lift a labelled graph; optional per-edge weights (keyed by the
        canonical :func:`repro.graph.labelled.edge_key` tuple) make the
        refinement minimise *weighted* cut -- the mechanism by which an
        offline partitioner accounts for a known workload's traversal
        frequencies (paper section 3.1)."""
        weights = {v: 1 for v in graph.vertices()}
        adjacency: dict[Vertex, dict[Vertex, int]] = {
            v: {} for v in graph.vertices()
        }
        for u, v in graph.edges():
            w = 1 if edge_weights is None else int(edge_weights.get((u, v), 1))
            adjacency[u][v] = w
            adjacency[v][u] = w
        return cls(weights, adjacency)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_weights)

    def coarsen(
        self, rng: random.Random, *, max_merged_weight: int
    ) -> tuple["_WeightedGraph", dict[Vertex, Vertex]]:
        """One heavy-edge-matching contraction.

        Returns the coarser graph and the fine-vertex -> coarse-vertex map.
        ``max_merged_weight`` stops super-nodes from outgrowing the balance
        constraint (METIS applies the same guard).
        """
        order = list(self.vertex_weights)
        rng.shuffle(order)
        matched: set[Vertex] = set()
        merge_into: dict[Vertex, Vertex] = {}
        for vertex in order:
            if vertex in matched:
                continue
            matched.add(vertex)
            merge_into[vertex] = vertex
            best_neighbour = None
            best_weight = -1
            for neighbour, weight in self.adjacency[vertex].items():
                if neighbour in matched:
                    continue
                combined = (
                    self.vertex_weights[vertex] + self.vertex_weights[neighbour]
                )
                if combined > max_merged_weight:
                    continue
                if weight > best_weight:
                    best_weight = weight
                    best_neighbour = neighbour
            if best_neighbour is not None:
                matched.add(best_neighbour)
                merge_into[best_neighbour] = vertex

        coarse_weights: dict[Vertex, int] = {}
        coarse_adj: dict[Vertex, dict[Vertex, int]] = {}
        for fine, coarse in merge_into.items():
            coarse_weights[coarse] = (
                coarse_weights.get(coarse, 0) + self.vertex_weights[fine]
            )
            coarse_adj.setdefault(coarse, {})
        for fine, neighbours in self.adjacency.items():
            cu = merge_into[fine]
            for neighbour, weight in neighbours.items():
                cv = merge_into[neighbour]
                if cu == cv:
                    continue
                coarse_adj[cu][cv] = coarse_adj[cu].get(cv, 0) + weight
        # Adjacency is stored in both directions, so each undirected edge
        # contributed once per direction and the result stays symmetric.
        return _WeightedGraph(coarse_weights, coarse_adj), merge_into


def _initial_partition(
    graph: _WeightedGraph, k: int, weight_cap: float, rng: random.Random
) -> dict[Vertex, int]:
    """Greedy weighted placement on the coarsest graph."""
    part: dict[Vertex, int] = {}
    loads = [0.0] * k
    order = sorted(
        graph.vertex_weights,
        key=lambda v: (-graph.vertex_weights[v], repr(v)),
    )
    for vertex in order:
        weight = graph.vertex_weights[vertex]
        affinity = [0.0] * k
        for neighbour, edge_weight in graph.adjacency[vertex].items():
            target = part.get(neighbour)
            if target is not None:
                affinity[target] += edge_weight
        feasible = [i for i in range(k) if loads[i] + weight <= weight_cap]
        if feasible:
            choice = max(feasible, key=lambda i: (affinity[i], -loads[i], -i))
        else:
            choice = min(range(k), key=lambda i: (loads[i], i))
        part[vertex] = choice
        loads[choice] += weight
    return part


def _refine(
    graph: _WeightedGraph,
    part: dict[Vertex, int],
    k: int,
    weight_cap: float,
    passes: int,
) -> None:
    """KL/FM-style boundary refinement, in place."""
    loads = [0.0] * k
    for vertex, partition in part.items():
        loads[partition] += graph.vertex_weights[vertex]

    for _ in range(passes):
        moved = 0
        for vertex in graph.vertex_weights:
            home = part[vertex]
            connectivity = [0.0] * k
            boundary = False
            for neighbour, edge_weight in graph.adjacency[vertex].items():
                target = part[neighbour]
                connectivity[target] += edge_weight
                if target != home:
                    boundary = True
            if not boundary:
                continue
            weight = graph.vertex_weights[vertex]
            best_target = home
            best_gain = 0.0
            for candidate in range(k):
                if candidate == home:
                    continue
                if loads[candidate] + weight > weight_cap:
                    continue
                gain = connectivity[candidate] - connectivity[home]
                balance_break = loads[home] - loads[candidate] > weight
                if gain > best_gain or (
                    gain == best_gain and gain >= 0 and balance_break
                    and best_target == home
                ):
                    if gain > 0 or balance_break:
                        best_gain = gain
                        best_target = candidate
            if best_target != home:
                part[vertex] = best_target
                loads[home] -= weight
                loads[best_target] += weight
                moved += 1
        if not moved:
            break


def multilevel_partition(
    graph: LabelledGraph,
    k: int,
    *,
    slack: float = 1.1,
    rng: random.Random | None = None,
    coarsen_to: int | None = None,
    refinement_passes: int = 4,
    edge_weights: Mapping | None = None,
) -> PartitionAssignment:
    """Partition a whole (static) graph with the multilevel pipeline.

    ``coarsen_to`` bounds the coarsest graph's size (default
    ``max(40, 8k)``); ``refinement_passes`` caps the boundary passes per
    level; ``edge_weights`` (canonical edge tuple -> positive int) biases
    the refinement toward keeping heavy edges internal.  Returns a
    standard :class:`PartitionAssignment` whose capacity is the usual
    ``ceil(slack * n / k)``.
    """
    if graph.num_vertices == 0:
        raise PartitioningError("cannot partition an empty graph")
    if k < 1:
        raise PartitioningError("k must be >= 1")
    local_rng = rng or random.Random(0)
    capacity = default_capacity(graph.num_vertices, k, slack)
    weight_cap = float(capacity)
    target = coarsen_to or max(40, 8 * k)

    levels: list[_WeightedGraph] = [
        _WeightedGraph.from_labelled(graph, edge_weights)
    ]
    mappings: list[dict[Vertex, Vertex]] = []
    max_merged = max(2, capacity // 4)
    while levels[-1].num_vertices > target:
        coarser, mapping = levels[-1].coarsen(
            local_rng, max_merged_weight=max_merged
        )
        if coarser.num_vertices >= 0.95 * levels[-1].num_vertices:
            break  # matching stalled (e.g. star graphs); stop coarsening
        levels.append(coarser)
        mappings.append(mapping)

    part = _initial_partition(levels[-1], k, weight_cap, local_rng)
    _refine(levels[-1], part, k, weight_cap, refinement_passes)

    for level_index in range(len(mappings) - 1, -1, -1):
        mapping = mappings[level_index]
        fine = levels[level_index]
        part = {v: part[mapping[v]] for v in fine.vertex_weights}
        _refine(fine, part, k, weight_cap, refinement_passes)

    assignment = PartitionAssignment(k, capacity)
    overflow: list[Vertex] = []
    for vertex, partition in part.items():
        if assignment.size(partition) < capacity:
            assignment.assign(vertex, partition)
        else:
            overflow.append(vertex)
    for vertex in overflow:
        assignment.assign(
            vertex,
            min(
                assignment.feasible_partitions(),
                key=lambda i: (assignment.size(i), i),
            ),
        )
    return assignment

