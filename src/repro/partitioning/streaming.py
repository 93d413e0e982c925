"""The Stanton & Kliot streaming heuristic family (KDD'12).

LOOM's base heuristic is **Linear Deterministic Greedy** (LDG): assign a
new vertex to the partition where it has the most edges, weighting each
partition's edge count by its free capacity ``1 - |V_i|/C`` so fuller
partitions are progressively penalised (paper section 4.1).  The other
members of the family are kept both as experiment baselines and because
the paper's ordering-sensitivity discussion (section 3.1) is really about
this family's behaviour.

``ldg_score``/``ldg_group_score`` expose the scoring rule itself: LOOM
reuses it to place whole motif matches ("when assigning sub-graphs, LDG
considers the total edges from all vertices, to each partition" --
footnote 1 of the paper).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping

from repro.graph.labelled import Label, Vertex
from repro.partitioning.base import PartitionAssignment, StreamingVertexPartitioner


def ldg_score(
    edges_to_partition: int, partition_size: int, capacity: int
) -> float:
    """The LDG objective for one candidate partition.

    ``|N(v) ∩ V_i| * (1 - |V_i|/C)`` -- edges weighted by free capacity.
    """
    return edges_to_partition * (1.0 - partition_size / capacity)


def ldg_group_score(
    edges_to_partition: int,
    partition_size: int,
    group_size: int,
    capacity: int,
) -> float:
    """LDG objective for placing a whole ``group_size``-vertex sub-graph.

    The capacity penalty is evaluated at the size the partition would
    reach, so large groups feel the balance pressure proportionally.
    """
    projected = partition_size + group_size
    return edges_to_partition * (1.0 - projected / (capacity + group_size))


class BalancedPartitioner(StreamingVertexPartitioner):
    """Ignore edges entirely: always the least-loaded partition."""

    name = "balanced"

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        return self.fallback_partition(assignment)


class ChunkingPartitioner(StreamingVertexPartitioner):
    """Fill partition 0, then 1, ... in arrival order (locality only if the
    stream order has it, e.g. BFS crawls)."""

    name = "chunking"

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        for partition in range(assignment.k):
            if assignment.free_capacity(partition) > 0:
                return partition
        return self.fallback_partition(assignment)


class DeterministicGreedy(StreamingVertexPartitioner):
    """Unweighted greedy: argmax ``|N(v) ∩ V_i|``; ties to least loaded.

    Without a balance weight this collapses toward one partition on
    connected streams -- kept as the cautionary baseline.
    """

    name = "greedy"

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        counts = self.neighbour_counts(placed_neighbours, assignment)
        feasible = assignment.feasible_partitions()
        if not feasible:
            return self.fallback_partition(assignment)
        return max(feasible, key=lambda i: (counts[i], -assignment.size(i), -i))


class LinearDeterministicGreedy(StreamingVertexPartitioner):
    """LDG -- LOOM's base heuristic.

    argmax ``|N(v) ∩ V_i| * (1 - |V_i|/C)``; ties broken toward the
    least-loaded partition (then lowest index) to keep placement
    deterministic.
    """

    name = "ldg"

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        # Hand-rolled argmax over (score, -size, -i): this is the hot loop
        # executed once per streamed vertex (alone and inside LOOM), so no
        # per-candidate tuple/lambda allocation.
        counts = self.neighbour_counts(placed_neighbours, assignment)
        sizes = assignment.sizes_view()
        capacity = assignment.capacity
        best = -1
        best_score = 0.0
        best_size = 0
        for i in range(assignment.k):
            size = sizes[i]
            if size >= capacity:
                continue
            score = counts[i] * (1.0 - size / capacity)
            if (
                best < 0
                or score > best_score
                or (score == best_score and size < best_size)
            ):
                best = i
                best_score = score
                best_size = size
        if best < 0:
            return self.fallback_partition(assignment)
        return best


class ExponentialDeterministicGreedy(StreamingVertexPartitioner):
    """Exponentially weighted greedy:
    ``|N(v) ∩ V_i| * (1 - exp(|V_i| - C))``."""

    name = "edg"

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        counts = self.neighbour_counts(placed_neighbours, assignment)
        feasible = assignment.feasible_partitions()
        if not feasible:
            return self.fallback_partition(assignment)

        def score(i: int) -> float:
            return counts[i] * (
                1.0 - math.exp(assignment.size(i) - assignment.capacity)
            )

        return max(feasible, key=lambda i: (score(i), -assignment.size(i), -i))


def choose_partition_for_group(
    assignment: PartitionAssignment,
    group_external_counts: Mapping[int, int],
    group_size: int,
) -> int:
    """Sub-graph LDG: the partition maximising the group score, among those
    that can absorb the whole group; falls back to the emptiest partition
    that fits (splitting is the caller's job when nothing fits).
    """
    feasible = assignment.feasible_partitions(room_for=group_size)
    if not feasible:
        raise LookupError("no partition can absorb the group")
    return max(
        feasible,
        key=lambda i: (
            ldg_group_score(
                group_external_counts.get(i, 0),
                assignment.size(i),
                group_size,
                assignment.capacity,
            ),
            -assignment.size(i),
            -i,
        ),
    )
