"""Traversal-probability-weighted LDG (the paper's closing future-work item).

Section 5: "it would be interesting to extend our base partitioning
heuristic (LDG) to incorporate edge traversal probabilities from the
TPSTry++ into the process of selecting assignment partitions."

:class:`TraversalAwareLDG` does exactly that for single-vertex placement:
instead of counting each placed neighbour as weight 1, a neighbour ``u``
contributes ``base + p(label(v), label(u))`` where ``p`` is the TPSTry++
p-value of the two-vertex motif over the edge's labels -- the probability
that a random workload query traverses an edge shaped like ``(v, u)``.
Edges no query ever walks contribute only the small ``base`` weight, so
the heuristic stops paying balance for locality nobody will use.

Usable standalone (it is a regular
:class:`~repro.partitioning.base.StreamingVertexPartitioner`) and inside
LOOM via ``LoomConfig(traversal_aware_singles=True)`` (ablation A4).
"""

from __future__ import annotations

from collections.abc import Collection

from repro.graph.labelled import Label, Vertex
from repro.partitioning.base import PartitionAssignment, StreamingVertexPartitioner
from repro.tpstry.estimation import edge_motif_probability
from repro.tpstry.trie import TPSTryPP


class TraversalAwareLDG(StreamingVertexPartitioner):
    """LDG with neighbour weights from TPSTry++ traversal probabilities."""

    name = "ta-ldg"

    def __init__(self, trie: TPSTryPP, *, base_weight: float = 0.1) -> None:
        if base_weight < 0:
            raise ValueError("base_weight must be non-negative")
        self.trie = trie
        self.base_weight = base_weight
        self._labels: dict[Vertex, Label] = {}
        self._edge_probability_cache: dict[tuple[Label, Label], float] = {}

    # ------------------------------------------------------------------
    def record_label(self, vertex: Vertex, label: Label) -> None:
        """Teach the heuristic a vertex's label ahead of placement.

        LOOM calls this on every vertex arrival so that neighbours placed
        by *group* assignment (which bypasses ``place``) still weight
        correctly.  Unknown neighbours degrade gracefully to the base
        weight.
        """
        self._labels[vertex] = label

    def forget_label(self, vertex: Vertex) -> None:
        """Drop a deleted vertex's label record (churn streams): the table
        must not grow without bound, and a re-arrival under a new label
        must never read the old one."""
        self._labels.pop(vertex, None)

    def edge_probability(self, label_a: Label, label_b: Label) -> float:
        """p-value of the two-vertex motif ``label_a -- label_b`` (cached)."""
        key = (label_a, label_b) if label_a <= label_b else (label_b, label_a)
        cached = self._edge_probability_cache.get(key)
        if cached is None:
            cached = edge_motif_probability(self.trie, key[0], key[1])
            self._edge_probability_cache[key] = cached
        return cached

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        self._labels[vertex] = label
        weights = [0.0] * assignment.k
        for neighbour in placed_neighbours:
            partition = assignment.partition_of(neighbour)
            if partition is None:
                continue
            neighbour_label = self._labels.get(neighbour)
            if neighbour_label is None:
                weight = self.base_weight
            else:
                weight = self.base_weight + self.edge_probability(
                    label, neighbour_label
                )
            weights[partition] += weight
        feasible = assignment.feasible_partitions()
        if not feasible:
            return self.fallback_partition(assignment)
        capacity = assignment.capacity
        return max(
            feasible,
            key=lambda i: (
                weights[i] * (1.0 - assignment.size(i) / capacity),
                -assignment.size(i),
                -i,
            ),
        )
