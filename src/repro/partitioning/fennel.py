"""Fennel: streaming partitioning with an interpolated objective
(Tsourakakis, Gkantsidis, Radunovic & Vojnovic, WSDM'14).

Fennel places an arriving vertex in the partition maximising

    |N(v) ∩ V_i|  -  alpha * gamma * |V_i| ** (gamma - 1)

with ``gamma = 1.5`` and ``alpha = sqrt(k) * m / n ** 1.5`` by default,
subject to the load constraint ``|V_i| < nu * n / k``.  The first term is
the modularity-style attraction of LDG; the second is a convex cost on
partition size that replaces LDG's multiplicative penalty.  The paper
cites Fennel as the scalability yardstick for streaming partitioners, so
it is a first-class baseline in every quality experiment.

When ``n``/``m`` are not known ahead of the stream (the truly online
case), running counts are used and ``alpha`` adapts as the stream unfolds.
"""

from __future__ import annotations

import math
from collections.abc import Collection

from repro.engine.registry import default_registry
from repro.exceptions import PartitioningError
from repro.graph.labelled import Label, Vertex
from repro.partitioning.base import PartitionAssignment, StreamingVertexPartitioner


@default_registry.register(
    "fennel",
    description="Fennel interpolated-objective streaming partitioner (WSDM'14)",
)
class FennelPartitioner(StreamingVertexPartitioner):
    """One-pass Fennel with fixed or adaptive ``alpha``."""

    name = "fennel"

    def __init__(
        self,
        *,
        gamma: float = 1.5,
        expected_vertices: int | None = None,
        expected_edges: int | None = None,
        balance_slack: float = 1.1,
    ) -> None:
        if gamma <= 1.0:
            raise PartitioningError("gamma must exceed 1 (convex size cost)")
        if balance_slack < 1.0:
            raise PartitioningError("balance slack must be >= 1.0")
        self.gamma = gamma
        self.expected_vertices = expected_vertices
        self.expected_edges = expected_edges
        self.balance_slack = balance_slack
        self._seen_vertices = 0
        self._seen_edges = 0

    @classmethod
    def from_request(cls, request) -> "FennelPartitioner":
        """Draw the stream's size hints and slack from the request."""
        vertices, edges = request.size_hint()
        return cls(
            expected_vertices=vertices,
            expected_edges=edges,
            balance_slack=request.slack,
        )

    # ------------------------------------------------------------------
    def _alpha(self, k: int) -> float:
        n = self.expected_vertices or max(self._seen_vertices, 1)
        m = self.expected_edges or max(self._seen_edges, 1)
        return math.sqrt(k) * m / (n ** self.gamma)

    def _load_limit(self, assignment: PartitionAssignment) -> float:
        n = self.expected_vertices or max(self._seen_vertices, 1)
        limit = self.balance_slack * n / assignment.k
        # Never exceed the hard capacity of the assignment itself.
        return min(limit, assignment.capacity)

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        self._seen_vertices += 1
        self._seen_edges += len(placed_neighbours)
        counts = self.neighbour_counts(placed_neighbours, assignment)
        alpha = self._alpha(assignment.k)
        limit = self._load_limit(assignment)

        candidates = [
            i
            for i in assignment.feasible_partitions()
            if assignment.size(i) + 1 <= limit
        ]
        if not candidates:
            return self.fallback_partition(assignment)

        def objective(i: int) -> float:
            size = assignment.size(i)
            return counts[i] - alpha * self.gamma * (size ** (self.gamma - 1.0))

        return max(
            candidates,
            key=lambda i: (objective(i), -assignment.size(i), -i),
        )
