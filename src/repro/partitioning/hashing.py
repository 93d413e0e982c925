"""Hash and random placement.

"These systems distribute vertices and computation across multiple
machines, using a simple hash function to determine vertex placement by
default" (paper, introduction).  Hash placement is the workload- and
structure-agnostic baseline every experiment includes: balanced, O(1), and
cutting an expected ``(1 - 1/k)`` fraction of edges.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Collection

from repro.graph.labelled import Label, Vertex
from repro.partitioning.base import PartitionAssignment, StreamingVertexPartitioner


def stable_hash(vertex: Vertex) -> int:
    """Process-independent vertex hash (Python's ``hash`` is salted for
    strings, which would make experiments unrepeatable across runs)."""
    return zlib.crc32(repr(vertex).encode("utf-8"))


class HashPartitioner(StreamingVertexPartitioner):
    """``partition = hash(v) mod k``, overflowing to the least-loaded
    feasible partition when the hashed target is full."""

    name = "hash"

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        target = stable_hash(vertex) % assignment.k
        if assignment.free_capacity(target) > 0:
            return target
        return self.fallback_partition(assignment)


class RandomPartitioner(StreamingVertexPartitioner):
    """Uniformly random feasible placement (Stanton & Kliot's ``Random``)."""

    name = "random"

    def __init__(self, rng: random.Random | None = None) -> None:
        self._rng = rng or random.Random(0)

    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        feasible = assignment.feasible_partitions()
        if not feasible:
            return self.fallback_partition(assignment)  # raises uniformly
        return self._rng.choice(feasible)
