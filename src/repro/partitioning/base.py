"""Partition assignment state and the one-pass placement policy.

A *k-balanced graph partitioning* (paper section 2) is a disjoint family of
vertex sets.  :class:`PartitionAssignment` is the mutable realisation every
partitioner builds: vertex -> partition index, with per-partition sizes and
a hard capacity ``C`` (the balance constraint of section 4.1).

Streaming heuristics see each vertex once, together with its edges toward
already-arrived vertices, and must place it immediately --
:class:`StreamingVertexPartitioner` is that contract.  This layer drives
nothing: :class:`repro.engine.pipeline.VertexStreamAdapter` feeds a
policy from an event stream.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence

from repro.exceptions import CapacityExceededError, PartitioningError
from repro.graph.labelled import Label, Vertex


class PartitionAssignment:
    """Vertex -> partition map with capacity accounting."""

    def __init__(self, k: int, capacity: int) -> None:
        if k < 1:
            raise PartitioningError("k must be >= 1")
        if capacity < 1:
            raise PartitioningError("capacity must be >= 1")
        self.k = k
        self.capacity = capacity
        self._partition_of: dict[Vertex, int] = {}
        self._sizes: list[int] = [0] * k
        #: Optional ``(vertex, partition)`` observer invoked after every
        #: successful :meth:`assign`.  The session layer
        #: (:mod:`repro.api`) uses it to mirror placements into the
        #: distributed store as the stream is consumed, instead of
        #: rebuilding the store from the finished assignment.
        self.on_assign: Callable[[Vertex, int], None] | None = None
        #: Optional observer invoked after every successful
        #: :meth:`remove`/:meth:`discard` -- the churn-side mirror.  Both
        #: hooks fire in the partitioner's event-processing order, so a
        #: mirrored assignment replays placements *and* retractions
        #: exactly as the stream interleaved them (a batch-level mirror
        #: alone cannot: a remove + re-add of one id inside a batch
        #: would race mid-batch placement callbacks).
        self.on_remove: Callable[[Vertex], object] | None = None

    # ------------------------------------------------------------------
    def assign(self, vertex: Vertex, partition: int) -> None:
        """Place ``vertex`` into ``partition`` (once; capacity enforced)."""
        if not 0 <= partition < self.k:
            raise PartitioningError(
                f"partition {partition} out of range [0, {self.k})"
            )
        if vertex in self._partition_of:
            raise PartitioningError(f"vertex {vertex!r} already assigned")
        if self._sizes[partition] >= self.capacity:
            raise CapacityExceededError(
                f"partition {partition} is full (capacity {self.capacity})"
            )
        self._partition_of[vertex] = partition
        self._sizes[partition] += 1
        if self.on_assign is not None:
            self.on_assign(vertex, partition)

    def remove(self, vertex: Vertex) -> int:
        """Retract an assigned vertex; returns the partition it vacated.

        The freed slot is real capacity: a later :meth:`assign` may fill
        it again.  Raises :class:`PartitioningError` for vertices that
        were never assigned (use :meth:`discard` for tolerant removal).
        """
        partition = self._partition_of.pop(vertex, None)
        if partition is None:
            raise PartitioningError(f"vertex {vertex!r} not assigned")
        self._sizes[partition] -= 1
        if self.on_remove is not None:
            self.on_remove(vertex)
        return partition

    def discard(self, vertex: Vertex) -> int | None:
        """Tolerant :meth:`remove`: returns the vacated partition, or
        ``None`` when the vertex was not assigned."""
        if vertex not in self._partition_of:
            return None
        return self.remove(vertex)

    def move(self, vertex: Vertex, partition: int) -> None:
        """Re-place an assigned vertex (offline refinement only)."""
        current = self.partition_of(vertex)
        if current is None:
            raise PartitioningError(f"vertex {vertex!r} not assigned")
        if not 0 <= partition < self.k:
            raise PartitioningError(
                f"partition {partition} out of range [0, {self.k})"
            )
        if current == partition:
            return
        if self._sizes[partition] >= self.capacity:
            raise CapacityExceededError(
                f"partition {partition} is full (capacity {self.capacity})"
            )
        self._sizes[current] -= 1
        self._sizes[partition] += 1
        self._partition_of[vertex] = partition

    def partition_of(self, vertex: Vertex) -> int | None:
        """The partition hosting ``vertex``, or ``None`` if unassigned."""
        return self._partition_of.get(vertex)

    def partitions_of(self, vertices: Iterable[Vertex]) -> Iterator[int | None]:
        """:meth:`partition_of` of each of ``vertices``, lazily and without
        a Python call per vertex (the sharded worker filters thousands of
        seeds per query through it)."""
        return map(self._partition_of.get, vertices)

    def grow_capacity(self, capacity: int) -> None:
        """Raise the per-partition capacity (never lowers it).

        The balance constraint ``C`` is relative to the graph being
        partitioned; when a session ingests more data into a live
        cluster, the derived ``ceil(slack * n / k)`` bound grows with
        ``n`` and the assignment must follow, or mid-stream placements
        would hit a stale ceiling.  Shrinking is refused: placements made
        under the old bound could already violate a smaller one.
        """
        if capacity < self.capacity:
            raise PartitioningError(
                f"cannot shrink capacity from {self.capacity} to {capacity}"
            )
        self.capacity = capacity

    # ------------------------------------------------------------------
    def size(self, partition: int) -> int:
        return self._sizes[partition]

    def sizes(self) -> list[int]:
        return list(self._sizes)

    def sizes_view(self) -> Sequence[int]:
        """The live per-partition size list (read-only by convention).

        The greedy scoring loops read this once per placement instead of
        calling :meth:`size` k times -- treat it as a borrowed view.
        """
        return self._sizes

    def free_capacity(self, partition: int) -> int:
        return self.capacity - self._sizes[partition]

    def feasible_partitions(self, *, room_for: int = 1) -> list[int]:
        """Partitions with space for ``room_for`` more vertices."""
        return [
            i for i in range(self.k) if self._sizes[i] + room_for <= self.capacity
        ]

    def blocks(self) -> list[set[Vertex]]:
        """The partitioning as vertex sets ``[V_0, ..., V_{k-1}]``."""
        out: list[set[Vertex]] = [set() for _ in range(self.k)]
        for vertex, partition in self._partition_of.items():
            out[partition].add(vertex)
        return out

    def assigned(self) -> dict[Vertex, int]:
        return dict(self._partition_of)

    @property
    def num_assigned(self) -> int:
        return len(self._partition_of)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._partition_of

    def __repr__(self) -> str:
        return (
            f"PartitionAssignment(k={self.k}, capacity={self.capacity}, "
            f"sizes={self._sizes})"
        )


def default_capacity(n: int, k: int, slack: float = 1.1) -> int:
    """The usual balance constraint: ``ceil(slack * n / k)`` vertices."""
    if n < 0 or k < 1:
        raise PartitioningError("need n >= 0 and k >= 1")
    if slack < 1.0:
        raise PartitioningError("slack below 1.0 cannot fit all vertices")
    return max(1, math.ceil(slack * n / k))


class StreamingVertexPartitioner(ABC):
    """One-pass vertex placement policy.

    ``place`` receives the arriving vertex, its label, and its neighbours
    among *already placed* vertices, and must return a partition index
    with free capacity.  Implementations must be deterministic given their
    constructor arguments (any randomness comes from an injected ``rng``).
    """

    name: str = "abstract"

    @abstractmethod
    def place(
        self,
        vertex: Vertex,
        label: Label,
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> int:
        """Choose a partition for the arriving vertex."""

    # Helper shared by greedy implementations.
    @staticmethod
    def neighbour_counts(
        placed_neighbours: Collection[Vertex],
        assignment: PartitionAssignment,
    ) -> list[int]:
        """Placed-neighbour counts per partition for the arriving vertex."""
        counts = [0] * assignment.k
        for partition in assignment.partitions_of(placed_neighbours):
            if partition is not None:
                counts[partition] += 1
        return counts

    @staticmethod
    def fallback_partition(assignment: PartitionAssignment) -> int:
        """Least-loaded feasible partition (ties toward lower index)."""
        capacity = assignment.capacity
        best = -1
        best_size = capacity
        for i, size in enumerate(assignment.sizes_view()):
            if size < best_size:
                best = i
                best_size = size
        if best < 0:
            raise CapacityExceededError("no partition has free capacity")
        return best

