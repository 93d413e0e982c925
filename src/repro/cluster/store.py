"""Simulated distributed graph store.

Models what a partitioned GDBMS cluster serves: each of ``k`` shards holds
the vertices assigned to it, their labels, and their adjacency lists
(including edges toward remote vertices, as real systems store them).  A
label index per shard supports the executor's initial candidate lookup,
mirroring the vertex-label indexes of property-graph databases.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Iterator

from repro.exceptions import PartitioningError
from repro.graph.labelled import Label, LabelledGraph, Vertex
from repro.partitioning.base import PartitionAssignment


class DistributedGraphStore:
    """A data graph sharded by a finished partition assignment.

    Besides the primary placement, the store supports read-only *replicas*
    ("temporary secondary partitions" in the paper's section-3.2
    description of Yang et al): a vertex replicated into partition ``p``
    can be read from ``p`` without a remote hop.  The replication layer
    (:mod:`repro.replication`) decides what to replicate; the store only
    tracks copies and answers locality questions accordingly.
    """

    def __init__(
        self,
        graph: LabelledGraph,
        assignment: PartitionAssignment,
        *,
        require_complete: bool = True,
    ) -> None:
        if require_complete:
            for vertex in graph.vertices():
                if assignment.partition_of(vertex) is None:
                    raise PartitioningError(
                        f"vertex {vertex!r} has no partition; the store "
                        "needs a complete assignment"
                    )
        self.graph = graph
        self.assignment = assignment
        self._replicas: dict[Vertex, set[int]] = {}
        #: Monotone count of *effective* mutations (no-ops do not tick).
        #: The session layer uses it as the store version the worker pool
        #: mirrors, so an ingest of zero events or a same-label re-add
        #: never triggers a refresh broadcast.
        self._ticks = 0
        # Mutation journal (delta-refresh support).  ``None`` = disabled:
        # serial sessions pay nothing.  When enabled, every effective
        # mutation appends one compact op tuple until the limit trips the
        # overflow flag (then the journal empties and stays invalid until
        # the next restart -- the reader falls back to a full snapshot).
        self._journal: list[tuple] | None = None
        self._journal_limit = 0
        self._journal_overflow = False
        #: Optional durability hook ``hook(op, tick)`` invoked with each
        #: effective mutation right after it is applied (the WAL layer
        #: subscribes; ``None`` costs nothing).  The one non-versioned
        #: event is the out-of-band tag ``"c"`` (capacity grow,
        #: idempotent on replay).
        self.wal_hook: Callable[[tuple[Any, ...], int], None] | None = None

    @classmethod
    def incremental(cls, k: int, capacity: int) -> "DistributedGraphStore":
        """An empty store to be grown element by element.

        The session layer (:mod:`repro.api`) feeds :meth:`add_vertex` /
        :meth:`add_edge` / :meth:`assign_vertex` as the stream is
        consumed, so the cluster state the executor queries is maintained
        *during* ingest rather than rebuilt from a finished assignment.
        Query it only once :attr:`is_complete` holds (the executor assumes
        every stored vertex has a partition).
        """
        return cls(
            LabelledGraph(),
            PartitionAssignment(k, capacity),
            require_complete=False,
        )

    # ------------------------------------------------------------------
    # Mutation versioning and the delta journal
    # ------------------------------------------------------------------
    @property
    def mutation_ticks(self) -> int:
        """Monotone count of effective mutations (the store's version)."""
        return self._ticks

    def _mutated(self, *op: Any) -> None:
        """Tick the version and journal one effective mutation."""
        self._ticks += 1
        journal = self._journal
        if journal is not None and not self._journal_overflow:
            if len(journal) >= self._journal_limit:
                # Past the limit a delta would not be "compact" any
                # more; empty the log (free the memory) and let the
                # reader fall back to a full snapshot at the next
                # publication.
                journal.clear()
                self._journal_overflow = True
            else:
                journal.append(op)
        if self.wal_hook is not None:
            self.wal_hook(op, self._ticks)

    def enable_journal(self, limit: int) -> None:
        """Start journalling mutations (for delta refresh), keeping at
        most ``limit`` ops before declaring overflow.  (Re)enabling
        restarts the log."""
        if limit < 1:
            raise PartitioningError("journal limit must be >= 1")
        self._journal_limit = limit
        self._journal = []
        self._journal_overflow = False

    def disable_journal(self) -> None:
        self._journal = None
        self._journal_overflow = False

    @property
    def journal_enabled(self) -> bool:
        return self._journal is not None

    def restart_journal(self) -> None:
        """Empty the journal after a publication: the resident state as
        of now is what the readers hold, so the log starts over."""
        if self._journal is not None:
            self._journal.clear()
            self._journal_overflow = False

    def drain_journal(self) -> tuple[tuple, ...] | None:
        """The ops since the last restart, or ``None`` when no valid
        delta exists (journal disabled or overflowed).  Does not restart
        the journal -- call :meth:`restart_journal` once the delta has
        been applied."""
        if self._journal is None or self._journal_overflow:
            return None
        return tuple(self._journal)

    def apply_op(self, op: tuple) -> None:
        """Replay one journalled op through its :attr:`REPLAY` mutator.

        Shared by delta refresh (:func:`repro.runtime.worker.apply_delta`)
        and WAL recovery (:mod:`repro.runtime.wal`): replay goes through
        the same code paths as the original mutation, so a replica that
        was byte-equivalent before the op is byte-equivalent after it.
        An unknown tag raises (protocol mismatch -- never silently skip
        state).
        """
        mutator = self.REPLAY.get(op[0])
        if mutator is None:
            raise ValueError(f"unknown op tag {op[0]!r}")
        mutator(self, *op[1:])

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def grow_capacity(self, capacity: int) -> None:
        """Raise the assignment's per-partition capacity ceiling.

        Not a versioned mutation (ticks stay put -- resident replicas
        need no refresh for a larger bound), but the WAL records it so
        recovery replays later placements under the right ceiling.
        Shrinking is a no-op: replayed grow ops are idempotent whatever
        prefix of the log survives.
        """
        if capacity <= self.assignment.capacity:
            return
        self.assignment.grow_capacity(capacity)
        if self.wal_hook is not None:
            self.wal_hook(("c", capacity), self._ticks)

    def add_vertex(self, vertex: Vertex, label: Label) -> None:
        """Record a newly arrived (not yet assigned) vertex.

        Re-adding a resident vertex with its existing label is a no-op
        (and does not tick the version); a conflicting label raises.
        """
        if self.graph.has_vertex(vertex):
            self.graph.add_vertex(vertex, label)  # validates the label
            return
        self.graph.add_vertex(vertex, label)
        self._mutated("v+", vertex, label)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Record a newly arrived edge (both endpoints must be stored).

        Re-adding a resident edge is a no-op and does not tick.
        """
        if self.graph.has_edge(u, v):
            return
        self.graph.add_edge(u, v)
        self._mutated("e+", u, v)

    def assign_vertex(self, vertex: Vertex, partition: int) -> None:
        """Place a stored vertex into ``partition`` (once, capacity
        enforced by the underlying assignment)."""
        self.assignment.assign(vertex, partition)
        self._mutated("a", vertex, partition)

    def retract_assignment(self, vertex: Vertex) -> int | None:
        """Drop ``vertex``'s partition slot only (the churn-mirror hook:
        the graph side of the removal rides the batch event hook).
        Returns the vacated partition, ``None`` if it had none."""
        vacated = self.assignment.discard(vertex)
        if vacated is not None:
            self._mutated("p-", vertex)
        return vacated

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Retract a stored edge (raises ``EdgeNotFoundError`` if absent)."""
        self.graph.remove_edge(u, v)
        self._mutated("e-", u, v)

    def remove_vertex(self, vertex: Vertex) -> None:
        """Retract a stored vertex everywhere it is known: the graph
        (cascading over incident edges), its partition slot, and every
        replica copy -- a deleted vertex must never resurrect through a
        stale index entry or a snapshot/restore round-trip."""
        self.graph.remove_vertex(vertex)
        self.assignment.discard(vertex)
        self._replicas.pop(vertex, None)
        self._mutated("v-", vertex)

    def move_vertex(self, vertex: Vertex, partition: int) -> bool:
        """Migrate a stored vertex's primary copy to ``partition``
        (rebalancing).  Drops the replica the vertex may have had in its
        new home -- a primary copy supersedes it.  Returns True when a
        now-redundant replica was dropped.  Moving a vertex to its own
        partition is a no-op (and does not tick).
        """
        if self.assignment.partition_of(vertex) == partition:
            return False
        self.assignment.move(vertex, partition)
        dropped = False
        copies = self._replicas.get(vertex)
        if copies and partition in copies:
            copies.discard(partition)
            if not copies:
                del self._replicas[vertex]
            dropped = True
        self._mutated("m", vertex, partition)
        return dropped

    @property
    def is_complete(self) -> bool:
        """True when every stored vertex has been assigned a partition."""
        return self.assignment.num_assigned == self.graph.num_vertices

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.assignment.k

    def partition_of(self, vertex: Vertex) -> int:
        partition = self.assignment.partition_of(vertex)
        if partition is None:  # pragma: no cover - checked at construction
            raise PartitioningError(f"vertex {vertex!r} unassigned")
        return partition

    def label(self, vertex: Vertex) -> Label:
        return self.graph.label(vertex)

    def neighbours(self, vertex: Vertex) -> frozenset[Vertex]:
        return self.graph.neighbours(vertex)

    def sorted_neighbours(self, vertex: Vertex) -> tuple[Vertex, ...]:
        """Neighbours in the executor's deterministic expansion order
        (cached by the graph's indexed adjacency core)."""
        return self.graph.sorted_neighbours(vertex)

    def vertices_with_label(self, label: Label) -> list[Vertex]:
        """Label-index lookup (does not count as an edge traversal).

        Delegates to the graph's incrementally maintained label index --
        one shared index instead of a per-store rebuild.
        """
        return self.graph.vertices_with_label(label)

    def is_remote(self, u: Vertex, v: Vertex) -> bool:
        """True when the hop ``u -> v`` leaves ``u``'s partition.

        The hop stays local when ``v``'s primary copy lives with ``u`` or
        a replica of ``v`` has been placed in ``u``'s partition.
        """
        return self.is_remote_from(self.partition_of(u), v)

    def is_remote_from(self, home: int, v: Vertex) -> bool:
        """:meth:`is_remote` with the source partition already resolved.

        The executor expands every neighbour of one anchor vertex in a
        row; resolving the anchor's partition once and probing only the
        far endpoint halves the per-traversal lookups on the query hot
        path.
        """
        far = self.assignment.partition_of(v)
        if far is None:  # pragma: no cover - complete assignment checked
            raise PartitioningError(f"vertex {v!r} unassigned")
        if home == far:
            return False
        return home not in self._replicas.get(v, ())

    # ------------------------------------------------------------------
    # Replicas
    # ------------------------------------------------------------------
    def add_replica(self, vertex: Vertex, partition: int) -> bool:
        """Place a read-only copy of ``vertex`` in ``partition``.

        Returns True when a new copy was created (False when the vertex
        already lives or is replicated there).
        """
        if not 0 <= partition < self.k:
            raise PartitioningError(
                f"partition {partition} out of range [0, {self.k})"
            )
        if self.partition_of(vertex) == partition:
            return False
        copies = self._replicas.setdefault(vertex, set())
        if partition in copies:
            return False
        copies.add(partition)
        self._mutated("r+", vertex, partition)
        return True

    def adopt_replica(self, vertex: Vertex, partition: int) -> None:
        """Install a replica entry verbatim (rebuild path only: column
        decode).  No validation, no version tick."""
        self._replicas.setdefault(vertex, set()).add(partition)

    def replicas_of(self, vertex: Vertex) -> frozenset[int]:
        return frozenset(self._replicas.get(vertex, ()))

    def replica_items(self) -> Iterator[tuple[Vertex, frozenset[int]]]:
        """Replica entries in deterministic (repr of vertex) order."""
        for vertex, copies in sorted(
            self._replicas.items(), key=lambda item: repr(item[0])
        ):
            yield vertex, frozenset(copies)

    def clear_replicas(self) -> int:
        """Drop every replica (returns how many placements were dropped).

        Replicas are only meaningful relative to the placement they were
        provisioned under; callers adopting a new assignment (offline
        re-ingest, repartitioning in place) must invalidate them or
        locality answers would credit copies that no longer exist.
        """
        dropped = self.total_replicas()
        self._replicas.clear()
        if dropped:
            self._mutated("r0")
        return dropped

    def total_replicas(self) -> int:
        """Total number of replica placements across all vertices."""
        return sum(len(copies) for copies in self._replicas.values())

    def replication_factor(self) -> float:
        """Average copies per vertex (1.0 = no replication)."""
        n = self.graph.num_vertices
        if n == 0:
            return 1.0
        return 1.0 + self.total_replicas() / n

    #: Op tag -> the mutator that emits it and replays it (``op[1:]`` are
    #: its arguments).  :meth:`apply_op` dispatches through this table
    #: only; ``tests/cluster/test_journal_coverage.py`` drives every entry
    #: and classifies every other public method.
    REPLAY: ClassVar[dict[str, Callable[..., Any]]] = {
        "v+": add_vertex,
        "e+": add_edge,
        "a": assign_vertex,
        "p-": retract_assignment,
        "e-": remove_edge,
        "v-": remove_vertex,
        "m": move_vertex,
        "r+": add_replica,
        "r0": clear_replicas,
        "c": grow_capacity,
    }

    # ------------------------------------------------------------------
    # Shard export / import (the runtime layer's wire format)
    # ------------------------------------------------------------------
    def export_columns(self) -> bytes:
        """The store as one contiguous columnar image -- the runtime's
        hot-path wire format (see :mod:`repro.cluster.columnar` for the
        binary layout).  Position-encoded, so two stores with identical
        resident state but different internal slot histories export
        identical bytes."""
        from repro.cluster.columnar import encode_columns

        return encode_columns(self)

    @classmethod
    def import_columns(
        cls, buffer: bytes | memoryview
    ) -> "DistributedGraphStore":
        """Rebuild a store from an :meth:`export_columns` image.  Accepts
        a ``memoryview`` (e.g. over a shared-memory segment) and decodes
        without an intermediate copy of the buffer."""
        from repro.cluster.columnar import decode_columns

        return decode_columns(buffer)

    def __repr__(self) -> str:
        return (
            f"DistributedGraphStore(k={self.k}, |V|={self.graph.num_vertices}, "
            f"|E|={self.graph.num_edges})"
        )
