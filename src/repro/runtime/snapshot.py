"""Columnar shard snapshots: what a worker process boots from.

A :class:`ShardSnapshot` wraps the store's contiguous columnar image
(:meth:`~repro.cluster.store.DistributedGraphStore.export_columns`: one
``bytes`` buffer of packed-int columns, see
:mod:`repro.cluster.columnar` for the binary layout) together with a
version counter, so the pool can tell whether its workers still mirror
the coordinator's store.  Restoring a snapshot yields a store whose
iteration order, label index, assignment and replica map reproduce the
original's traversal behaviour exactly -- the precondition for the
sharded executor's byte-identical merge guarantee.

A snapshot travels one way: pickled down the worker's own pipe, as its
first message at boot and inside a
:class:`~repro.runtime.mailbox.RefreshRequest` for a full refresh.  The
worker calls :meth:`ShardSnapshot.restore` on it.

Partition *ownership* is a pure function of ``(k, worker_count)``:
partition ``p`` belongs to worker ``p % worker_count``.  Every worker
(and the coordinator) derives the same map independently, so no seed
lists ever need to be shipped -- a worker keeps exactly the depth-0
candidates homed in its own partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.columnar import ColumnsHeader, peek_header
from repro.cluster.store import DistributedGraphStore

#: Snapshot format identifier (bumped on incompatible layout changes --
#: v2: the payload is a columnar byte image, not a dict of lists).
SHARD_SNAPSHOT_SCHEMA = "loom-repro/shard-snapshot/v2"


class SnapshotSchemaError(ValueError):
    """A snapshot carries a schema this runtime does not speak."""


def owned_partitions(k: int, worker_count: int, worker_id: int) -> tuple[int, ...]:
    """The partitions worker ``worker_id`` of ``worker_count`` serves."""
    return tuple(p for p in range(k) if p % worker_count == worker_id)


@dataclass(frozen=True, slots=True)
class ShardSnapshot:
    """One picklable columnar image of the coordinator's store, plus its
    version."""

    payload: bytes = field(repr=False)
    version: int = 0
    schema: str = SHARD_SNAPSHOT_SCHEMA

    @classmethod
    def of(cls, store: DistributedGraphStore, *, version: int = 0) -> "ShardSnapshot":
        return cls(payload=store.export_columns(), version=version)

    def _header(self) -> ColumnsHeader:
        """Validated header peek -- every read path funnels through here,
        so a foreign payload fails with a typed, named error instead of
        a cryptic decode failure deeper down."""
        if self.schema != SHARD_SNAPSHOT_SCHEMA:
            raise SnapshotSchemaError(
                f"snapshot schema {self.schema!r} is not the runtime's "
                f"{SHARD_SNAPSHOT_SCHEMA!r}; refusing to decode"
            )
        return peek_header(self.payload)

    def restore(self) -> DistributedGraphStore:
        self._header()
        return DistributedGraphStore.import_columns(self.payload)

    @property
    def num_bytes(self) -> int:
        """Size of the columnar payload on the wire."""
        return len(self.payload)

    @property
    def k(self) -> int:
        return self._header().k

    @property
    def num_vertices(self) -> int:
        return self._header().num_vertices

    @property
    def num_edges(self) -> int:
        return self._header().num_edges

    def __repr__(self) -> str:
        return (
            f"ShardSnapshot(k={self.k}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, version={self.version}, "
            f"bytes={self.num_bytes})"
        )
