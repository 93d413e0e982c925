"""Shard snapshot export/import: the runtime's byte-identity foundation."""

import pickle
import random

import pytest

from repro.api import Cluster, ClusterConfig
from repro.cluster.store import DistributedGraphStore
from repro.graph.labelled import LabelledGraph
from repro.runtime import ShardSnapshot, owned_partitions
from repro.workload import PatternQuery, Workload


def small_session(method="ldg", partitions=3, seed=0):
    workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
    session = Cluster.open(
        ClusterConfig(partitions=partitions, method=method, seed=seed),
        workload=workload,
    )
    rng = random.Random(seed)
    graph = LabelledGraph()
    for v in range(30):
        graph.add_vertex(v, rng.choice("abc"))
    for v in range(1, 30):
        graph.add_edge(v, rng.randrange(v))
    session.ingest(graph)
    return session


def assert_stores_equivalent(original, rebuilt):
    assert rebuilt.graph == original.graph
    # Iteration/index orders drive executor determinism: they must
    # survive the round trip exactly, not just set-wise.
    assert list(rebuilt.graph.vertices()) == list(original.graph.vertices())
    for label in original.graph.labels():
        assert rebuilt.graph.vertices_with_label(label) == (
            original.graph.vertices_with_label(label)
        )
    for vertex in original.graph.vertices():
        assert rebuilt.graph.sorted_neighbours(vertex) == (
            original.graph.sorted_neighbours(vertex)
        )
        assert rebuilt.partition_of(vertex) == original.partition_of(vertex)
        assert rebuilt.replicas_of(vertex) == original.replicas_of(vertex)
    assert rebuilt.assignment.sizes() == original.assignment.sizes()
    assert rebuilt.assignment.capacity == original.assignment.capacity


class TestExportImport:
    def test_round_trip_preserves_replicas(self):
        """Locality answers, not just the replica sets, survive the
        columnar round trip (the set-level checks live in
        ``test_columnar.py``)."""
        store = small_session().store
        victim = next(iter(store.graph.vertices()))
        target = (store.partition_of(victim) + 1) % store.k
        assert store.add_replica(victim, target)
        rebuilt = DistributedGraphStore.import_columns(store.export_columns())
        assert rebuilt.replicas_of(victim) == frozenset({target})
        assert not rebuilt.is_remote_from(target, victim)


class TestShardSnapshot:
    def test_snapshot_pickles_and_restores(self):
        store = small_session().store
        snapshot = ShardSnapshot.of(store, version=7)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.version == 7
        assert clone.k == store.k
        assert clone.num_vertices == store.graph.num_vertices
        assert clone.num_edges == store.graph.num_edges
        assert_stores_equivalent(store, clone.restore())

    def test_foreign_schema_is_a_typed_refusal(self):
        """A snapshot minted by some other (future) runtime must fail
        with a typed error naming both schemas -- before any decode
        touches the payload."""
        import dataclasses

        from repro.runtime import SHARD_SNAPSHOT_SCHEMA, SnapshotSchemaError

        snapshot = ShardSnapshot.of(small_session().store, version=1)
        alien = dataclasses.replace(
            snapshot, schema="loom-repro/shard-snapshot/v99"
        )
        with pytest.raises(SnapshotSchemaError) as caught:
            alien.restore()
        message = str(caught.value)
        assert "loom-repro/shard-snapshot/v99" in message
        assert SHARD_SNAPSHOT_SCHEMA in message
        # Callers that predate the typed error catch ValueError.
        assert isinstance(caught.value, ValueError)

    def test_foreign_schema_refusal_covers_shape_properties(self):
        from repro.runtime import SnapshotSchemaError

        import dataclasses

        snapshot = ShardSnapshot.of(small_session().store)
        alien = dataclasses.replace(snapshot, schema="foreign")
        with pytest.raises(SnapshotSchemaError):
            alien.num_vertices


class TestOwnedPartitions:
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_ownership_partitions_the_partitions(self, k, workers):
        slices = [owned_partitions(k, workers, w) for w in range(workers)]
        flat = [p for partitions in slices for p in partitions]
        assert sorted(flat) == list(range(k))
        # Round-robin keeps the slices within one partition of even.
        sizes = [len(partitions) for partitions in slices]
        assert max(sizes) - min(sizes) <= 1
