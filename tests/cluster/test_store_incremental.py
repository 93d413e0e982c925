"""Incremental store maintenance: parity with build-at-end construction."""

import random

import pytest

from repro.api import Cluster, ClusterConfig
from repro.cluster import DistributedGraphStore, run_workload
from repro.exceptions import PartitioningError
from repro.graph import LabelledGraph
from repro.graph.generators import plant_motifs
from repro.stream.events import VertexArrival
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload


@pytest.fixture(scope="module")
def finished():
    rng = random.Random(2)
    abc = LabelledGraph.path("abc")
    graph = plant_motifs(
        [(abc, 15)], noise_vertices=40, noise_edge_probability=0.01, rng=rng
    )
    events = stream_from_graph(graph, ordering="random", rng=random.Random(3))
    session = Cluster.open(ClusterConfig(partitions=4, method="ldg", seed=1))
    session.ingest(events, graph=graph)
    workload = Workload([PatternQuery("abc", abc)])
    return graph, events, session.assignment, workload


def build_incremental(graph, events, assignment):
    """Feed the store exactly as a session ingest does: graph elements in
    stream order, then each placement as it happened."""
    store = DistributedGraphStore.incremental(
        assignment.k, assignment.capacity
    )
    for event in events:
        if isinstance(event, VertexArrival):
            store.add_vertex(event.vertex, event.label)
        else:
            store.add_edge(event.u, event.v)
    for vertex, partition in assignment.assigned().items():
        assert not store.is_complete
        store.assign_vertex(vertex, partition)
    return store


class TestParityWithBuildAtEnd:
    def test_structure_and_locality_identical(self, finished):
        graph, events, assignment, _ = finished
        built = DistributedGraphStore(graph, assignment)
        incremental = build_incremental(graph, events, assignment)
        assert incremental.is_complete
        assert set(incremental.graph.vertices()) == set(graph.vertices())
        assert set(incremental.graph.edges()) == set(graph.edges())
        for vertex in graph.vertices():
            assert incremental.graph.label(vertex) == built.graph.label(vertex)
            assert incremental.partition_of(vertex) == built.partition_of(
                vertex
            )
            assert incremental.graph.neighbours(vertex) == (
                built.graph.neighbours(vertex)
            )
        for u, v in graph.edges():
            assert incremental.is_remote(u, v) == built.is_remote(u, v)
        for label in graph.labels():
            assert sorted(
                incremental.graph.vertices_with_label(label), key=repr
            ) == sorted(built.graph.vertices_with_label(label), key=repr)
        assert incremental.assignment.sizes() == built.assignment.sizes()

    def test_query_results_identical(self, finished):
        graph, events, assignment, workload = finished
        built = DistributedGraphStore(graph, assignment)
        incremental = build_incremental(graph, events, assignment)
        expected = run_workload(
            built, workload, executions=40, rng=random.Random(7)
        )
        observed = run_workload(
            incremental, workload, executions=40, rng=random.Random(7)
        )
        assert observed.matches == expected.matches
        assert observed.remote_probability == expected.remote_probability
        assert observed.fully_local == expected.fully_local


class TestIncrementalContract:
    def test_default_constructor_still_requires_completeness(self, finished):
        graph, _, _, _ = finished
        from repro.partitioning.base import PartitionAssignment

        empty = PartitionAssignment(2, graph.num_vertices)
        with pytest.raises(PartitioningError, match="complete assignment"):
            DistributedGraphStore(graph, empty)

    def test_assign_vertex_enforces_range_and_uniqueness(self):
        store = DistributedGraphStore.incremental(2, 4)
        store.add_vertex(1, "a")
        with pytest.raises(PartitioningError):
            store.assign_vertex(1, 5)
        store.assign_vertex(1, 0)
        with pytest.raises(PartitioningError):
            store.assign_vertex(1, 1)

    def test_duplicate_edge_mirroring_is_idempotent(self):
        store = DistributedGraphStore.incremental(2, 4)
        store.add_vertex(1, "a")
        store.add_vertex(2, "b")
        store.add_edge(1, 2)
        store.add_edge(2, 1)
        assert store.graph.num_edges == 1


class TestIncrementalRemoval:
    def churned(self):
        store = DistributedGraphStore.incremental(2, 4)
        for vertex, label in ((1, "a"), (2, "b"), (3, "a"), (4, "b")):
            store.add_vertex(vertex, label)
            store.assign_vertex(vertex, vertex % 2)
        for u, v in ((1, 2), (2, 3), (3, 4), (4, 1)):
            store.add_edge(u, v)
        return store

    def test_removal_parity_with_fresh_build(self):
        """A store that removed elements equals one built from only the
        survivors -- graph, placement, locality and label index."""
        churned = self.churned()
        churned.remove_edge(1, 2)
        churned.remove_vertex(4)
        survivor = DistributedGraphStore.incremental(2, 4)
        for vertex, label in ((1, "a"), (2, "b"), (3, "a")):
            survivor.add_vertex(vertex, label)
            survivor.assign_vertex(vertex, vertex % 2)
        survivor.add_edge(2, 3)
        assert churned.graph == survivor.graph
        assert churned.assignment.assigned() == survivor.assignment.assigned()
        assert churned.assignment.sizes() == survivor.assignment.sizes()
        assert churned.is_complete
        for label in ("a", "b"):
            assert churned.graph.vertices_with_label(label) == (
                survivor.graph.vertices_with_label(label)
            )
        assert churned.is_remote(2, 3) == survivor.is_remote(2, 3)

    def test_remove_vertex_cascades_and_purges_replicas(self):
        store = self.churned()
        assert store.add_replica(1, 0) or store.add_replica(1, 1)
        edges_before = store.graph.num_edges
        store.remove_vertex(1)
        assert store.graph.num_edges == edges_before - 2
        assert store.replicas_of(1) == frozenset()
        assert store.total_replicas() == 0
        assert store.assignment.partition_of(1) is None
        assert store.is_complete  # survivors all still placed

    def test_remove_missing_elements_raise(self):
        store = self.churned()
        with pytest.raises(KeyError):
            store.remove_vertex(99)
        with pytest.raises(KeyError):
            store.remove_edge(1, 3)

    def test_move_vertex_absorbs_replica_at_target(self):
        store = self.churned()
        home = store.partition_of(1)
        target = 1 - home
        assert store.add_replica(1, target)
        assert store.move_vertex(1, target) is True
        assert store.partition_of(1) == target
        assert store.replicas_of(1) == frozenset()
        assert store.move_vertex(1, home) is False
