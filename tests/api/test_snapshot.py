"""Snapshot / restore round-trip."""

import random

import pytest

from repro.api import SNAPSHOT_SCHEMA, Cluster, ClusterConfig
from repro.exceptions import SessionError
from repro.graph import LabelledGraph
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload


def small_session():
    graph = LabelledGraph.cycle("ababab")
    for v, label in ((10, "c"), (11, "c")):
        graph.add_vertex(v, label)
    graph.add_edge(0, 10)
    graph.add_edge(3, 11)
    workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
    session = Cluster.open(
        ClusterConfig(partitions=2, method="ldg", capacity=8, seed=4),
        workload=workload,
    )
    session.ingest(graph)
    return session, graph, workload


class TestRoundTrip:
    def test_dict_round_trip(self):
        session, graph, workload = small_session()
        payload = session.snapshot()
        assert payload["schema"] == SNAPSHOT_SCHEMA
        restored = Cluster.restore(payload, workload=workload)
        assert restored.assignment.assigned() == session.assignment.assigned()
        assert set(restored.graph.vertices()) == set(graph.vertices())
        assert set(restored.graph.edges()) == set(session.graph.edges())
        for vertex in graph.vertices():
            assert restored.graph.label(vertex) == graph.label(vertex)
        # A restored session answers queries identically, immediately.
        query = PatternQuery("ab", LabelledGraph.path("ab"))
        assert restored.query(query) == session.query(query)

    def test_file_round_trip_and_stability(self, tmp_path):
        session, _, workload = small_session()
        target = tmp_path / "cluster.json"
        payload = session.snapshot(target)
        assert target.exists()
        restored = Cluster.restore(target, workload=workload)
        assert restored.snapshot() == payload

    def test_snapshot_with_retired_worker_keys_restores(self):
        """Snapshots written before ``refresh_mode``/``shared_memory``
        were retired carry them in the ``"config"`` block: they restore,
        and the next snapshot no longer writes them."""
        session, _, workload = small_session()
        payload = session.snapshot()
        old = {**payload, "config": {**payload["config"], "worker": {
            **payload["config"]["worker"],
            "refresh_mode": "full",
            "shared_memory": False,
        }}}
        restored = Cluster.restore(old, workload=workload)
        assert restored.config == session.config
        assert restored.snapshot() == payload

    def test_restored_session_can_ingest_more(self):
        session, _, workload = small_session()
        restored = Cluster.restore(session.snapshot(), workload=workload)
        extra = LabelledGraph.path("ab")
        mapping = {0: 20, 1: 21}
        fresh = LabelledGraph()
        for old, new in mapping.items():
            fresh.add_vertex(new, extra.label(old))
        fresh.add_edge(20, 21)
        restored.ingest(fresh)
        assert restored.is_complete
        assert restored.graph.num_vertices == session.graph.num_vertices + 2
        assert restored.partition_of(20) is not None

    def test_restored_session_can_repartition(self):
        session, _, workload = small_session()
        restored = Cluster.restore(session.snapshot(), workload=workload)
        report = restored.repartition(method="hash")
        assert report.method_after == "hash"
        assert restored.is_complete

    def test_bad_schema_rejected(self):
        session, _, _ = small_session()
        payload = session.snapshot()
        payload["schema"] = "something/else"
        with pytest.raises(SessionError, match="schema"):
            Cluster.restore(payload)

    def test_snapshot_requires_complete_assignment(self):
        session = Cluster.open(ClusterConfig(method="ldg"))
        with pytest.raises(SessionError):
            session.snapshot()

    def test_round_trip_after_removals(self):
        """The churn fix: a store that has had removals must round-trip
        -- tombstoned vertices and their edges stay gone on restore."""
        session, graph, workload = small_session()
        session.retract(vertices=[10], edges=[(0, 1)])
        payload = session.snapshot()
        vertex_ids = [v for v, _ in payload["graph"]["vertices"]]
        assert 10 not in vertex_ids
        assert [0, 10] not in payload["graph"]["edges"]
        assert all(v != 10 for v, _ in payload["assignment"])
        restored = Cluster.restore(payload, workload=workload)
        assert not restored.graph.has_vertex(10)
        assert not restored.graph.has_edge(0, 1)
        assert restored.is_complete
        assert restored.assignment.assigned() == session.assignment.assigned()
        # Restore-then-ingest still works on the churned state.
        addition = LabelledGraph.from_edges({30: "c"}, [])
        restored.ingest(addition)
        assert restored.is_complete

    def test_replicas_of_removed_vertex_do_not_resurrect(self):
        session, graph, workload = small_session()
        store = session.store
        victim = next(iter(graph.vertices()))
        other = (session.partition_of(victim) + 1) % 2
        assert store.add_replica(victim, other)
        session.retract(vertices=[victim])
        assert store.replicas_of(victim) == frozenset()
        assert store.total_replicas() == 0
        restored = Cluster.restore(session.snapshot(), workload=workload)
        assert restored.store.replicas_of(victim) == frozenset()
        assert not restored.graph.has_vertex(victim)

    def test_string_vertex_ids_survive(self):
        graph = LabelledGraph()
        for name, label in (("alice", "u"), ("bob", "u"), ("p1", "p")):
            graph.add_vertex(name, label)
        graph.add_edge("alice", "p1")
        graph.add_edge("bob", "p1")
        session = Cluster.open(
            ClusterConfig(partitions=2, method="hash", capacity=3, seed=0)
        )
        events = stream_from_graph(
            graph, ordering="natural", rng=random.Random(0)
        )
        session.ingest(events, graph=graph)
        restored = Cluster.restore(session.snapshot())
        assert restored.partition_of("alice") == session.partition_of("alice")
        assert restored.graph.label("bob") == "u"
