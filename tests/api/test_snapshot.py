"""The snapshot document, and the one way back: ``Cluster.recover``.

``Session.snapshot()`` is a read-only canonical state document; a
session is reloaded from its WAL directory.  Each round trip below runs
a durable session, closes it and recovers it.
"""

import json
import random

import pytest

from repro.api import SNAPSHOT_SCHEMA, Cluster, ClusterConfig, DurabilityConfig
from repro.exceptions import SessionError
from repro.graph import LabelledGraph
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload


def durable(wal_dir, **fields):
    return ClusterConfig(
        durability=DurabilityConfig(mode="wal", wal_dir=str(wal_dir)),
        **fields,
    )


def small_session(wal_dir):
    graph = LabelledGraph.cycle("ababab")
    for v, label in ((10, "c"), (11, "c")):
        graph.add_vertex(v, label)
    graph.add_edge(0, 10)
    graph.add_edge(3, 11)
    workload = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
    session = Cluster.open(
        durable(wal_dir, partitions=2, method="ldg", capacity=8, seed=4),
        workload=workload,
    )
    session.ingest(graph)
    return session, graph, workload


def reopen(session, workload=None):
    """Close ``session`` and recover it from its WAL directory."""
    session.close()
    return Cluster.recover(session.config.durability.wal_dir, workload=workload)


class TestRoundTrip:
    def test_dict_round_trip(self, tmp_path):
        session, graph, workload = small_session(tmp_path)
        payload = session.snapshot()
        assert payload["schema"] == SNAPSHOT_SCHEMA
        query = PatternQuery("ab", LabelledGraph.path("ab"))
        answer = session.query(query)
        with reopen(session, workload) as recovered:
            assert recovered.snapshot() == payload
            assert recovered.assignment.assigned() == session.assignment.assigned()
            assert set(recovered.graph.vertices()) == set(graph.vertices())
            assert set(recovered.graph.edges()) == set(session.graph.edges())
            for vertex in graph.vertices():
                assert recovered.graph.label(vertex) == graph.label(vertex)
            # A recovered session answers queries identically, immediately.
            assert recovered.query(query) == answer

    def test_file_round_trip_and_stability(self, tmp_path):
        """The document survives the directory twice over, byte for byte."""
        session, _, workload = small_session(tmp_path)
        payload = session.snapshot()
        once = reopen(session, workload)
        twice = reopen(once, workload)
        with twice:
            assert json.dumps(twice.snapshot(), sort_keys=True) == json.dumps(
                payload, sort_keys=True
            )

    def test_snapshot_with_retired_worker_keys_restores(self, tmp_path):
        """A ``config.json`` written before ``refresh_mode``/
        ``shared_memory`` were retired carries them in its ``worker``
        block: it recovers, and the rewritten file no longer has them."""
        session, _, workload = small_session(tmp_path)
        payload = session.snapshot()
        session.close()
        path = tmp_path / "config.json"
        old = json.loads(path.read_text())
        old["worker"].update(refresh_mode="full", shared_memory=False)
        path.write_text(json.dumps(old))
        with Cluster.recover(tmp_path, workload=workload) as recovered:
            assert recovered.config == session.config
            assert recovered.snapshot() == payload
        assert "refresh_mode" not in json.loads(path.read_text())["worker"]

    def test_restored_session_can_ingest_more(self, tmp_path):
        session, _, workload = small_session(tmp_path)
        extra = LabelledGraph.path("ab")
        mapping = {0: 20, 1: 21}
        fresh = LabelledGraph()
        for old, new in mapping.items():
            fresh.add_vertex(new, extra.label(old))
        fresh.add_edge(20, 21)
        with reopen(session, workload) as recovered:
            recovered.ingest(fresh)
            assert recovered.is_complete
            assert recovered.graph.num_vertices == session.graph.num_vertices + 2
            assert recovered.partition_of(20) is not None

    def test_snapshot_requires_complete_assignment(self):
        session = Cluster.open(ClusterConfig(method="ldg"))
        with pytest.raises(SessionError):
            session.snapshot()

    def test_round_trip_after_removals(self, tmp_path):
        """The churn fix: a store that has had removals must round-trip
        -- tombstoned vertices and their edges stay gone on recovery."""
        session, graph, workload = small_session(tmp_path)
        session.retract(vertices=[10], edges=[(0, 1)])
        payload = session.snapshot()
        vertex_ids = [v for v, _ in payload["graph"]["vertices"]]
        assert 10 not in vertex_ids
        assert [0, 10] not in payload["graph"]["edges"]
        assert all(v != 10 for v, _ in payload["assignment"])
        with reopen(session, workload) as recovered:
            assert not recovered.graph.has_vertex(10)
            assert not recovered.graph.has_edge(0, 1)
            assert recovered.is_complete
            assert (
                recovered.assignment.assigned()
                == session.assignment.assigned()
            )
            # Recover-then-ingest still works on the churned state.
            addition = LabelledGraph.from_edges({30: "c"}, [])
            recovered.ingest(addition)
            assert recovered.is_complete

    def test_replicas_of_removed_vertex_do_not_resurrect(self, tmp_path):
        session, graph, workload = small_session(tmp_path)
        store = session.store
        victim = next(iter(graph.vertices()))
        other = (session.partition_of(victim) + 1) % 2
        assert store.add_replica(victim, other)
        session.retract(vertices=[victim])
        assert store.replicas_of(victim) == frozenset()
        assert store.total_replicas() == 0
        with reopen(session, workload) as recovered:
            assert recovered.store.replicas_of(victim) == frozenset()
            assert recovered.store.total_replicas() == 0
            assert not recovered.graph.has_vertex(victim)

    def test_string_vertex_ids_survive(self, tmp_path):
        graph = LabelledGraph()
        for name, label in (("alice", "u"), ("bob", "u"), ("p1", "p")):
            graph.add_vertex(name, label)
        graph.add_edge("alice", "p1")
        graph.add_edge("bob", "p1")
        session = Cluster.open(
            durable(tmp_path, partitions=2, method="hash", capacity=3, seed=0)
        )
        events = stream_from_graph(
            graph, ordering="natural", rng=random.Random(0)
        )
        session.ingest(events, graph=graph)
        with reopen(session) as recovered:
            assert (
                recovered.partition_of("alice")
                == session.partition_of("alice")
            )
            assert recovered.graph.label("bob") == "u"
