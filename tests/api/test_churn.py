"""Session-level churn: ``retract`` and ``rebalance`` typed commands."""

import random

import pytest

from repro.api import Cluster, ClusterConfig, DurabilityConfig
from repro.exceptions import SessionError
from repro.graph import LabelledGraph
from repro.graph.generators import planted_partition
from repro.workload import PatternQuery, Workload


def small_workload():
    return Workload([PatternQuery("ab", LabelledGraph.path("ab"))])


def loaded_session(method="ldg", partitions=3, seed=5, n=60, wal_dir=None):
    graph = planted_partition(n, partitions, 0.3, 0.02, rng=random.Random(seed))
    durability = DurabilityConfig()
    if wal_dir is not None:
        durability = DurabilityConfig(mode="wal", wal_dir=str(wal_dir))
    session = Cluster.open(
        ClusterConfig(
            partitions=partitions, method=method, seed=seed,
            durability=durability,
        ),
        workload=small_workload(),
    )
    session.ingest(graph)
    return session, graph


class TestRetract:
    def test_retract_vertices_and_edges(self):
        session, graph = loaded_session()
        victim = next(iter(graph.vertices()))
        edge = next(
            e for e in session.graph.edges() if victim not in e
        )
        degree = session.graph.degree(victim)
        report = session.retract(vertices=[victim], edges=[edge])
        assert report.vertices_removed == 1
        assert report.edges_removed == 1
        assert report.cascaded_edges == degree
        assert not session.graph.has_vertex(victim)
        assert not session.graph.has_edge(*edge)
        assert session.partition_of(victim) is None
        assert session.is_complete  # still queryable
        assert session.query(LabelledGraph.path("ab")).matches >= 0

    def test_retract_validates_before_mutating(self):
        session, _ = loaded_session()
        vertices_before = session.graph.num_vertices
        edges_before = session.graph.num_edges
        with pytest.raises(SessionError):
            session.retract(vertices=[999_999])
        with pytest.raises(SessionError):
            session.retract(edges=[(0, 999_999)])
        assert session.graph.num_vertices == vertices_before
        assert session.graph.num_edges == edges_before

    def test_retract_frees_capacity_for_reingest(self):
        """Removal vacates real slots: an explicitly capped cluster can
        absorb replacement vertices after churn."""
        graph = LabelledGraph.from_edges(
            {i: "a" for i in range(8)}, [(i, i + 1) for i in range(7)]
        )
        session = Cluster.open(
            ClusterConfig(partitions=2, method="ldg", capacity=4, seed=0),
            workload=small_workload(),
        )
        session.ingest(graph)
        session.retract(vertices=[0, 1])
        addition = LabelledGraph.from_edges({100: "b", 101: "b"}, [(100, 101)])
        session.ingest(addition)
        assert session.is_complete
        assert session.graph.num_vertices == 8
        assert all(s <= 4 for s in session.assignment.sizes())

    def test_retract_on_restored_session_without_partitioner(self, tmp_path):
        session, _ = loaded_session(wal_dir=tmp_path)
        session.close()
        with Cluster.recover(tmp_path) as recovered:
            victim = next(iter(recovered.graph.vertices()))
            report = recovered.retract(vertices=[victim])
            assert report.vertices_removed == 1
            assert not recovered.graph.has_vertex(victim)
            assert recovered.is_complete

    def test_retract_empty_call_is_noop(self):
        session, _ = loaded_session()
        before = session.graph.num_vertices
        report = session.retract()
        assert report.vertices_removed == report.edges_removed == 0
        assert session.graph.num_vertices == before

    def test_ingest_report_counts_removals(self):
        session = Cluster.open(
            ClusterConfig(
                partitions=2, method="loom", window_size=16,
                motif_threshold=0.5, seed=1,
            )
        )
        report = session.ingest("churn", size=60)
        assert report.removals > 0
        assert report.vertices == 60
        assert report.events == report.vertices + report.edges + report.removals


class TestRebalance:
    def test_rebalance_improves_cut(self):
        """Scatter a community graph with hash, then let rebalancing pull
        neighbours together -- the cut must fall, capacity must hold."""
        session, _ = loaded_session(method="hash")
        report = session.rebalance()
        assert report.moved_vertices > 0
        assert report.cut_after < report.cut_before
        assert all(
            s <= session.assignment.capacity
            for s in session.assignment.sizes()
        )
        # The store's and the partitioner's assignments stay twins.
        assert (
            session.store.assignment.assigned()
            == session._pipeline.partitioner.assignment.assigned()
        )

    def test_max_moves_budget_respected(self):
        session, _ = loaded_session(method="hash")
        report = session.rebalance(max_moves=3)
        assert report.moved_vertices <= 3
        assert report.max_moves == 3

    def test_zero_budget_moves_nothing(self):
        session, _ = loaded_session(method="hash")
        before = session.assignment.assigned()
        report = session.rebalance(max_moves=0)
        assert report.moved_vertices == 0
        assert session.assignment.assigned() == before

    def test_rebalance_deterministic(self):
        first, _ = loaded_session(method="hash")
        second, _ = loaded_session(method="hash")
        a = first.rebalance(max_moves=10)
        b = second.rebalance(max_moves=10)
        assert first.assignment.assigned() == second.assignment.assigned()
        assert a == b

    def test_rebalance_validates_arguments(self):
        session, _ = loaded_session()
        with pytest.raises(SessionError):
            session.rebalance(max_moves=-1)
        with pytest.raises(SessionError):
            session.rebalance(min_gain=0)

    def test_rebalance_absorbs_redundant_replicas(self):
        session, _ = loaded_session(method="hash")
        session.replicate(budget=20, executions=30)
        report = session.rebalance()
        # Any primary that migrated onto one of its replicas absorbed it.
        for vertex in session.graph.vertices():
            home = session.partition_of(vertex)
            assert home not in session.store.replicas_of(vertex)
        assert report.replicas_dropped >= 0

    def test_retract_then_rebalance_round_trip(self, tmp_path):
        session, graph = loaded_session(method="hash", wal_dir=tmp_path)
        victims = list(graph.vertices())[:5]
        session.retract(vertices=victims)
        report = session.rebalance()
        assert session.is_complete
        assert report.total_vertices == graph.num_vertices - 5
        session.close()
        with Cluster.recover(tmp_path) as recovered:
            assert (
                recovered.assignment.assigned()
                == session.assignment.assigned()
            )
