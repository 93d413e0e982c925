"""Tests for store replicas, per-edge profiling and the hotspot replicator."""

import random

import pytest

from repro.cluster import DistributedGraphStore, run_workload
from repro.cluster.executor import TraversalLedger
from repro.exceptions import ConfigurationError, PartitioningError
from repro.partitioning import PartitionAssignment
from repro.replication import HotspotReplicator
from repro.workload import figure1_graph, figure1_workload


def split_store() -> DistributedGraphStore:
    graph = figure1_graph()
    assignment = PartitionAssignment(2, 8)
    for vertex, partition in {
        1: 0, 5: 0, 3: 0, 4: 0, 2: 1, 6: 1, 7: 1, 8: 1
    }.items():
        assignment.assign(vertex, partition)
    return DistributedGraphStore(graph, assignment)


class TestReplicas:
    def test_add_replica_makes_hop_local(self):
        store = split_store()
        assert store.is_remote(1, 2)
        assert store.add_replica(2, 0)
        assert not store.is_remote(1, 2)   # 1 reads the local copy of 2
        assert store.is_remote(2, 1) is False or True  # direction-specific

    def test_replica_into_home_partition_is_noop(self):
        store = split_store()
        assert not store.add_replica(1, 0)
        assert store.total_replicas() == 0

    def test_duplicate_replica_is_noop(self):
        store = split_store()
        assert store.add_replica(2, 0)
        assert not store.add_replica(2, 0)
        assert store.total_replicas() == 1

    def test_out_of_range_partition_rejected(self):
        store = split_store()
        with pytest.raises(PartitioningError):
            store.add_replica(2, 5)

    def test_replication_factor(self):
        store = split_store()
        assert store.replication_factor() == 1.0
        store.add_replica(2, 0)
        store.add_replica(6, 0)
        assert store.replication_factor() == pytest.approx(1.0 + 2 / 8)

    def test_replicas_of(self):
        store = split_store()
        store.add_replica(2, 0)
        assert store.replicas_of(2) == frozenset({0})
        assert store.replicas_of(1) == frozenset()


class TestEdgeTracking:
    def test_ledger_edge_counts(self):
        ledger = TraversalLedger(
            local=1, remote=2, track_edges=True,
            edge_counts={(1, 2): 2, (2, 3): 1},
        )
        assert ledger.total == 3
        assert ledger.edge_counts == {(1, 2): 2, (2, 3): 1}
        assert ledger.hottest_edges(1) == [(1, 2)]

    def test_untracked_ledger_keeps_no_edges(self):
        stats = run_workload(
            split_store(), figure1_workload(), executions=10,
            rng=random.Random(1),
        )
        assert stats.ledger.total > 0
        assert stats.ledger.edge_counts == {}

    def test_merge_combines_edge_counts(self):
        a = TraversalLedger(remote=1, track_edges=True, edge_counts={(1, 2): 1})
        b = TraversalLedger(remote=1, track_edges=True, edge_counts={(1, 2): 1})
        a.merge(b)
        assert a.remote == 2
        assert a.edge_counts[(1, 2)] == 2

    def test_run_workload_tracks_edges(self):
        stats = run_workload(
            split_store(), figure1_workload(), executions=10,
            rng=random.Random(1), track_edges=True,
        )
        assert stats.ledger.edge_counts
        # Every tracked edge is a real graph edge.
        graph = figure1_graph()
        for u, v in stats.ledger.edge_counts:
            assert graph.has_edge(u, v)


class TestHotspotReplicator:
    def test_bad_parameters(self):
        store = split_store()
        with pytest.raises(ConfigurationError):
            HotspotReplicator(store, budget=-1)
        with pytest.raises(ConfigurationError):
            HotspotReplicator(store, budget=2, batch_size=0)

    def test_zero_budget_changes_nothing(self):
        store = split_store()
        report = HotspotReplicator(store, budget=0).run(
            figure1_workload(), executions=10, rng=random.Random(2)
        )
        assert report.replicas_added == 0
        assert store.total_replicas() == 0
        assert report.remote_probability_after == report.remote_probability_before

    def test_replication_reduces_remote_probability(self):
        store = split_store()
        report = HotspotReplicator(store, budget=6).run(
            figure1_workload(), executions=30, rng=random.Random(3)
        )
        assert report.replicas_added > 0
        assert report.remote_probability_after < report.remote_probability_before

    def test_budget_respected(self):
        store = split_store()
        report = HotspotReplicator(store, budget=3, batch_size=2).run(
            figure1_workload(), executions=20, rng=random.Random(4)
        )
        assert report.replicas_added <= 3
        assert store.total_replicas() == report.replicas_added

    def test_stops_when_everything_local(self):
        # One-partition store has no crossings to dissipate.
        graph = figure1_graph()
        assignment = PartitionAssignment(1, 8)
        for vertex in graph.vertices():
            assignment.assign(vertex, 0)
        store = DistributedGraphStore(graph, assignment)
        report = HotspotReplicator(store, budget=10).run(
            figure1_workload(), executions=10, rng=random.Random(5)
        )
        assert report.replicas_added == 0

    def test_history_records_each_step(self):
        store = split_store()
        report = HotspotReplicator(store, budget=4, batch_size=2).run(
            figure1_workload(), executions=20, rng=random.Random(6)
        )
        assert len(report.history) == report.steps + 1
