"""Tests for workload profiling and the workload-aware offline partitioner."""

import random

import pytest

from repro.cluster import DistributedGraphStore, run_workload
from repro.graph import LabelledGraph, edge_key
from repro.graph.generators import plant_motifs
from repro.partitioning import multilevel_partition
from repro.engine.workload_offline import (
    profile_workload,
    traversal_edge_weights,
    workload_aware_multilevel,
)
from repro.workload import PatternQuery, Workload, figure1_graph, figure1_workload


class TestProfiling:
    def test_profile_counts_only_real_edges(self):
        graph = figure1_graph()
        counts = profile_workload(
            graph, figure1_workload(), executions=20, rng=random.Random(1)
        )
        assert counts
        for u, v in counts:
            assert graph.has_edge(u, v)

    def test_hot_query_edges_dominate(self):
        # With the workload solely q1 (the square), the square's edges
        # must be the most traversed.
        graph = figure1_graph()
        workload = Workload([PatternQuery("q1", LabelledGraph.cycle("abab"))])
        counts = profile_workload(
            graph, workload, executions=20, rng=random.Random(2)
        )
        square_edges = {
            edge_key(1, 2), edge_key(1, 5), edge_key(2, 6), edge_key(5, 6)
        }
        hot = max(counts, key=counts.get)
        assert hot in square_edges or counts[hot] == max(
            counts.get(e, 0) for e in square_edges
        )

    def test_profile_deterministic(self):
        graph = figure1_graph()
        a = profile_workload(
            graph, figure1_workload(), executions=15, rng=random.Random(3)
        )
        b = profile_workload(
            graph, figure1_workload(), executions=15, rng=random.Random(3)
        )
        assert a == b


class TestEdgeWeights:
    def test_every_edge_weighted(self):
        graph = figure1_graph()
        weights = traversal_edge_weights(graph, {edge_key(1, 2): 5})
        assert len(weights) == graph.num_edges
        assert weights[edge_key(1, 2)] == 6
        assert weights[edge_key(3, 4)] == 1

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            traversal_edge_weights(figure1_graph(), {}, base_weight=-1)


class TestWorkloadAwareMultilevel:
    def _testbed(self):
        motif = LabelledGraph.path("abc")
        graph = plant_motifs(
            [(motif, 30)], noise_vertices=60,
            noise_edge_probability=0.01, rng=random.Random(4),
        )
        workload = Workload([PatternQuery("abc", motif)])
        return graph, workload

    def test_complete_valid_assignment(self):
        graph, workload = self._testbed()
        assignment = workload_aware_multilevel(
            graph, workload, 4, rng=random.Random(5)
        )
        assert assignment.num_assigned == graph.num_vertices
        assert max(assignment.sizes()) <= assignment.capacity

    def test_beats_plain_offline_on_workload_metric(self):
        graph, workload = self._testbed()
        plain = multilevel_partition(graph, 8, rng=random.Random(6))
        aware = workload_aware_multilevel(
            graph, workload, 8, rng=random.Random(6)
        )

        def p_remote(assignment):
            stats = run_workload(
                DistributedGraphStore(graph, assignment), workload,
                executions=60, rng=random.Random(7),
            )
            return stats.remote_probability

        assert p_remote(aware) <= p_remote(plain) + 0.02

    def test_weighted_multilevel_respects_heavy_edges(self):
        # Two cliques joined by one bridge; making the bridge heavy must
        # not stop the partitioner cutting it (it is the only sane cut),
        # but making *intra-clique* edges heavy must keep cliques whole.
        graph = LabelledGraph()
        for v in range(8):
            graph.add_vertex(v, "a")
        for base in (0, 4):
            for i in range(base, base + 4):
                for j in range(i + 1, base + 4):
                    graph.add_edge(i, j)
        graph.add_edge(0, 4)  # bridge
        weights = {edge_key(u, v): 10 for u, v in graph.edges()}
        weights[edge_key(0, 4)] = 1
        assignment = multilevel_partition(
            graph, 2, rng=random.Random(8), edge_weights=weights
        )
        left = {assignment.partition_of(v) for v in range(4)}
        right = {assignment.partition_of(v) for v in range(4, 8)}
        assert len(left) == 1 and len(right) == 1
        assert left != right
