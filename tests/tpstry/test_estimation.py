"""Tests for traversal-probability estimation from the TPSTry++."""

import random

import pytest

from repro.api import Cluster, ClusterConfig
from repro.graph import LabelledGraph
from repro.graph.generators import plant_motifs
from repro.partitioning import PartitionAssignment
from repro.stream.sources import stream_from_graph
from repro.tpstry import (
    TPSTryPP,
    edge_motif_probability,
    expected_cut_traversal_weight,
    normalised_cut_traversal_weight,
    vertex_traversal_probability,
)
from repro.workload import PatternQuery, Workload, figure1_graph, figure1_workload


@pytest.fixture(scope="module")
def fig_trie():
    return TPSTryPP.from_workload(figure1_workload())


class TestEdgeMotifProbability:
    def test_hot_edge(self, fig_trie):
        assert edge_motif_probability(fig_trie, "a", "b") == pytest.approx(1.0)

    def test_symmetric(self, fig_trie):
        assert edge_motif_probability(fig_trie, "c", "b") == edge_motif_probability(
            fig_trie, "b", "c"
        )

    def test_cold_edge_zero(self, fig_trie):
        # No figure-1 query contains an a-d edge.
        assert edge_motif_probability(fig_trie, "a", "d") == 0.0


class TestVertexTraversalProbability:
    def test_vertex_on_hot_edges(self, fig_trie):
        graph = figure1_graph()
        # Vertex 2 (label b) touches a-b edges: certain to be traversed.
        assert vertex_traversal_probability(fig_trie, graph, 2) == pytest.approx(1.0)

    def test_isolated_vertex_zero(self, fig_trie):
        graph = LabelledGraph.from_edges({0: "a"})
        assert vertex_traversal_probability(fig_trie, graph, 0) == 0.0

    def test_vertex_with_only_cold_edges(self, fig_trie):
        graph = LabelledGraph.from_edges({0: "a", 1: "d"}, [(0, 1)])
        assert vertex_traversal_probability(fig_trie, graph, 0) == 0.0

    def test_bounded_by_one(self, fig_trie):
        graph = figure1_graph()
        for vertex in graph.vertices():
            p = vertex_traversal_probability(fig_trie, graph, vertex)
            assert 0.0 <= p <= 1.0


class TestCutWeightPredictor:
    def test_no_cut_no_weight(self, fig_trie):
        graph = figure1_graph()
        assignment = PartitionAssignment(1, 8)
        for vertex in graph.vertices():
            assignment.assign(vertex, 0)
        assert expected_cut_traversal_weight(fig_trie, graph, assignment) == 0.0
        assert normalised_cut_traversal_weight(fig_trie, graph, assignment) == 0.0

    def test_cutting_hot_edges_weighs_more_than_cold(self, fig_trie):
        graph = figure1_graph()

        def assignment_for(cut_pair):
            a = PartitionAssignment(2, 8)
            for vertex in graph.vertices():
                a.assign(vertex, 1 if vertex in cut_pair else 0)
            return a

        # Isolating vertex 4 cuts only the cold c-d edge; isolating vertex
        # 2 cuts hot a-b/b-c edges.
        cold = expected_cut_traversal_weight(fig_trie, graph, assignment_for({4}))
        hot = expected_cut_traversal_weight(fig_trie, graph, assignment_for({2}))
        assert hot > cold

    def test_predictor_preserves_method_ordering(self):
        """The static predictor must rank hash > ldg > loom like the
        measured traversal probability does (the point of having it)."""
        motif = LabelledGraph.path("abc")
        graph = plant_motifs([(motif, 30)], noise_vertices=60,
                             noise_edge_probability=0.01,
                             rng=random.Random(1))
        workload = Workload([PatternQuery("abc", motif)])
        trie = TPSTryPP.from_workload(workload)
        events = stream_from_graph(graph, ordering="random",
                                   rng=random.Random(2))
        predicted = {}
        measured = {}
        for method in ("hash", "ldg", "loom"):
            session = Cluster.open(
                ClusterConfig(partitions=4, method=method, window_size=96,
                              motif_threshold=0.5),
                workload=workload,
            )
            session.ingest(events, graph=graph)
            predicted[method] = normalised_cut_traversal_weight(
                trie, graph, session.assignment
            )
            measured[method] = session.run_workload(
                executions=40, rng=random.Random(99)
            ).remote_probability
        assert predicted["loom"] < predicted["ldg"] < predicted["hash"]
        assert measured["loom"] < measured["ldg"] < measured["hash"]
