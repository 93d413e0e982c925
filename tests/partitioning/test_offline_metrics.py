"""Tests for the multilevel offline partitioner and quality metrics."""

import random

import pytest
from stream_driver import partition_graph

from repro.exceptions import PartitioningError
from repro.graph import LabelledGraph
from repro.graph.generators import erdos_renyi, grid, planted_partition
from repro.partitioning import (
    HashPartitioner,
    LinearDeterministicGreedy,
    PartitionAssignment,
    cut_edges,
    edge_cut,
    edge_cut_fraction,
    multilevel_partition,
    normalised_max_load,
)
from repro.partitioning.base import default_capacity


def assigned_pair_graph():
    g = LabelledGraph.from_edges({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
    a = PartitionAssignment(2, 2)
    a.assign(0, 0)
    a.assign(1, 0)
    a.assign(2, 1)
    return g, a


class TestMetrics:
    def test_cut_edges_identified(self):
        g, a = assigned_pair_graph()
        assert cut_edges(g, a) == [(1, 2)]
        assert edge_cut(g, a) == 1

    def test_cut_fraction(self):
        g, a = assigned_pair_graph()
        assert edge_cut_fraction(g, a) == pytest.approx(0.5)

    def test_cut_fraction_empty_graph(self):
        g = LabelledGraph.from_edges({0: "a"})
        a = PartitionAssignment(2, 1)
        a.assign(0, 0)
        assert edge_cut_fraction(g, a) == 0.0

    def test_unassigned_endpoint_raises(self):
        g = LabelledGraph.path("ab")
        a = PartitionAssignment(2, 2)
        a.assign(0, 0)
        with pytest.raises(PartitioningError):
            edge_cut(g, a)

    def test_normalised_max_load(self):
        a = PartitionAssignment(2, 10)
        for i in range(3):
            a.assign(f"x{i}", 0)
        a.assign("y", 1)
        assert normalised_max_load(a) == pytest.approx(3 / 2)


class TestMultilevel:
    def test_partitions_whole_graph(self):
        g = planted_partition(160, 4, 0.2, 0.005, rng=random.Random(1))
        assignment = multilevel_partition(g, 4, rng=random.Random(2))
        assert assignment.num_assigned == g.num_vertices
        assert max(assignment.sizes()) <= assignment.capacity

    def test_finds_planted_communities(self):
        g = planted_partition(120, 4, 0.3, 0.002, rng=random.Random(3))
        assignment = multilevel_partition(g, 4, rng=random.Random(4))
        assert edge_cut_fraction(g, assignment) < 0.15

    def test_beats_streaming_on_structured_graph(self):
        g = planted_partition(160, 4, 0.2, 0.01, rng=random.Random(5))
        offline_cut = edge_cut_fraction(
            g, multilevel_partition(g, 4, rng=random.Random(6))
        )
        ldg_cut = edge_cut_fraction(
            g,
            partition_graph(
                LinearDeterministicGreedy(), g, k=4, rng=random.Random(6)
            ),
        )
        hash_cut = edge_cut_fraction(
            g, partition_graph(HashPartitioner(), g, k=4, rng=random.Random(6))
        )
        assert offline_cut <= ldg_cut <= hash_cut

    def test_grid_cut_is_small(self):
        g = grid(12, 12)
        assignment = multilevel_partition(g, 4, rng=random.Random(7))
        # A 12x12 grid has 264 edges; a good 4-way cut is well under 25%.
        assert edge_cut_fraction(g, assignment) < 0.25

    def test_k1_trivial(self):
        g = erdos_renyi(20, 0.2, rng=random.Random(8))
        assignment = multilevel_partition(g, 1, rng=random.Random(9))
        assert assignment.sizes() == [20]

    def test_balance_within_slack(self):
        g = erdos_renyi(150, 0.05, rng=random.Random(10))
        assignment = multilevel_partition(
            g, 5, capacity=default_capacity(150, 5, 1.1), rng=random.Random(11)
        )
        assert normalised_max_load(assignment) <= 1.1 + 1e-9

    def test_empty_graph_rejected(self):
        with pytest.raises(PartitioningError):
            multilevel_partition(LabelledGraph(), 2)

    def test_deterministic_given_seed(self):
        g = erdos_renyi(60, 0.1, rng=random.Random(12))
        a = multilevel_partition(g, 3, rng=random.Random(13))
        b = multilevel_partition(g, 3, rng=random.Random(13))
        assert a.assigned() == b.assigned()

    def test_disconnected_graph_handled(self):
        g = LabelledGraph()
        for i in range(12):
            g.add_vertex(i, "a")
        for base in (0, 4, 8):
            g.add_edge(base, base + 1)
            g.add_edge(base + 1, base + 2)
            g.add_edge(base + 2, base + 3)
        assignment = multilevel_partition(g, 3, rng=random.Random(14))
        assert assignment.num_assigned == 12
