"""Tests for the streaming heuristics (hash, S&K family, Fennel)."""

import random

import pytest
from stream_driver import partition_graph

from repro.exceptions import PartitioningError
from repro.graph import LabelledGraph
from repro.graph.generators import erdos_renyi, planted_partition
from repro.partitioning import (
    BalancedPartitioner,
    ChunkingPartitioner,
    DeterministicGreedy,
    ExponentialDeterministicGreedy,
    FennelPartitioner,
    HashPartitioner,
    LinearDeterministicGreedy,
    RandomPartitioner,
    edge_cut_fraction,
    normalised_max_load,
)
from repro.partitioning.base import PartitionAssignment
from repro.partitioning.hashing import stable_hash
from repro.partitioning.streaming import (
    choose_partition_for_group,
    ldg_group_score,
    ldg_score,
)

ALL_PARTITIONERS = [
    HashPartitioner,
    RandomPartitioner,
    BalancedPartitioner,
    ChunkingPartitioner,
    DeterministicGreedy,
    LinearDeterministicGreedy,
    ExponentialDeterministicGreedy,
    FennelPartitioner,
]


def community_graph(seed=11):
    return planted_partition(120, 4, 0.25, 0.005, rng=random.Random(seed))


class TestAllPartitionersContract:
    @pytest.mark.parametrize("cls", ALL_PARTITIONERS)
    def test_all_vertices_assigned_and_capacity_kept(self, cls):
        g = community_graph()
        assignment = partition_graph(cls(), g, k=4, rng=random.Random(1))
        assert assignment.num_assigned == g.num_vertices
        assert max(assignment.sizes()) <= assignment.capacity

    @pytest.mark.parametrize("cls", ALL_PARTITIONERS)
    def test_k1_puts_everything_together(self, cls):
        g = erdos_renyi(15, 0.2, rng=random.Random(2))
        assignment = partition_graph(cls(), g, k=1, rng=random.Random(3))
        assert assignment.sizes() == [15]


class TestHash:
    def test_stable_hash_is_process_independent(self):
        assert stable_hash("alice") == stable_hash("alice")
        assert stable_hash(42) != stable_hash("42")

    def test_roughly_balanced(self):
        g = erdos_renyi(400, 0.01, rng=random.Random(4))
        assignment = partition_graph(HashPartitioner(), g, k=4, rng=random.Random(5))
        assert normalised_max_load(assignment) < 1.2

    def test_cut_near_one_minus_one_over_k(self):
        g = erdos_renyi(300, 0.05, rng=random.Random(6))
        assignment = partition_graph(HashPartitioner(), g, k=4, rng=random.Random(7))
        fraction = edge_cut_fraction(g, assignment)
        assert 0.65 < fraction < 0.85  # expectation 0.75


class TestChunkingAndBalanced:
    def test_chunking_fills_in_order(self):
        g = LabelledGraph.from_edges({i: "a" for i in range(6)})
        assignment = partition_graph(
            ChunkingPartitioner(), g, k=3, ordering="natural", capacity=2
        )
        assert assignment.sizes() == [2, 2, 2]
        assert assignment.partition_of(0) == 0
        assert assignment.partition_of(5) == 2

    def test_balanced_perfectly_even(self):
        g = erdos_renyi(90, 0.05, rng=random.Random(8))
        assignment = partition_graph(
            BalancedPartitioner(), g, k=3, rng=random.Random(9)
        )
        assert max(assignment.sizes()) - min(assignment.sizes()) <= 1


class TestLDG:
    def test_beats_hash_on_structured_graph(self):
        g = community_graph()
        hash_cut = edge_cut_fraction(
            g, partition_graph(HashPartitioner(), g, k=4, rng=random.Random(10))
        )
        ldg_cut = edge_cut_fraction(
            g,
            partition_graph(
                LinearDeterministicGreedy(), g, k=4, rng=random.Random(10)
            ),
        )
        assert ldg_cut < hash_cut

    def test_score_prefers_emptier_partition(self):
        assert ldg_score(3, 2, 10) > ldg_score(3, 8, 10)

    def test_score_zero_when_full(self):
        assert ldg_score(5, 10, 10) == 0.0

    def test_singleton_vertex_goes_to_least_loaded(self):
        a = PartitionAssignment(3, 10)
        a.assign("x", 0)
        partitioner = LinearDeterministicGreedy()
        chosen = partitioner.place("lonely", "a", [], a)
        assert chosen in (1, 2)

    def test_group_score_penalises_large_groups(self):
        small = ldg_group_score(4, 5, 1, 10)
        large = ldg_group_score(4, 5, 5, 10)
        assert large < small

    def test_choose_partition_for_group_respects_room(self):
        a = PartitionAssignment(2, 5)
        for i in range(4):
            a.assign(f"p0_{i}", 0)
        # Group of 3 only fits in partition 1 even if its edges point to 0.
        chosen = choose_partition_for_group(a, {0: 10, 1: 0}, 3)
        assert chosen == 1

    def test_choose_partition_for_group_no_room_raises(self):
        a = PartitionAssignment(1, 2)
        a.assign("x", 0)
        with pytest.raises(LookupError):
            choose_partition_for_group(a, {}, 5)


class TestFennel:
    def test_beats_hash_on_structured_graph(self):
        g = community_graph()
        hash_cut = edge_cut_fraction(
            g, partition_graph(HashPartitioner(), g, k=4, rng=random.Random(12))
        )
        fennel_cut = edge_cut_fraction(
            g,
            partition_graph(
                FennelPartitioner(
                    expected_vertices=g.num_vertices,
                    expected_edges=g.num_edges,
                ),
                g,
                k=4,
                rng=random.Random(12),
            ),
        )
        assert fennel_cut < hash_cut

    def test_adaptive_mode_runs_without_expectations(self):
        g = community_graph(13)
        assignment = partition_graph(
            FennelPartitioner(), g, k=4, rng=random.Random(13)
        )
        assert assignment.num_assigned == g.num_vertices

    def test_balance_respected(self):
        g = community_graph(14)
        assignment = partition_graph(
            FennelPartitioner(
                expected_vertices=g.num_vertices, expected_edges=g.num_edges
            ),
            g,
            k=4,
            rng=random.Random(14),
        )
        assert normalised_max_load(assignment) <= 1.2

    def test_bad_parameters(self):
        with pytest.raises(PartitioningError):
            FennelPartitioner(gamma=1.0)
        with pytest.raises(PartitioningError):
            FennelPartitioner(balance_slack=0.9)
