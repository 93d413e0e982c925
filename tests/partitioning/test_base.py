"""Tests for PartitionAssignment and the streaming driver."""

import random

import pytest
from stream_driver import partition_graph, partition_stream

from repro.exceptions import CapacityExceededError, PartitioningError
from repro.graph import LabelledGraph
from repro.graph.generators import erdos_renyi
from repro.partitioning import (
    HashPartitioner,
    LinearDeterministicGreedy,
    PartitionAssignment,
)
from repro.partitioning.base import default_capacity
from repro.stream import EdgeArrival, VertexArrival


class TestPartitionAssignment:
    def test_assign_and_lookup(self):
        a = PartitionAssignment(2, 4)
        a.assign("v", 1)
        assert a.partition_of("v") == 1
        assert a.size(1) == 1

    def test_unassigned_is_none(self):
        a = PartitionAssignment(2, 4)
        assert a.partition_of("missing") is None

    def test_partitions_of_many(self):
        a = PartitionAssignment(2, 4)
        a.assign("x", 1)
        a.assign("y", 0)
        assert list(a.partitions_of(["y", "missing", "x"])) == [0, None, 1]

    def test_double_assign_rejected(self):
        a = PartitionAssignment(2, 4)
        a.assign("v", 0)
        with pytest.raises(PartitioningError):
            a.assign("v", 1)

    def test_out_of_range_partition_rejected(self):
        a = PartitionAssignment(2, 4)
        with pytest.raises(PartitioningError):
            a.assign("v", 2)

    def test_capacity_enforced(self):
        a = PartitionAssignment(2, 1)
        a.assign("x", 0)
        with pytest.raises(CapacityExceededError):
            a.assign("y", 0)

    def test_move_updates_sizes(self):
        a = PartitionAssignment(2, 4)
        a.assign("v", 0)
        a.move("v", 1)
        assert a.partition_of("v") == 1
        assert a.sizes() == [0, 1]

    def test_move_unassigned_rejected(self):
        a = PartitionAssignment(2, 4)
        with pytest.raises(PartitioningError):
            a.move("v", 1)

    def test_feasible_partitions_with_room(self):
        a = PartitionAssignment(2, 2)
        a.assign("x", 0)
        assert a.feasible_partitions(room_for=2) == [1]

    def test_blocks(self):
        a = PartitionAssignment(2, 4)
        a.assign("x", 0)
        a.assign("y", 1)
        a.assign("z", 0)
        assert a.blocks() == [{"x", "z"}, {"y"}]

    def test_bad_construction(self):
        with pytest.raises(PartitioningError):
            PartitionAssignment(0, 4)
        with pytest.raises(PartitioningError):
            PartitionAssignment(2, 0)

    def test_default_capacity(self):
        assert default_capacity(100, 4, 1.0) == 25
        assert default_capacity(100, 4, 1.1) == 28
        with pytest.raises(PartitioningError):
            default_capacity(10, 2, 0.5)


class TestStreamingDriver:
    def test_every_vertex_assigned(self):
        g = erdos_renyi(40, 0.1, rng=random.Random(1))
        assignment = partition_graph(
            HashPartitioner(), g, k=4, rng=random.Random(2)
        )
        assert assignment.num_assigned == 40
        for v in g.vertices():
            assert assignment.partition_of(v) is not None

    def test_vertex_placed_with_its_arrival_edges(self):
        # Star: centre arrives last and sees all leaves -> LDG puts it with
        # the partition holding most leaves.
        g = LabelledGraph.star("a", "bbbb")
        order = [1, 2, 3, 4, 0]
        from repro.stream.sources import stream_vertices

        events = stream_vertices(g, order)
        assignment = partition_stream(
            LinearDeterministicGreedy(), events, k=2, capacity=4
        )
        centre = assignment.partition_of(0)
        leaf_partitions = [assignment.partition_of(v) for v in (1, 2, 3, 4)]
        assert leaf_partitions.count(centre) >= 2

    def test_late_edges_ignored_for_placement(self):
        events = [
            VertexArrival(0, "a", 0),
            VertexArrival(1, "a", 1),
            EdgeArrival(0, 1, 2),  # late: both endpoints already placed
        ]
        assignment = partition_stream(
            LinearDeterministicGreedy(), events, k=2, capacity=2
        )
        assert assignment.num_assigned == 2

    def test_capacity_never_violated(self):
        g = erdos_renyi(30, 0.2, rng=random.Random(3))
        assignment = partition_graph(
            LinearDeterministicGreedy(),
            g,
            k=3,
            rng=random.Random(4),
            slack=1.0,
        )
        assert max(assignment.sizes()) <= assignment.capacity

    def test_deterministic_given_seed(self):
        g = erdos_renyi(30, 0.2, rng=random.Random(5))
        a = partition_graph(
            LinearDeterministicGreedy(), g, k=3, rng=random.Random(6)
        )
        b = partition_graph(
            LinearDeterministicGreedy(), g, k=3, rng=random.Random(6)
        )
        assert a.assigned() == b.assigned()

    def test_explicit_capacity_respected(self):
        g = erdos_renyi(20, 0.1, rng=random.Random(7))
        assignment = partition_graph(
            HashPartitioner(), g, k=2, rng=random.Random(8), capacity=15
        )
        assert assignment.capacity == 15
