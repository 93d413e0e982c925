"""Fallback and saturation behaviour of the streaming heuristics.

When partitions fill up, every heuristic must degrade gracefully to a
feasible placement rather than fail -- the capacity constraint is the
one invariant no streaming decision may break.
"""

import random

import pytest
from stream_driver import partition_stream

from repro.exceptions import CapacityExceededError
from repro.graph import LabelledGraph
from repro.partitioning import (
    BalancedPartitioner,
    ChunkingPartitioner,
    FennelPartitioner,
    HashPartitioner,
    LinearDeterministicGreedy,
    PartitionAssignment,
    RandomPartitioner,
)
from repro.stream.sources import stream_from_graph

HEURISTICS = [
    HashPartitioner,
    RandomPartitioner,
    BalancedPartitioner,
    ChunkingPartitioner,
    LinearDeterministicGreedy,
    FennelPartitioner,
]


def saturated_assignment(k=2, capacity=2, leave_room_in=1):
    """All partitions full except one slot in ``leave_room_in``."""
    assignment = PartitionAssignment(k, capacity)
    counter = 0
    for partition in range(k):
        fill = capacity - (1 if partition == leave_room_in else 0)
        for _ in range(fill):
            assignment.assign(f"pre{counter}", partition)
            counter += 1
    return assignment


class TestSaturation:
    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_only_feasible_partition_chosen(self, cls):
        assignment = saturated_assignment(k=3, capacity=3, leave_room_in=2)
        partitioner = cls()
        chosen = partitioner.place("new", "a", [], assignment)
        assert chosen == 2

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_hard_full_raises(self, cls):
        assignment = PartitionAssignment(2, 1)
        assignment.assign("x", 0)
        assignment.assign("y", 1)
        partitioner = cls()
        with pytest.raises(CapacityExceededError):
            partitioner.place("z", "a", [], assignment)

    def test_ldg_ignores_neighbours_in_full_partitions(self):
        # All of v's neighbours sit in the full partition; LDG must still
        # pick the one with room.
        assignment = saturated_assignment(k=2, capacity=3, leave_room_in=1)
        partitioner = LinearDeterministicGreedy()
        neighbours = ["pre0", "pre1", "pre2"]  # all in partition 0 (full)
        chosen = partitioner.place("v", "a", neighbours, assignment)
        assert chosen == 1

    def test_exact_fit_stream_completes(self):
        # n == k * capacity exactly: the stream must fill every slot.
        graph = LabelledGraph()
        for v in range(12):
            graph.add_vertex(v, "a")
        for v in range(1, 12):
            graph.add_edge(v - 1, v)
        events = stream_from_graph(graph, ordering="random", rng=random.Random(1))
        for cls in HEURISTICS:
            assignment = partition_stream(cls(), events, k=3, capacity=4)
            assert assignment.sizes() == [4, 4, 4]


class TestNeighbourCounting:
    def test_unassigned_neighbours_ignored(self):
        assignment = PartitionAssignment(2, 10)
        assignment.assign("placed", 1)
        partitioner = LinearDeterministicGreedy()
        # "ghost" was never assigned (still in some window elsewhere).
        chosen = partitioner.place("v", "a", ["placed", "ghost"], assignment)
        assert chosen == 1

    def test_duplicate_neighbours_count_twice(self):
        # Multi-edges don't exist, but the same neighbour may legitimately
        # appear once; duplicated input should not crash and counts double
        # (callers pass sets/frozensets in practice).
        assignment = PartitionAssignment(2, 10)
        assignment.assign("n", 0)
        partitioner = LinearDeterministicGreedy()
        counts = partitioner.neighbour_counts(["n", "n"], assignment)
        assert counts == [2, 0]
