"""LDG with no placed neighbour is the least-loaded feasible partition.

With no placed neighbour every LDG score is 0, so ``place`` returns
``fallback_partition``'s answer without scoring.  Both are checked here
against the neighbour count, scoring loop and fallback as they stood
before that shortcut, kept verbatim as the reference: over random size
vectors, capacities and k, with full partitions, ties and the all-full
case, which must raise ``CapacityExceededError`` the same way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CapacityExceededError
from repro.partitioning import LinearDeterministicGreedy, PartitionAssignment
from repro.partitioning.base import StreamingVertexPartitioner


def reference_fallback(assignment):
    feasible = assignment.feasible_partitions()
    if not feasible:
        raise CapacityExceededError("no partition has free capacity")
    return min(feasible, key=lambda i: (assignment.size(i), i))


def reference_place(placed_neighbours, assignment):
    counts = [0] * assignment.k
    for neighbour in placed_neighbours:
        partition = assignment.partition_of(neighbour)
        if partition is not None:
            counts[partition] += 1
    sizes = assignment.sizes_view()
    capacity = assignment.capacity
    best = -1
    best_score = 0.0
    best_size = 0
    for i in range(assignment.k):
        size = sizes[i]
        if size >= capacity:
            continue
        score = counts[i] * (1.0 - size / capacity)
        if (
            best < 0
            or score > best_score
            or (score == best_score and size < best_size)
        ):
            best = i
            best_score = score
            best_size = size
    if best < 0:
        return reference_fallback(assignment)
    return best


@st.composite
def assignments(draw):
    k = draw(st.integers(1, 8))
    capacity = draw(st.integers(1, 6))
    # Sizes drawn from a few values so ties and full partitions are common.
    sizes = draw(
        st.lists(
            st.sampled_from(sorted({0, 1, capacity - 1, capacity})),
            min_size=k,
            max_size=k,
        )
    )
    assignment = PartitionAssignment(k, capacity)
    for partition, size in enumerate(sizes):
        for slot in range(size):
            assignment.assign((partition, slot), partition)
    return assignment


def outcome(choose, *args):
    try:
        return choose(*args)
    except CapacityExceededError as error:
        return ("raises", str(error))


@settings(max_examples=500, deadline=None)
@given(assignment=assignments())
def test_no_neighbour_placement_matches_the_scoring_loop(assignment):
    expected = outcome(reference_place, (), assignment)
    assert outcome(reference_fallback, assignment) == expected
    fallback = StreamingVertexPartitioner.fallback_partition
    assert outcome(fallback, assignment) == expected
    ldg = LinearDeterministicGreedy()
    assert outcome(ldg.place, "v", "a", (), assignment) == expected


@settings(max_examples=300, deadline=None)
@given(assignment=assignments(), data=st.data())
def test_placement_with_neighbours_matches_the_scoring_loop(assignment, data):
    placed = sorted(assignment.assigned(), key=repr)
    neighbours = []
    if placed:
        neighbours = data.draw(st.lists(st.sampled_from(placed), unique=True))
    # An unplaced neighbour scores nothing, as before.
    neighbours.append("unplaced")
    ldg = LinearDeterministicGreedy()
    assert outcome(ldg.place, "v", "a", neighbours, assignment) == outcome(
        reference_place, neighbours, assignment
    )


def test_all_full_raises():
    assignment = PartitionAssignment(2, 1)
    assignment.assign("x", 0)
    assignment.assign("y", 1)
    with pytest.raises(CapacityExceededError, match="no partition has free"):
        LinearDeterministicGreedy().place("v", "a", (), assignment)
