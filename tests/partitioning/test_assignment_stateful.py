"""Stateful property tests for PartitionAssignment.

Two machines: the original assign/move machine, and a churn machine
exercising arbitrary add/remove sequences plus capacity growth -- the
invariants the dynamic-graph stack leans on (capacity accounting exact
after removals, grow_capacity monotone).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import CapacityExceededError, PartitioningError
from repro.partitioning import PartitionAssignment

K = 3
CAPACITY = 4


class AssignmentMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.assignment = PartitionAssignment(K, CAPACITY)
        self.model: dict[int, int] = {}
        self.next_id = 0

    @precondition(lambda self: len(self.model) < K * CAPACITY)
    @rule(data=st.data())
    def assign_fresh(self, data):
        feasible = self.assignment.feasible_partitions()
        partition = data.draw(st.sampled_from(feasible))
        vertex = self.next_id
        self.next_id += 1
        self.assignment.assign(vertex, partition)
        self.model[vertex] = partition

    @precondition(lambda self: bool(self.model))
    @rule(data=st.data())
    def move_existing(self, data):
        vertex = data.draw(st.sampled_from(sorted(self.model)))
        target = data.draw(st.integers(min_value=0, max_value=K - 1))
        if (
            target != self.model[vertex]
            and self.assignment.size(target) >= CAPACITY
        ):
            try:
                self.assignment.move(vertex, target)
                raise AssertionError("move into a full partition succeeded")
            except CapacityExceededError:
                return
        self.assignment.move(vertex, target)
        self.model[vertex] = target

    # ------------------------------------------------------------------
    @invariant()
    def placements_match_model(self):
        for vertex, partition in self.model.items():
            assert self.assignment.partition_of(vertex) == partition

    @invariant()
    def sizes_consistent(self):
        sizes = self.assignment.sizes()
        assert sum(sizes) == len(self.model)
        blocks = self.assignment.blocks()
        assert [len(b) for b in blocks] == sizes

    @invariant()
    def capacity_respected(self):
        assert all(size <= CAPACITY for size in self.assignment.sizes())


TestAssignmentStateful = AssignmentMachine.TestCase
TestAssignmentStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class ChurnAssignmentMachine(RuleBasedStateMachine):
    """Arbitrary add/remove/re-add sequences under capacity growth."""

    def __init__(self):
        super().__init__()
        self.capacity = CAPACITY
        self.assignment = PartitionAssignment(K, self.capacity)
        self.model: dict[int, int] = {}
        self.next_id = 0
        self.removed: list[int] = []

    # -- rules ----------------------------------------------------------
    @precondition(lambda self: any(
        size < self.capacity for size in self.assignment.sizes()
    ))
    @rule(data=st.data())
    def assign_vertex(self, data):
        feasible = self.assignment.feasible_partitions()
        partition = data.draw(st.sampled_from(feasible))
        # Sometimes re-add a previously removed id (slot churn).
        if self.removed and data.draw(st.booleans()):
            vertex = self.removed.pop()
        else:
            vertex = self.next_id
            self.next_id += 1
        self.assignment.assign(vertex, partition)
        self.model[vertex] = partition

    @precondition(lambda self: bool(self.model))
    @rule(data=st.data())
    def remove_vertex(self, data):
        vertex = data.draw(st.sampled_from(sorted(self.model)))
        vacated = self.assignment.remove(vertex)
        assert vacated == self.model.pop(vertex)
        self.removed.append(vertex)

    @rule()
    def remove_unassigned_raises(self):
        ghost = self.next_id + 10_000
        try:
            self.assignment.remove(ghost)
            raise AssertionError("removing an unassigned vertex succeeded")
        except PartitioningError:
            pass
        assert self.assignment.discard(ghost) is None

    @rule(extra=st.integers(min_value=0, max_value=3))
    def grow_capacity(self, extra):
        self.assignment.grow_capacity(self.capacity + extra)
        self.capacity += extra

    @precondition(lambda self: self.capacity > 1)
    @rule()
    def shrink_capacity_refused(self):
        try:
            self.assignment.grow_capacity(self.capacity - 1)
            raise AssertionError("capacity shrink succeeded")
        except PartitioningError:
            pass
        assert self.assignment.capacity == self.capacity

    # -- invariants -----------------------------------------------------
    @invariant()
    def capacity_accounting_exact(self):
        sizes = self.assignment.sizes()
        assert sum(sizes) == len(self.model) == self.assignment.num_assigned
        assert [len(b) for b in self.assignment.blocks()] == sizes
        assert all(0 <= size <= self.capacity for size in sizes)

    @invariant()
    def placements_match_model(self):
        for vertex, partition in self.model.items():
            assert self.assignment.partition_of(vertex) == partition
        for vertex in self.removed:
            assert self.assignment.partition_of(vertex) is None

    @invariant()
    def capacity_monotone(self):
        assert self.assignment.capacity == self.capacity


TestChurnAssignmentStateful = ChurnAssignmentMachine.TestCase
TestChurnAssignmentStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
