"""Stateful property test for the sliding window.

Hypothesis drives random sequences of arrivals, edges, evictions and
out-of-order removals against a model, asserting the window's invariants
after every step:

* the buffer never exceeds capacity;
* the buffered sub-graph contains exactly the buffered vertices that
  received an internal edge;
* external neighbour sets reference only departed vertices;
* FIFO order is preserved for ``oldest``.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.stream import SlidingWindow
from repro.stream.window import ROUTE_EXTERNAL, ROUTE_INTERNAL

CAPACITY = 5


class WindowMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.window = SlidingWindow(CAPACITY)
        self.next_id = 0
        self.buffered: list[int] = []     # model: arrival order
        self.interned: set[int] = set()   # buffered, with an internal edge
        self.departed: set[int] = set()

    # ------------------------------------------------------------------
    @precondition(lambda self: len(self.buffered) < CAPACITY)
    @rule(label=st.sampled_from("ab"))
    def arrive(self, label):
        vertex = self.next_id
        self.next_id += 1
        self.window.add_vertex(vertex, label)
        self.buffered.append(vertex)

    @precondition(lambda self: len(self.buffered) >= 2)
    @rule(data=st.data())
    def internal_edge(self, data):
        u = data.draw(st.sampled_from(self.buffered))
        v = data.draw(st.sampled_from([x for x in self.buffered if x != u]))
        if not self.window.graph.has_edge(u, v):
            assert self.window.route_edge(u, v) == ROUTE_INTERNAL
            self.interned |= {u, v}

    @precondition(lambda self: self.buffered and self.departed)
    @rule(data=st.data())
    def external_edge(self, data):
        u = data.draw(st.sampled_from(self.buffered))
        v = data.draw(st.sampled_from(sorted(self.departed)))
        assert self.window.route_edge(u, v) == ROUTE_EXTERNAL
        assert v in self.window.external_neighbours(u)

    @precondition(lambda self: self.buffered)
    @rule()
    def evict_oldest(self):
        expected = self.buffered[0]
        assert self.window.oldest() == expected
        self.window.expire(expected)
        self.buffered.pop(0)
        self.interned.discard(expected)
        self.departed.add(expected)

    @precondition(lambda self: self.buffered)
    @rule(data=st.data())
    def remove_any(self, data):
        vertex = data.draw(st.sampled_from(self.buffered))
        self.window.expire(vertex)
        assert vertex not in self.window
        self.buffered.remove(vertex)
        self.interned.discard(vertex)
        self.departed.add(vertex)

    # ------------------------------------------------------------------
    @invariant()
    def capacity_respected(self):
        assert len(self.window) <= CAPACITY

    @invariant()
    def buffer_matches_model(self):
        assert self.window.arrival_order() == self.buffered
        assert set(self.window.graph.vertices()) == self.interned

    @invariant()
    def externals_are_departed(self):
        for vertex in self.buffered:
            externals = self.window.external_neighbours(vertex)
            assert externals <= self.departed

    @invariant()
    def oldest_is_head(self):
        if self.buffered:
            assert self.window.oldest() == self.buffered[0]


TestWindowStateful = WindowMachine.TestCase
TestWindowStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
