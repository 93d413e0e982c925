"""Tests for the sliding stream window."""

import pytest

from repro.exceptions import StreamError
from repro.stream import SlidingWindow
from repro.stream.window import ROUTE_DEPARTED, ROUTE_EXTERNAL, ROUTE_INTERNAL


def filled_window(capacity=4):
    window = SlidingWindow(capacity)
    for v, label in enumerate("abcd"[:capacity]):
        window.add_vertex(v, label)
    return window


class TestArrival:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StreamError):
            SlidingWindow(0)

    def test_add_vertex_buffers(self):
        window = SlidingWindow(2)
        window.add_vertex(1, "a")
        assert 1 in window
        assert len(window) == 1

    def test_full_window_rejects_vertices(self):
        window = filled_window(2)
        with pytest.raises(StreamError):
            window.add_vertex(99, "z")

    def test_duplicate_vertex_rejected(self):
        window = SlidingWindow(3)
        window.add_vertex(1, "a")
        with pytest.raises(StreamError):
            window.add_vertex(1, "a")

    def test_internal_edge(self):
        window = filled_window()
        assert window.route_edge(0, 1) == ROUTE_INTERNAL
        assert window.graph.has_edge(0, 1)

    def test_external_edge(self):
        window = filled_window(2)
        departed = window.oldest()
        window.expire(departed)
        assert window.route_edge(departed, 1) == ROUTE_EXTERNAL
        assert departed in window.external_neighbours(1)

    def test_departed_edge(self):
        window = filled_window(2)
        a = window.oldest()
        window.expire(a)
        b = window.oldest()
        window.expire(b)
        assert window.route_edge(a, b) == ROUTE_DEPARTED


class TestDeparture:
    def test_oldest_is_fifo(self):
        window = filled_window()
        assert window.oldest() == 0

    def test_evict_oldest_returns_context(self):
        window = filled_window()
        window.route_edge(0, 1)
        assert window.oldest() == 0
        label, external, internal = window.expire(0)
        assert label == "a"
        assert external == set()
        assert internal == frozenset({1})

    def test_only_internal_edges_intern_vertices(self):
        window = filled_window()
        window.route_edge(0, 99)
        assert set(window.graph.vertices()) == set()
        window.route_edge(1, 2)
        assert set(window.graph.vertices()) == {1, 2}
        assert window.expire(0) == ("a", {99}, frozenset())
        assert window.expire(1) == ("b", set(), frozenset({2}))
        assert set(window.graph.vertices()) == {2}
        assert window.external_neighbours(2) == frozenset({1})

    def test_departing_vertex_becomes_external_for_neighbours(self):
        window = filled_window()
        window.route_edge(0, 1)
        window.expire(window.oldest())
        assert 0 in window.external_neighbours(1)

    def test_external_neighbours_accumulate(self):
        window = filled_window()
        window.route_edge(0, 3)
        window.route_edge(1, 3)
        window.expire(window.oldest())  # 0
        window.expire(window.oldest())  # 1
        assert window.external_neighbours(3) == frozenset({0, 1})

    def test_remove_arbitrary_vertex(self):
        window = filled_window()
        window.route_edge(1, 2)
        window.expire(2)
        assert 2 not in window
        assert 2 in window.external_neighbours(1)

    def test_remove_missing_raises(self):
        window = filled_window()
        with pytest.raises(StreamError):
            window.expire(99)

    def test_oldest_on_empty_raises(self):
        window = SlidingWindow(2)
        with pytest.raises(StreamError):
            window.oldest()

    def test_drain_empties_fifo(self):
        window = filled_window(3)
        order = []
        while len(window):
            order.append(window.oldest())
            window.expire(order[-1])
        assert order == [0, 1, 2]
        assert len(window) == 0

    def test_eviction_frees_capacity(self):
        window = filled_window(2)
        window.expire(window.oldest())
        window.add_vertex(50, "z")
        assert 50 in window

    def test_departed_external_context_preserved(self):
        # 0 leaves; later 1 leaves and must report 0 as external neighbour
        # even though the edge arrived while both were buffered.
        window = filled_window(2)
        window.route_edge(0, 1)
        window.expire(window.oldest())
        _, external, _ = window.expire(window.oldest())
        assert external == {0}

    def test_arrival_order_snapshot(self):
        window = filled_window(3)
        assert window.arrival_order() == [0, 1, 2]
