"""Tests for traversal orders, connectivity helpers and sub-graph views."""

import random

import pytest

from repro.exceptions import VertexNotFoundError
from repro.graph import (
    LabelledGraph,
    bfs_order,
    connected_components,
    dfs_order,
    edge_subgraph,
    induced_subgraph,
    is_connected,
)


def two_component_graph() -> LabelledGraph:
    g = LabelledGraph.path("abc")            # vertices 0,1,2
    other = LabelledGraph.path("dd", start_id=10)
    for v in other.vertices():
        g.add_vertex(v, other.label(v))
    for u, v in other.edges():
        g.add_edge(u, v)
    return g


class TestSearchOrders:
    def test_bfs_visits_everything(self):
        g = two_component_graph()
        assert sorted(bfs_order(g)) == [0, 1, 2, 10, 11]

    def test_bfs_layers_before_depth(self):
        g = LabelledGraph.star("a", "bbb")
        order = bfs_order(g, start=0)
        assert order[0] == 0
        assert set(order[1:]) == {1, 2, 3}

    def test_dfs_goes_deep_first(self):
        g = LabelledGraph.path("abcd")
        order = dfs_order(g, start=0)
        assert order == [0, 1, 2, 3]

    def test_missing_start_raises(self):
        with pytest.raises(VertexNotFoundError):
            bfs_order(LabelledGraph(), start=7)

    def test_rng_shuffles_but_still_covers(self):
        g = two_component_graph()
        order = bfs_order(g, rng=random.Random(3))
        assert sorted(order) == [0, 1, 2, 10, 11]

    def test_deterministic_without_rng(self):
        g = two_component_graph()
        assert bfs_order(g) == bfs_order(g)


class TestConnectivity:
    def test_components_largest_first(self):
        g = two_component_graph()
        components = connected_components(g)
        assert [len(c) for c in components] == [3, 2]

    def test_is_connected_true(self):
        assert is_connected(LabelledGraph.cycle("abc"))

    def test_is_connected_false(self):
        assert not is_connected(two_component_graph())

    def test_empty_graph_is_connected(self):
        assert is_connected(LabelledGraph())


class TestViews:
    def test_induced_subgraph_keeps_internal_edges(self):
        g = LabelledGraph.cycle("abcd")
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2

    def test_induced_subgraph_missing_vertex_raises(self):
        g = LabelledGraph.path("ab")
        with pytest.raises(VertexNotFoundError):
            induced_subgraph(g, [0, 99])

    def test_edge_subgraph_not_induced(self):
        g = LabelledGraph.cycle("abc")
        sub = edge_subgraph(g, [(0, 1), (1, 2)])
        assert sub.num_edges == 2          # (0,2) deliberately excluded
        assert sub.num_vertices == 3

