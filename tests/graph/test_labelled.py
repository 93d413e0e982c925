"""Unit tests for the core LabelledGraph data structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
)
from repro.graph import LabelledGraph, edge_key


class TestVertices:
    def test_add_vertex_returns_id(self):
        g = LabelledGraph()
        assert g.add_vertex(1, "a") == 1

    def test_add_vertex_stores_label(self):
        g = LabelledGraph()
        g.add_vertex(1, "a")
        assert g.label(1) == "a"

    def test_readding_same_label_is_noop(self):
        g = LabelledGraph()
        g.add_vertex(1, "a")
        g.add_vertex(1, "a")
        assert g.num_vertices == 1

    def test_readding_with_different_label_raises(self):
        g = LabelledGraph()
        g.add_vertex(1, "a")
        with pytest.raises(GraphError):
            g.add_vertex(1, "b")

    def test_label_of_missing_vertex_raises(self):
        g = LabelledGraph()
        with pytest.raises(VertexNotFoundError):
            g.label(99)

    def test_remove_vertex_removes_incident_edges(self):
        g = LabelledGraph.path("abc")
        g.remove_vertex(1)
        assert g.num_edges == 0
        assert g.num_vertices == 2

    def test_remove_missing_vertex_raises(self):
        g = LabelledGraph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(0)

    def test_string_vertex_ids_supported(self):
        g = LabelledGraph()
        g.add_vertex("alice", "user")
        g.add_vertex("p1", "post")
        g.add_edge("alice", "p1")
        assert g.has_edge("p1", "alice")

    def test_vertices_with_label(self):
        g = LabelledGraph.from_edges({1: "a", 2: "b", 3: "a"})
        assert g.vertices_with_label("a") == [1, 3]

    def test_labels_alphabet(self):
        g = LabelledGraph.from_edges({1: "a", 2: "b", 3: "a"})
        assert g.labels() == {"a", "b"}

    def test_contains_and_iter(self):
        g = LabelledGraph.from_edges({1: "a", 2: "b"})
        assert 1 in g
        assert 3 not in g
        assert sorted(g) == [1, 2]


class TestEdges:
    def test_add_edge_both_directions_visible(self):
        g = LabelledGraph.from_edges({1: "a", 2: "b"}, [(1, 2)])
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)

    def test_add_edge_missing_endpoint_raises(self):
        g = LabelledGraph.from_edges({1: "a"})
        with pytest.raises(VertexNotFoundError):
            g.add_edge(1, 2)

    def test_self_loop_rejected(self):
        g = LabelledGraph.from_edges({1: "a"})
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_duplicate_edge_is_noop(self):
        g = LabelledGraph.from_edges({1: "a", 2: "b"}, [(1, 2)])
        g.add_edge(2, 1)
        assert g.num_edges == 1

    def test_remove_edge(self):
        g = LabelledGraph.from_edges({1: "a", 2: "b"}, [(1, 2)])
        g.remove_edge(2, 1)
        assert g.num_edges == 0
        assert not g.has_edge(1, 2)

    def test_remove_missing_edge_raises(self):
        g = LabelledGraph.from_edges({1: "a", 2: "b"})
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 2)

    def test_edges_enumerated_once(self):
        g = LabelledGraph.path("abcd")
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_degree(self):
        g = LabelledGraph.star("a", "bbb")
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_neighbours_snapshot_is_immutable(self):
        g = LabelledGraph.path("ab")
        snapshot = g.neighbours(0)
        assert snapshot == frozenset({1})
        with pytest.raises(AttributeError):
            snapshot.add(5)  # type: ignore[attr-defined]

    def test_edge_key_symmetric(self):
        assert edge_key(2, 1) == edge_key(1, 2) == (1, 2)

    def test_edge_key_mixed_types(self):
        assert edge_key("x", 1) == edge_key(1, "x")


class TestConstructors:
    def test_path_shape(self):
        g = LabelledGraph.path("abc")
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert [g.label(v) for v in sorted(g.vertices())] == ["a", "b", "c"]

    def test_cycle_shape(self):
        g = LabelledGraph.cycle("abab")
        assert g.num_edges == 4
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_cycle_too_small_raises(self):
        with pytest.raises(GraphError):
            LabelledGraph.cycle("ab")

    def test_star_shape(self):
        g = LabelledGraph.star("a", "bcd")
        assert g.degree(0) == 3
        assert {g.label(v) for v in g.neighbours(0)} == {"b", "c", "d"}

    def test_start_id_offsets_vertices(self):
        g = LabelledGraph.path("ab", start_id=10)
        assert sorted(g.vertices()) == [10, 11]

    def test_from_edges_roundtrip(self):
        labels = {1: "a", 2: "b", 3: "c"}
        g = LabelledGraph.from_edges(labels, [(1, 2), (2, 3)])
        assert g.vertex_labels() == labels
        assert g.num_edges == 2


class TestCopyAndEquality:
    def test_copy_is_independent(self):
        g = LabelledGraph.path("abc")
        clone = g.copy()
        clone.add_vertex(99, "z")
        clone.add_edge(0, 2)
        assert not g.has_vertex(99)
        assert not g.has_edge(0, 2)

    def test_structural_equality(self):
        a = LabelledGraph.path("abc")
        b = LabelledGraph.path("abc")
        assert a == b

    def test_inequality_on_labels(self):
        assert LabelledGraph.path("abc") != LabelledGraph.path("abd")

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(LabelledGraph())


class TestDerivedStructure:
    def test_label_histogram(self):
        g = LabelledGraph.from_edges({1: "a", 2: "a", 3: "b"})
        assert g.label_histogram() == {"a": 2, "b": 1}

    def test_repr_mentions_sizes(self):
        g = LabelledGraph.path("ab")
        assert "|V|=2" in repr(g)
        assert "|E|=1" in repr(g)


# One step of a random history over a small id pool: ids 0..11 repr-sort
# differently from their numeric order ("10" < "2"), and removing a
# vertex and adding it back under another label recycles slots.
_IDS = st.integers(0, 11)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_vertex"), _IDS, st.sampled_from("abc")),
        st.tuples(st.just("remove_vertex"), _IDS),
        st.tuples(st.just("add_edge"), _IDS, _IDS),
        st.tuples(st.just("remove_edge"), _IDS, _IDS),
    ),
    max_size=60,
)


class TestAdjacencyModel:
    """The indexed adjacency against a plain dict-of-sets model."""

    @settings(max_examples=60, deadline=None)
    @given(_STEPS)
    def test_random_history_matches_a_dict_of_sets(self, steps):
        g = LabelledGraph()
        labels: dict[int, str] = {}
        adjacency: dict[int, set[int]] = {}
        for step in steps:
            kind, u = step[0], step[1]
            if kind == "add_vertex":
                if u in labels:
                    g.remove_vertex(u)  # re-add under a new label
                    del labels[u]
                    for w in adjacency.pop(u):
                        adjacency[w].discard(u)
                g.add_vertex(u, step[2])
                labels[u] = step[2]
                adjacency[u] = set()
            elif kind == "remove_vertex":
                if u not in labels:
                    with pytest.raises(VertexNotFoundError):
                        g.remove_vertex(u)
                    continue
                g.remove_vertex(u)
                del labels[u]
                for w in adjacency.pop(u):
                    adjacency[w].discard(u)
            elif kind == "add_edge":
                v = step[2]
                if u == v or u not in labels or v not in labels:
                    continue
                assert g.add_edge(u, v) == (v not in adjacency[u])
                adjacency[u].add(v)
                adjacency[v].add(u)
            else:
                v = step[2]
                if u not in labels or v not in adjacency[u]:
                    with pytest.raises(EdgeNotFoundError):
                        g.remove_edge(u, v)
                    continue
                g.remove_edge(u, v)
                adjacency[u].discard(v)
                adjacency[v].discard(u)
            self._check(g, labels, adjacency)

    @staticmethod
    def _check(g, labels, adjacency):
        assert list(g.vertices()) == list(labels)
        assert dict(g.vertex_labels()) == labels
        model_edges = {edge_key(u, w) for u in adjacency for w in adjacency[u]}
        for u, nbrs in adjacency.items():
            assert g.neighbours(u) == frozenset(nbrs)
            assert g.sorted_neighbours(u) == tuple(sorted(nbrs, key=repr))
            assert g.degree(u) == len(nbrs)
            for w in labels:
                assert g.has_edge(u, w) == (w in nbrs)
        edges = list(g.edges())
        assert len(edges) == len(set(edges))
        assert set(edges) == model_edges
        assert g.num_edges == len(model_edges)
        edge_ids = {g.edge_id(u, w) for u, w in model_edges}
        assert len(edge_ids) == len(model_edges)
