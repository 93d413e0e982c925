"""Tests for labelled sub-graph isomorphism, including the paper's own example.

Figure 1 of the paper gives a graph G (8 vertices, labels a,b,c,d) and three
queries; the text states the answer to q1 is the sub-graph over vertices
{1, 2, 5, 6}.  We reproduce that exact check here.
"""

import gc

from repro.graph import (
    LabelledGraph,
    count_embeddings,
    find_embeddings,
    find_matches,
    is_isomorphic,
)
from repro.graph.isomorphism import has_embedding


def figure1_graph() -> LabelledGraph:
    labels = {1: "a", 2: "b", 3: "c", 4: "d", 5: "b", 6: "a", 7: "d", 8: "c"}
    edges = [(1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (5, 6), (6, 7), (3, 8), (7, 8)]
    return LabelledGraph.from_edges(labels, edges)


class TestEmbeddings:
    def test_empty_pattern_matches_once(self):
        assert count_embeddings(LabelledGraph(), figure1_graph()) == 1

    def test_single_vertex_pattern(self):
        pattern = LabelledGraph.from_edges({0: "a"})
        assert count_embeddings(pattern, figure1_graph()) == 2  # vertices 1, 6

    def test_single_vertex_pattern_matches_each_vertex(self):
        pattern = LabelledGraph.from_edges({0: "a"})
        matches = find_matches(pattern, figure1_graph())
        assert [set(m.vertices()) for m in matches] == [{1}, {6}]

    def test_label_mismatch_fails(self):
        pattern = LabelledGraph.from_edges({0: "z"})
        assert count_embeddings(pattern, figure1_graph()) == 0

    def test_pattern_larger_than_target(self):
        pattern = LabelledGraph.path("abcabc")
        assert not has_embedding(pattern, LabelledGraph.path("ab"))

    def test_edge_preservation_required(self):
        pattern = LabelledGraph.from_edges({0: "a", 1: "d"}, [(0, 1)])
        target = LabelledGraph.from_edges({0: "a", 1: "d"})  # no edge
        assert not has_embedding(pattern, target)

    def test_injective_mapping(self):
        pattern = LabelledGraph.from_edges({0: "a", 1: "a"}, [(0, 1)])
        target = LabelledGraph.from_edges({0: "a"})
        assert not has_embedding(pattern, target)

    def test_max_matches_caps_enumeration(self):
        pattern = LabelledGraph.from_edges({0: "a"})
        results = list(find_embeddings(pattern, figure1_graph(), max_matches=1))
        assert len(results) == 1

    def test_embeddings_are_valid(self):
        pattern = LabelledGraph.path("abc")
        target = figure1_graph()
        for mapping in find_embeddings(pattern, target):
            assert len(set(mapping.values())) == len(mapping)
            for pv in pattern.vertices():
                assert pattern.label(pv) == target.label(mapping[pv])
            for u, v in pattern.edges():
                assert target.has_edge(mapping[u], mapping[v])

    def test_search_leaves_no_cyclic_garbage(self):
        # The recursive search closure must die with its generator --
        # also one closed early -- not wait for the cycle collector.
        target = figure1_graph()
        patterns = [
            LabelledGraph.cycle("abab"),
            LabelledGraph.path("abc"),
            LabelledGraph.path("abcd"),
        ]
        gc.collect()
        gc.disable()
        try:
            assert count_embeddings(patterns[0], patterns[0]) == 4
            for pattern in patterns:
                find_matches(pattern, target)
                find_matches(pattern, target, max_matches=1)
                has_embedding(pattern, target)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPaperFigure1:
    def test_q1_square_answer_is_1256(self):
        # q1: cycle a-b-a-b (square with alternating labels).
        q1 = LabelledGraph.cycle("abab")
        matches = find_matches(q1, figure1_graph())
        assert len(matches) == 1
        assert set(matches[0].vertices()) == {1, 2, 5, 6}

    def test_q2_path_abc(self):
        q2 = LabelledGraph.path("abc")
        matches = find_matches(q2, figure1_graph())
        matched_sets = {frozenset(m.vertices()) for m in matches}
        assert frozenset({1, 2, 3}) in matched_sets
        assert frozenset({6, 2, 3}) in matched_sets

    def test_q3_path_abcd(self):
        q3 = LabelledGraph.path("abcd")
        matches = find_matches(q3, figure1_graph())
        assert matches
        for match in matches:
            assert sorted(
                match.label(v) for v in match.vertices()
            ) == ["a", "b", "c", "d"]

    def test_automorphic_embeddings_deduplicated(self):
        q1 = LabelledGraph.cycle("abab")
        # The square has several automorphisms but only one matched sub-graph.
        assert count_embeddings(q1, figure1_graph()) > 1
        assert len(find_matches(q1, figure1_graph())) == 1


class TestIsomorphism:
    def test_paths_isomorphic_reversed(self):
        assert is_isomorphic(LabelledGraph.path("abc"), LabelledGraph.path("cba"))

    def test_different_labels_not_isomorphic(self):
        assert not is_isomorphic(LabelledGraph.path("abc"), LabelledGraph.path("abb"))

    def test_path_not_isomorphic_to_cycle(self):
        assert not is_isomorphic(
            LabelledGraph.path("abca"), LabelledGraph.cycle("abca")
        )

    def test_relabelled_vertex_ids_isomorphic(self):
        a = LabelledGraph.from_edges({1: "a", 2: "b", 3: "c"}, [(1, 2), (2, 3)])
        b = LabelledGraph.from_edges(
            {"x": "c", "y": "b", "z": "a"}, [("x", "y"), ("y", "z")]
        )
        assert is_isomorphic(a, b)

    def test_star_vs_path_same_histogram(self):
        star = LabelledGraph.star("b", "aba")
        path = LabelledGraph.path("abab")
        assert star.label_histogram() == path.label_histogram()
        assert not is_isomorphic(star, path)
