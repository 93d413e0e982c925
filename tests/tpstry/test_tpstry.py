"""Tests for the TPSTry++ DAG (Algorithm 1, p-values, frequent motifs).

The reference point is the paper's figure 2: the TPSTry++ for the figure-1
workload Q = {q1: cycle abab, q2: path abc, q3: path abcd}.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.graph import LabelledGraph
from repro.signatures import SignatureScheme
from repro.tpstry import StreamingTPSTry, TPSTryPP
from repro.workload import PatternQuery, Workload, figure1_workload, path_workload


@pytest.fixture()
def fig_trie() -> TPSTryPP:
    return TPSTryPP.from_workload(figure1_workload())


def node_for(trie: TPSTryPP, graph: LabelledGraph):
    return trie.node_by_signature(trie.scheme.signature_of(graph))


class TestConstruction:
    def test_roots_are_single_labels(self, fig_trie):
        root_labels = {
            n.graph.label(next(iter(n.graph.vertices()))) for n in fig_trie.roots()
        }
        assert root_labels == {"a", "b", "c", "d"}

    def test_contains_ab_edge_motif(self, fig_trie):
        assert node_for(fig_trie, LabelledGraph.path("ab")) is not None

    def test_contains_abc_path_motif(self, fig_trie):
        assert node_for(fig_trie, LabelledGraph.path("abc")) is not None

    def test_contains_q1_square_motif(self, fig_trie):
        assert node_for(fig_trie, LabelledGraph.cycle("abab")) is not None

    def test_square_only_from_q1(self, fig_trie):
        node = node_for(fig_trie, LabelledGraph.cycle("abab"))
        assert node.queries == {"q1"}

    def test_ab_shared_by_all_queries(self, fig_trie):
        node = node_for(fig_trie, LabelledGraph.path("ab"))
        assert node.queries == {"q1", "q2", "q3"}

    def test_abcd_only_from_q3(self, fig_trie):
        node = node_for(fig_trie, LabelledGraph.path("abcd"))
        assert node.queries == {"q3"}

    def test_duplicate_query_rejected(self, fig_trie):
        with pytest.raises(WorkloadError):
            fig_trie.add_query(PatternQuery("q1", LabelledGraph.path("ab")))

    def test_node_count_matches_distinct_subgraph_shapes(self):
        # For the single query ab there are exactly: {a}, {b}, {a-b}.
        trie = TPSTryPP.from_workload(
            Workload([PatternQuery("q", LabelledGraph.path("ab"))])
        )
        assert len(trie) == 3

    def test_abab_path_and_square_distinct_nodes(self, fig_trie):
        path = node_for(fig_trie, LabelledGraph.path("abab"))
        square = node_for(fig_trie, LabelledGraph.cycle("abab"))
        assert path is not None and square is not None
        assert path is not square

    def test_tries_sharing_a_scheme_resolve_the_same_signature(self):
        scheme = SignatureScheme()
        first = TPSTryPP.from_workload(
            Workload([PatternQuery("abc", LabelledGraph.path("abc"))]),
            scheme=scheme,
        )
        second = TPSTryPP.from_workload(
            Workload([PatternQuery("cba", LabelledGraph.path("cba"))]),
            scheme=scheme,
        )
        sig = scheme.signature_of(LabelledGraph.path("ab"))
        assert first.node_by_signature(sig) is not None
        assert second.node_by_signature(sig) is not None

    def test_oversized_query_rejected(self):
        big = LabelledGraph.cycle("ab" * 9)  # 18 edges
        trie = TPSTryPP()
        with pytest.raises(WorkloadError):
            trie.add_query(PatternQuery("big", big))


class TestDagEdges:
    def test_children_are_one_edge_extensions(self, fig_trie):
        ab = node_for(fig_trie, LabelledGraph.path("ab"))
        abc = node_for(fig_trie, LabelledGraph.path("abc"))
        assert abc.signature in ab.children
        assert ab.signature in abc.parents

    def test_roots_parent_single_edges(self, fig_trie):
        a_root = node_for(fig_trie, LabelledGraph.from_edges({0: "a"}))
        ab = node_for(fig_trie, LabelledGraph.path("ab"))
        assert ab.signature in a_root.children

    def test_square_reachable_from_abab_path(self, fig_trie):
        # Closing the 4-path a-b-a-b into the square adds one edge.
        path = node_for(fig_trie, LabelledGraph.path("abab"))
        square = node_for(fig_trie, LabelledGraph.cycle("abab"))
        assert square.signature in path.children

    def test_dag_is_acyclic_by_edge_count(self, fig_trie):
        for node in fig_trie.nodes():
            for child_sig in node.children:
                child = fig_trie.node_by_signature(child_sig)
                if child is not None:
                    assert child.num_edges == node.num_edges + 1 or (
                        node.is_root and child.num_edges == 1
                    )


class TestPValues:
    def test_p_value_of_shared_motif_is_one(self, fig_trie):
        ab = node_for(fig_trie, LabelledGraph.path("ab"))
        assert fig_trie.p_value(ab) == pytest.approx(1.0)

    def test_p_value_of_exclusive_motif(self, fig_trie):
        square = node_for(fig_trie, LabelledGraph.cycle("abab"))
        assert fig_trie.p_value(square) == pytest.approx(1 / 3)

    def test_frequencies_weight_p_values(self):
        trie = TPSTryPP.from_workload(
            figure1_workload(q1_frequency=8.0, q2_frequency=1.0, q3_frequency=1.0)
        )
        square = node_for(trie, LabelledGraph.cycle("abab"))
        assert trie.p_value(square) == pytest.approx(0.8)

    def test_frequent_motifs_threshold(self, fig_trie):
        frequent = fig_trie.frequent_motifs(0.99)
        shapes = {tuple(sorted(n.graph.vertex_labels().values())) for n in frequent}
        # Only motifs common to all three queries: a-b (and nothing larger,
        # since q1 has no c vertex).
        assert ("a", "b") in shapes
        for node in frequent:
            assert fig_trie.p_value(node) >= 0.99

    def test_frequent_motifs_require_edges(self, fig_trie):
        for node in fig_trie.frequent_motifs(0.1):
            assert node.num_edges >= 1

    def test_threshold_above_one_yields_nothing(self, fig_trie):
        assert fig_trie.frequent_motifs(1.01) == []

    def test_bad_threshold_rejected(self, fig_trie):
        with pytest.raises(WorkloadError):
            fig_trie.frequent_motifs(0.0)


class TestRemoval:
    def test_remove_query_prunes_exclusive_motifs(self):
        trie = TPSTryPP.from_workload(figure1_workload())
        square_sig = trie.scheme.signature_of(LabelledGraph.cycle("abab"))
        assert trie.node_by_signature(square_sig) is not None
        trie.remove_query("q1")
        assert trie.node_by_signature(square_sig) is None
        assert all(square_sig not in node.children for node in trie.nodes())

    def test_remove_query_keeps_shared_motifs(self):
        trie = TPSTryPP.from_workload(figure1_workload())
        trie.remove_query("q1")
        ab = trie.node_by_signature(trie.scheme.signature_of(LabelledGraph.path("ab")))
        assert ab is not None
        assert ab.queries == {"q2", "q3"}

    def test_remove_unknown_query_raises(self):
        trie = TPSTryPP.from_workload(figure1_workload())
        with pytest.raises(WorkloadError):
            trie.remove_query("nope")

    def test_remove_then_readd_roundtrip(self):
        trie = TPSTryPP.from_workload(figure1_workload())
        before = len(trie)
        trie.remove_query("q3")
        trie.add_query(PatternQuery("q3", LabelledGraph.path("abcd")))
        assert len(trie) == before


class TestStreamingWindow:
    def test_window_expires_old_queries(self):
        stream = StreamingTPSTry(window=2)
        q_square = PatternQuery("square", LabelledGraph.cycle("abab"))
        q_path = PatternQuery("path", LabelledGraph.path("cd"))
        stream.observe(q_square)
        stream.observe(q_path)
        stream.observe(q_path)  # square's observation expires
        square_sig = stream.trie.scheme.signature_of(LabelledGraph.cycle("abab"))
        assert stream.trie.node_by_signature(square_sig) is None

    def test_window_support_tracks_recent_frequency(self):
        stream = StreamingTPSTry(window=4)
        hot = PatternQuery("hot", LabelledGraph.path("ab"))
        cold = PatternQuery("cold", LabelledGraph.path("cd"))
        for _ in range(3):
            stream.observe(hot)
        stream.observe(cold)
        ab_sig = stream.trie.scheme.signature_of(LabelledGraph.path("ab"))
        node = stream.trie.node_by_signature(ab_sig)
        assert stream.trie.p_value(node) == pytest.approx(0.75)

    def test_bad_window_rejected(self):
        with pytest.raises(WorkloadError):
            StreamingTPSTry(window=0)

    def test_len_tracks_buffer(self):
        stream = StreamingTPSTry(window=3)
        q = PatternQuery("q", LabelledGraph.path("ab"))
        stream.observe(q)
        stream.observe(q)
        assert len(stream) == 2


class TestAntiMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_p_values_anti_monotone_along_dag(self, seed):
        workload = path_workload(
            "abc", count=4, min_length=2, max_length=4, rng=random.Random(seed)
        )
        trie = TPSTryPP.from_workload(workload)
        for node in trie.nodes():
            for child_sig in node.children:
                child = trie.node_by_signature(child_sig)
                if child is not None:
                    assert trie.p_value(child) <= trie.p_value(node) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_node_supported_by_some_query(self, seed):
        workload = path_workload(
            "ab", count=3, min_length=2, max_length=3, rng=random.Random(seed)
        )
        trie = TPSTryPP.from_workload(workload)
        for node in trie.nodes():
            assert node.queries
            assert node.support > 0
