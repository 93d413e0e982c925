"""Edge cases of TPSTry++ construction and the streaming query window."""


import pytest

from repro.graph import LabelledGraph
from repro.signatures import SignatureScheme
from repro.tpstry import StreamingTPSTry, TPSTryPP
from repro.workload import PatternQuery, Workload


class TestSingleVertexQueries:
    def test_single_vertex_query_contributes_root_only(self):
        trie = TPSTryPP.from_workload(
            Workload([PatternQuery("dot", LabelledGraph.from_edges({0: "a"}))])
        )
        assert len(trie) == 1
        (node,) = trie.nodes()
        assert node.is_root
        assert node.num_edges == 0

    def test_single_vertex_motifs_never_frequent_for_grouping(self):
        trie = TPSTryPP.from_workload(
            Workload([PatternQuery("dot", LabelledGraph.from_edges({0: "a"}))])
        )
        # min_edges=1 (the grouping default) excludes bare vertices.
        assert trie.frequent_motifs(0.5) == []
        assert trie.frequent_motifs(0.5, min_edges=0) != []


class TestSharedScheme:
    def test_external_scheme_reused(self):
        scheme = SignatureScheme()
        scheme.register_alphabet("ab")
        trie = TPSTryPP.from_workload(
            Workload([PatternQuery("ab", LabelledGraph.path("ab"))]),
            scheme=scheme,
        )
        # Signatures computed outside the trie resolve to its nodes.
        sig = scheme.signature_of(LabelledGraph.path("ab"))
        assert trie.node_by_signature(sig) is not None


class TestDagShape:
    def test_total_frequency_tracks_queries(self):
        trie = TPSTryPP()
        trie.add_query(PatternQuery("a", LabelledGraph.path("ab"), 2.0))
        assert trie.total_frequency == 2.0
        trie.add_query(PatternQuery("b", LabelledGraph.path("bc"), 3.0))
        assert trie.total_frequency == 5.0
        trie.remove_query("a")
        assert trie.total_frequency == 3.0

    def test_identical_shape_different_queries_share_node(self):
        trie = TPSTryPP.from_workload(
            Workload(
                [
                    PatternQuery("q1", LabelledGraph.path("ab"), 1.0),
                    PatternQuery("q2", LabelledGraph.path("ba", start_id=5), 1.0),
                ]
            )
        )
        sig = trie.scheme.signature_of(LabelledGraph.path("ab"))
        node = trie.node_by_signature(sig)
        assert node.queries == {"q1", "q2"}
        assert trie.p_value(node) == pytest.approx(1.0)


class TestStreamingWindowEdgeCases:
    def test_same_query_repeated_fills_window(self):
        stream = StreamingTPSTry(window=3)
        q = PatternQuery("q", LabelledGraph.path("ab"))
        for _ in range(5):
            stream.observe(q)
        assert len(stream) == 3
        sig = stream.trie.scheme.signature_of(LabelledGraph.path("ab"))
        node = stream.trie.node_by_signature(sig)
        assert stream.trie.p_value(node) == pytest.approx(1.0)

    def test_drift_changes_frequent_set(self):
        stream = StreamingTPSTry(window=4)
        hot = PatternQuery("hot", LabelledGraph.path("ab"))
        cold = PatternQuery("cold", LabelledGraph.path("cd"))
        for _ in range(4):
            stream.observe(hot)
        ab_sig = stream.trie.scheme.signature_of(LabelledGraph.path("ab"))
        cd_sig = stream.trie.scheme.signature_of(LabelledGraph.path("cd"))
        assert stream.trie.node_by_signature(cd_sig) is None
        for _ in range(4):
            stream.observe(cold)
        assert stream.trie.node_by_signature(ab_sig) is None
        assert stream.trie.node_by_signature(cd_sig) is not None

    def test_window_rebuild_equivalent_to_fresh_trie(self):
        # After expiry, the window trie must equal a trie built from just
        # the surviving observations (node multiset equality by signature).
        stream = StreamingTPSTry(window=2)
        q1 = PatternQuery("q1", LabelledGraph.path("ab"))
        q2 = PatternQuery("q2", LabelledGraph.path("bc"))
        q3 = PatternQuery("q3", LabelledGraph.path("cd"))
        for q in (q1, q2, q3):
            stream.observe(q)
        fresh = TPSTryPP.from_workload(Workload([q2, q3]))
        streamed_sigs = {node.signature for node in stream.trie.nodes()}
        fresh_sigs = {node.signature for node in fresh.nodes()}
        # Signatures come from different schemes; compare by motif shape.
        streamed_shapes = {
            (n.num_vertices, n.num_edges,
             tuple(sorted(n.graph.vertex_labels().values())))
            for n in stream.trie.nodes()
        }
        fresh_shapes = {
            (n.num_vertices, n.num_edges,
             tuple(sorted(n.graph.vertex_labels().values())))
            for n in fresh.nodes()
        }
        assert streamed_shapes == fresh_shapes
        assert len(streamed_sigs) == len(fresh_sigs)
