"""Tests + property tests for the number-theoretic signature scheme.

The three load-bearing guarantees (see module docstring of
``repro.signatures.signature``):

1. isomorphism-invariance: isomorphic graphs get equal signatures,
2. sub-graph divisibility: ``S subgraph-of S'  =>  sig(S) | sig(S')``,
3. incremental == batch: extending a signature edge-by-edge reproduces the
   batch product.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SignatureError
from repro.graph import LabelledGraph, edge_subgraph, induced_subgraph
from repro.signatures import PrimeAssigner, SignatureScheme, primes
from repro.signatures.signature import EMPTY_SIGNATURE


class TestPrimes:
    def test_first_primes(self):
        gen = primes()
        assert [next(gen) for _ in range(8)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_assigner_is_stable(self):
        assigner = PrimeAssigner()
        first = assigner.factor("a")
        assert assigner.factor("a") == first

    def test_assigner_distinct_keys_distinct_primes(self):
        assigner = PrimeAssigner()
        values = {assigner.factor(k) for k in "abcdefgh"}
        assert len(values) == 8

    def test_stride_pools_disjoint(self):
        even = PrimeAssigner(stride=2, offset=0)
        odd = PrimeAssigner(stride=2, offset=1)
        even_primes = {even.factor(k) for k in range(20)}
        odd_primes = {odd.factor(k) for k in range(20)}
        assert not (even_primes & odd_primes)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            PrimeAssigner(stride=0)
        with pytest.raises(ValueError):
            PrimeAssigner(stride=2, offset=5)

    def test_mapping_snapshot(self):
        assigner = PrimeAssigner()
        assigner.factor("x")
        snapshot = assigner.mapping()
        assert snapshot == {"x": 2}
        assert len(assigner) == 1


class TestSchemeBasics:
    def test_empty_graph_signature_is_identity(self):
        scheme = SignatureScheme()
        assert scheme.signature_of(LabelledGraph()) == EMPTY_SIGNATURE

    def test_single_vertex(self):
        scheme = SignatureScheme()
        g = LabelledGraph.from_edges({0: "a"})
        assert scheme.signature_of(g) == scheme.vertex_factor("a")

    def test_vertex_and_edge_factors_disjoint(self):
        scheme = SignatureScheme()
        va = scheme.vertex_factor("a")
        vb = scheme.vertex_factor("b")
        edge = scheme.edge_factor("a", "b")
        pair_prime = edge // (va * vb)
        assert pair_prime not in (va, vb)
        assert pair_prime > 1

    def test_edge_factor_symmetric(self):
        scheme = SignatureScheme()
        assert scheme.edge_factor("a", "b") == scheme.edge_factor("b", "a")

    def test_register_alphabet_order_independent(self):
        s1 = SignatureScheme()
        s1.register_alphabet(["b", "a", "c"])
        s2 = SignatureScheme()
        s2.register_alphabet(["c", "b", "a"])
        g = LabelledGraph.path("abc")
        assert s1.signature_of(g) == s2.signature_of(g)

    def test_without_edge_factors_smaller(self):
        lean = SignatureScheme(include_edge_factors=False)
        rich = SignatureScheme(include_edge_factors=True)
        g = LabelledGraph.path("ab")
        assert lean.signature_of(g) < rich.signature_of(g)


class TestDivisibility:
    """Song et al's pruning test: ``sig(Gq)`` divides ``sig(S)`` whenever
    ``S`` contains a match for ``Gq``."""

    def test_path_divides_longer_path(self):
        scheme = SignatureScheme()
        short = scheme.signature_of(LabelledGraph.path("ab"))
        long = scheme.signature_of(LabelledGraph.path("abc"))
        assert long % short == 0

    def test_non_subgraph_does_not_divide(self):
        scheme = SignatureScheme()
        square = scheme.signature_of(LabelledGraph.cycle("abab"))
        path = scheme.signature_of(LabelledGraph.path("abc"))
        assert path % square != 0

    def test_quotient(self):
        scheme = SignatureScheme()
        g = LabelledGraph.path("abc")
        container = scheme.signature_of(g)
        candidate = scheme.signature_of(edge_subgraph(g, [(0, 1)]))
        assert container % candidate == 0
        assert container // candidate > 1

    def test_quotient_none_when_not_divisible(self):
        scheme = SignatureScheme()
        a = scheme.signature_of(LabelledGraph.from_edges({0: "a"}))
        b = scheme.signature_of(LabelledGraph.from_edges({0: "b"}))
        assert a % b != 0


class TestIncremental:
    def test_extend_with_vertex(self):
        scheme = SignatureScheme()
        sig = scheme.extend_with_vertex(EMPTY_SIGNATURE, "a")
        assert sig == scheme.vertex_factor("a")

    def test_extend_with_edge_existing_endpoints(self):
        scheme = SignatureScheme()
        g = LabelledGraph.from_edges({0: "a", 1: "b"}, [(0, 1)])
        incremental = scheme.extend_with_vertex(EMPTY_SIGNATURE, "a")
        incremental = scheme.extend_with_vertex(incremental, "b")
        incremental = scheme.extend_with_edge(incremental, "a", "b")
        assert incremental == scheme.signature_of(g)

    def test_extend_with_edge_new_endpoint(self):
        scheme = SignatureScheme()
        g = LabelledGraph.path("ab")
        incremental = scheme.extend_with_vertex(EMPTY_SIGNATURE, "a")
        incremental = scheme.extend_with_edge(
            incremental, "a", "b", new_endpoint="b"
        )
        assert incremental == scheme.signature_of(g)

    def test_bad_new_endpoint_raises(self):
        scheme = SignatureScheme()
        with pytest.raises(SignatureError):
            scheme.extend_with_edge(1, "a", "b", new_endpoint="z")

    def test_one_multiply_per_arriving_element_equals_batch(self):
        """The stream matcher's arithmetic on random trees: an edge
        multiplies in ``edge_factor``, times ``vertex_factor`` of the
        vertex it brings."""
        rng = random.Random(7)
        for scheme in (
            SignatureScheme(), SignatureScheme(include_edge_factors=False)
        ):
            scheme.register_alphabet("abcd")
            for _ in range(30):
                graph = LabelledGraph()
                graph.add_vertex(0, rng.choice("abcd"))
                signature = scheme.vertex_factor(graph.label(0))
                for v in range(1, rng.randint(2, 7)):
                    u = rng.randrange(v)
                    graph.add_vertex(v, rng.choice("abcd"))
                    graph.add_edge(u, v)
                    signature *= scheme.edge_factor(
                        graph.label(u), graph.label(v)
                    ) * scheme.vertex_factor(graph.label(v))
                assert signature == scheme.signature_of(graph)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
@st.composite
def labelled_graphs(draw, max_vertices: int = 7):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
    graph = LabelledGraph()
    for v, label in enumerate(labels):
        graph.add_vertex(v, label)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), max_size=10))
        for u, v in edges:
            graph.add_edge(u, v)
    return graph


class TestSignatureProperties:
    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs(), st.integers(min_value=0, max_value=2**16))
    def test_isomorphic_copies_equal_signature(self, graph, seed):
        rng = random.Random(seed)
        vertices = list(graph.vertices())
        shuffled = vertices[:]
        rng.shuffle(shuffled)
        mapping = {old: shuffled.index(old) + 500 for old in vertices}
        clone = LabelledGraph()
        for v in vertices:
            clone.add_vertex(mapping[v], graph.label(v))
        for u, v in graph.edges():
            clone.add_edge(mapping[u], mapping[v])
        scheme = SignatureScheme()
        scheme.register_alphabet("abcd")
        assert scheme.signature_of(graph) == scheme.signature_of(clone)

    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs(), st.integers(min_value=0, max_value=2**16))
    def test_induced_subgraph_divides(self, graph, seed):
        rng = random.Random(seed)
        vertices = list(graph.vertices())
        keep = [v for v in vertices if rng.random() < 0.6]
        sub = induced_subgraph(graph, keep)
        scheme = SignatureScheme()
        scheme.register_alphabet("abcd")
        assert scheme.signature_of(graph) % scheme.signature_of(sub) == 0

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs())
    def test_incremental_rebuild_matches_batch(self, graph):
        scheme = SignatureScheme()
        scheme.register_alphabet("abcd")
        sig = EMPTY_SIGNATURE
        for vertex in graph.vertices():
            sig = scheme.extend_with_vertex(sig, graph.label(vertex))
        for u, v in graph.edges():
            sig = scheme.extend_with_edge(sig, graph.label(u), graph.label(v))
        assert sig == scheme.signature_of(graph)
