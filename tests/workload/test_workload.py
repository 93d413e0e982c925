"""Tests for pattern queries, workloads and the paper's figure-1 example."""

import random

import pytest
from workload_shapes import cycle_workload, mixed_workload, tree_workload

from repro.exceptions import WorkloadError
from repro.graph import LabelledGraph, is_connected
from repro.workload import (
    PatternQuery,
    Workload,
    figure1_graph,
    figure1_workload,
    path_workload,
    workload_from_graph,
    zipf_frequencies,
)


class TestPatternQuery:
    def test_valid_query(self):
        q = PatternQuery("q", LabelledGraph.path("ab"), 2.0)
        assert q.size == 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(WorkloadError):
            PatternQuery("q", LabelledGraph())

    def test_disconnected_pattern_rejected(self):
        graph = LabelledGraph.from_edges({0: "a", 1: "b"})
        with pytest.raises(WorkloadError):
            PatternQuery("q", graph)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(WorkloadError):
            PatternQuery("q", LabelledGraph.path("ab"), 0.0)

    def test_answer_uses_exact_matching(self):
        q = PatternQuery("q2", LabelledGraph.path("abc"))
        answers = q.answer(figure1_graph())
        assert {frozenset(a.vertices()) for a in answers} == {
            frozenset({1, 2, 3}),
            frozenset({6, 2, 3}),
        }

    def test_str_mentions_size_and_frequency(self):
        q = PatternQuery("q", LabelledGraph.path("ab"), 0.5)
        assert "q(" in str(q) and "f=0.5" in str(q)


class TestWorkload:
    def make(self):
        return Workload(
            [
                PatternQuery("hot", LabelledGraph.path("ab"), 8.0),
                PatternQuery("cold", LabelledGraph.path("cd"), 2.0),
            ]
        )

    def test_probabilities_normalised(self):
        w = self.make()
        assert w.probabilities() == {"hot": 0.8, "cold": 0.2}
        assert sum(w.probabilities().values()) == pytest.approx(1.0)

    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError):
            Workload([])

    def test_duplicate_names_rejected(self):
        q = PatternQuery("dup", LabelledGraph.path("ab"))
        with pytest.raises(WorkloadError):
            Workload([q, PatternQuery("dup", LabelledGraph.path("cd"))])

    def test_sampling_respects_frequencies(self):
        w = self.make()
        rng = random.Random(9)
        draws = w.sample_many(4000, rng)
        hot_share = sum(1 for q in draws if q.name == "hot") / len(draws)
        assert 0.75 < hot_share < 0.85

    def test_alphabet_union(self):
        assert self.make().alphabet() == {"a", "b", "c", "d"}

    def test_max_query_size(self):
        assert self.make().max_query_size() == 2

    def test_len_and_iter(self):
        w = self.make()
        assert len(w) == 2
        assert [q.name for q in w] == ["hot", "cold"]


class TestZipf:
    def test_uniform_at_zero_skew(self):
        assert zipf_frequencies(4, 0.0) == [1.0, 1.0, 1.0, 1.0]

    def test_decreasing_with_skew(self):
        freqs = zipf_frequencies(5, 1.0)
        assert freqs == sorted(freqs, reverse=True)
        assert freqs[0] == 1.0

    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            zipf_frequencies(0)
        with pytest.raises(WorkloadError):
            zipf_frequencies(3, -1.0)


class TestGenerators:
    def test_path_workload_shapes(self):
        w = path_workload("abc", count=5, rng=random.Random(1))
        assert len(w) == 5
        for q in w:
            assert q.graph.num_edges == q.graph.num_vertices - 1
            assert max(q.graph.degree(v) for v in q.graph.vertices()) <= 2

    def test_tree_workload_connected(self):
        w = tree_workload("abc", count=4, rng=random.Random(2))
        for q in w:
            assert is_connected(q.graph)
            assert q.graph.num_edges == q.graph.num_vertices - 1

    def test_cycle_workload_degrees(self):
        w = cycle_workload("abc", count=3, rng=random.Random(3))
        for q in w:
            assert all(q.graph.degree(v) == 2 for v in q.graph.vertices())

    def test_mixed_workload_counts(self):
        w = mixed_workload("abc", paths=2, trees=2, cycles=1, rng=random.Random(4))
        assert len(w) == 5

    def test_generators_reproducible(self):
        a = path_workload("abcd", count=4, rng=random.Random(5))
        b = path_workload("abcd", count=4, rng=random.Random(5))
        assert [q.graph.vertex_labels() for q in a] == [
            q.graph.vertex_labels() for q in b
        ]

    def test_empty_alphabet_rejected(self):
        with pytest.raises(WorkloadError):
            path_workload("", count=2, rng=random.Random(0))


class TestWorkloadFromGraph:
    def test_sampled_queries_have_matches(self):
        g = figure1_graph()
        w = workload_from_graph(g, count=4, min_size=2, max_size=3, rng=random.Random(6))
        for q in w:
            assert q.answer(g), f"{q.name} should match its source graph"

    def test_sampled_queries_connected(self):
        g = figure1_graph()
        w = workload_from_graph(g, count=4, rng=random.Random(7))
        for q in w:
            assert is_connected(q.graph)

    def test_edgeless_graph_rejected(self):
        g = LabelledGraph.from_edges({0: "a", 1: "b"})
        with pytest.raises(WorkloadError):
            workload_from_graph(g, count=1, rng=random.Random(0))


class TestPaperExample:
    def test_graph_shape(self):
        g = figure1_graph()
        assert g.num_vertices == 8
        assert g.num_edges == 9
        assert g.label_histogram() == {"a": 2, "b": 2, "c": 2, "d": 2}

    def test_workload_queries(self):
        w = figure1_workload()
        names = [q.name for q in w]
        assert names == ["q1", "q2", "q3"]

    def test_q1_answer_matches_paper(self):
        w = figure1_workload()
        q1 = w.queries[0]
        answers = q1.answer(figure1_graph())
        assert len(answers) == 1
        assert set(answers[0].vertices()) == {1, 2, 5, 6}

    def test_frequency_overrides(self):
        w = figure1_workload(q1_frequency=8.0, q2_frequency=1.0, q3_frequency=1.0)
        assert w.probability(w.queries[0]) == pytest.approx(0.8)
