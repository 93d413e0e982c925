"""Tests for synthetic generators and serialisation round-trips."""

import random

import pytest

from repro.exceptions import GraphError
from repro.graph import LabelledGraph, is_connected
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    grid,
    plant_motifs,
    planted_partition,
    watts_strogatz,
)
from repro.graph.io import (
    from_edge_list,
    load_edge_list,
    save_edge_list,
    to_edge_list,
)
from repro.graph.isomorphism import count_embeddings


class TestErdosRenyi:
    def test_sizes(self):
        g = erdos_renyi(50, 0.1, rng=random.Random(1))
        assert g.num_vertices == 50

    def test_p_zero_no_edges(self):
        g = erdos_renyi(30, 0.0, rng=random.Random(1))
        assert g.num_edges == 0

    def test_p_one_complete(self):
        g = erdos_renyi(10, 1.0, rng=random.Random(1))
        assert g.num_edges == 45

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.05
        g = erdos_renyi(n, p, rng=random.Random(7))
        expected = p * n * (n - 1) / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_seed_reproducible(self):
        a = erdos_renyi(40, 0.1, rng=random.Random(5))
        b = erdos_renyi(40, 0.1, rng=random.Random(5))
        assert a == b

    def test_bad_p_raises(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, 1.5, rng=random.Random(0))


class TestBarabasiAlbert:
    def test_sizes(self):
        g = barabasi_albert(100, 2, rng=random.Random(2))
        assert g.num_vertices == 100
        # Seed clique C(3,2)=3 edges + 97 * 2.
        assert g.num_edges == 3 + 97 * 2

    def test_connected(self):
        assert is_connected(barabasi_albert(60, 1, rng=random.Random(3)))

    def test_hub_formation(self):
        g = barabasi_albert(300, 2, rng=random.Random(4))
        max_degree = max(g.degree(v) for v in g.vertices())
        assert max_degree > 10  # power-law tail produces hubs

    def test_too_few_vertices_raises(self):
        with pytest.raises(GraphError):
            barabasi_albert(2, 2, rng=random.Random(0))


class TestWattsStrogatz:
    def test_degree_sum_preserved(self):
        g = watts_strogatz(40, 4, 0.2, rng=random.Random(5))
        assert g.num_edges == 40 * 4 // 2

    def test_beta_zero_is_lattice(self):
        g = watts_strogatz(20, 4, 0.0, rng=random.Random(5))
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_odd_k_raises(self):
        with pytest.raises(GraphError):
            watts_strogatz(20, 3, 0.1, rng=random.Random(0))


class TestPlantedPartition:
    def test_community_labels_dominate(self):
        g = planted_partition(
            120, 4, 0.3, 0.01, rng=random.Random(6), label_scheme="community"
        )
        # Block i has home label alphabet[i % 4]; at 80% bias, home labels
        # should be clear majorities.
        from repro.graph.generators import DEFAULT_ALPHABET

        home_hits = sum(
            1
            for v in g.vertices()
            if g.label(v) == DEFAULT_ALPHABET[v % 4]
        )
        assert home_hits > 0.6 * g.num_vertices

    def test_intra_edges_dominate(self):
        g = planted_partition(100, 4, 0.4, 0.01, rng=random.Random(8))
        intra = sum(1 for u, v in g.edges() if u % 4 == v % 4)
        assert intra > g.num_edges / 2

    def test_invalid_probabilities_raise(self):
        with pytest.raises(GraphError):
            planted_partition(10, 2, 0.1, 0.5, rng=random.Random(0))


class TestGridTreeMotifs:
    def test_grid_shape(self):
        g = grid(4, 5)
        assert g.num_vertices == 20
        assert g.num_edges == 4 * 4 + 3 * 5  # horizontal + vertical

    def test_plant_motifs_instances_found(self):
        motif = LabelledGraph.path("abc")
        g = plant_motifs([(motif, 5)], rng=random.Random(10))
        # Each planted instance is an exact copy; bridges may add more
        # occurrences but never remove the planted ones.
        assert count_embeddings(motif, g) >= 5

    def test_plant_motifs_connected_via_bridges(self):
        motif = LabelledGraph.path("ab")
        g = plant_motifs([(motif, 4)], rng=random.Random(11))
        assert is_connected(g)

    def test_plant_motifs_with_noise(self):
        motif = LabelledGraph.path("ab")
        g = plant_motifs(
            [(motif, 3)],
            noise_vertices=10,
            noise_edge_probability=0.1,
            rng=random.Random(12),
        )
        assert g.num_vertices == 3 * 2 + 10

    def test_plant_motifs_empty_raises(self):
        with pytest.raises(GraphError):
            plant_motifs([], rng=random.Random(0))


class TestIO:
    def roundtrip_graph(self) -> LabelledGraph:
        return LabelledGraph.from_edges(
            {1: "a", 2: "b", "x": "c"}, [(1, 2), (2, "x")]
        )

    def test_edge_list_roundtrip(self):
        g = self.roundtrip_graph()
        assert from_edge_list(to_edge_list(g)) == g

    def test_edge_list_files(self, tmp_path):
        g = self.roundtrip_graph()
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_edge_list_bad_line_raises(self):
        with pytest.raises(GraphError):
            from_edge_list("v 1 a\nnot-a-line\n")

    def test_edge_list_skips_comments_and_blanks(self):
        g = from_edge_list("# header\n\nv 1 a\nv 2 b\ne 1 2\n")
        assert g.num_edges == 1

    def test_generated_graph_survives_roundtrip(self):
        g = erdos_renyi(25, 0.2, rng=random.Random(13))
        assert from_edge_list(to_edge_list(g)) == g
