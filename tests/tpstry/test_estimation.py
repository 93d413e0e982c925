"""Tests for edge-motif probabilities read off the TPSTry++."""

import pytest

from repro.tpstry import TPSTryPP, edge_motif_probability
from repro.workload import figure1_workload


@pytest.fixture(scope="module")
def fig_trie():
    return TPSTryPP.from_workload(figure1_workload())


class TestEdgeMotifProbability:
    def test_hot_edge(self, fig_trie):
        assert edge_motif_probability(fig_trie, "a", "b") == pytest.approx(1.0)

    def test_symmetric(self, fig_trie):
        assert edge_motif_probability(fig_trie, "c", "b") == edge_motif_probability(
            fig_trie, "b", "c"
        )

    def test_cold_edge_zero(self, fig_trie):
        # No figure-1 query contains an a-d edge.
        assert edge_motif_probability(fig_trie, "a", "d") == 0.0
