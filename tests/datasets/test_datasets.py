"""Tests for the domain dataset generators and their workloads."""

import random

import pytest

from repro.datasets import (
    citation_network,
    citation_workload,
    fraud_network,
    fraud_workload,
    social_network,
    social_workload,
)
from repro.graph.traversal import connected_components


class TestSocial:
    def test_labels_match_schema(self):
        g = social_network(50, rng=random.Random(1))
        assert g.labels() <= {"user", "post", "comment", "page"}

    def test_user_count_exact(self):
        g = social_network(50, rng=random.Random(2))
        assert len(g.vertices_with_label("user")) == 50

    def test_posts_belong_to_users(self):
        g = social_network(40, rng=random.Random(3))
        for post in g.vertices_with_label("post"):
            owner_labels = {g.label(n) for n in g.neighbours(post)}
            assert "user" in owner_labels

    def test_comments_link_post_and_user(self):
        g = social_network(40, rng=random.Random(4))
        for comment in g.vertices_with_label("comment"):
            labels = sorted(g.label(n) for n in g.neighbours(comment))
            assert labels == ["post", "user"]

    def test_workload_queries_have_matches(self):
        g = social_network(80, rng=random.Random(5))
        for query in social_workload():
            assert query.answer(g), f"{query.name} found no matches"

    def test_reproducible(self):
        a = social_network(30, rng=random.Random(6))
        b = social_network(30, rng=random.Random(6))
        assert a == b

    def test_too_few_users_rejected(self):
        with pytest.raises(ValueError):
            social_network(1, rng=random.Random(0))


class TestFraud:
    def test_ring_members_share_device(self):
        g = fraud_network(60, n_rings=5, ring_size=4, rng=random.Random(7))
        # Accounts a0..a3 form ring 0 and share device d0.
        shared = set(g.neighbours("a0")) & set(g.neighbours("a1"))
        assert any(g.label(v) == "dev" for v in shared)
        assert any(g.label(v) == "card" for v in shared)

    def test_legit_accounts_have_private_devices(self):
        g = fraud_network(60, n_rings=2, ring_size=3, rng=random.Random(8))
        legit = "a59"  # far beyond the ring blocks
        devices = [v for v in g.neighbours(legit) if g.label(v) == "dev"]
        assert devices
        for device in devices:
            assert g.degree(device) == 1

    def test_workload_queries_have_matches(self):
        g = fraud_network(80, n_rings=6, rng=random.Random(9))
        for query in fraud_workload():
            assert query.answer(g), f"{query.name} found no matches"

    def test_shared_device_only_matches_rings(self):
        g = fraud_network(80, n_rings=4, ring_size=4, rng=random.Random(10))
        wedge = fraud_workload().queries[0]
        ring_accounts = {f"a{i}" for i in range(16)}
        for match in wedge.answer(g):
            accounts = {v for v in match.vertices() if g.label(v) == "acct"}
            assert accounts <= ring_accounts

    def test_too_many_rings_rejected(self):
        with pytest.raises(ValueError):
            fraud_network(10, n_rings=5, ring_size=4, rng=random.Random(0))


class TestCitation:
    def test_labels_match_schema(self):
        g = citation_network(60, rng=random.Random(11))
        assert g.labels() == {"paper", "author", "venue"}

    def test_every_paper_has_venue_and_author(self):
        g = citation_network(50, rng=random.Random(12))
        for paper in g.vertices_with_label("paper"):
            labels = {g.label(n) for n in g.neighbours(paper)}
            assert "venue" in labels
            assert "author" in labels

    def test_citation_chains_exist(self):
        g = citation_network(80, rng=random.Random(13))
        for query in citation_workload():
            assert query.answer(g), f"{query.name} found no matches"

    def test_mostly_connected(self):
        g = citation_network(80, rng=random.Random(14))
        components = connected_components(g)
        assert len(components[0]) > 0.8 * g.num_vertices

    def test_too_few_papers_rejected(self):
        with pytest.raises(ValueError):
            citation_network(1, rng=random.Random(0))


@pytest.mark.parametrize("generator", ["social_network", "citation_network"])
def test_same_graph_under_any_hash_seed(generator, run_python):
    """String vertex ids make set iteration order process-dependent; the
    generators must not let it steer the RNG (experiment digests are
    pinned across processes in ``docs/experiments.md``)."""
    code = (
        "import random, repro.datasets as d\n"
        f"graph = d.{generator}(60, rng=random.Random(0))\n"
        "print(sorted(map(repr, graph.edges())))\n"
    )
    outputs = {run_python(code, PYTHONHASHSEED=h) for h in ("1", "2", "3")}
    assert len(outputs) == 1
