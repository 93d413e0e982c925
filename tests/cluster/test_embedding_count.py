"""The executor counts embeddings and divides once by |Aut(P)|.

Two injective embeddings onto the same matched sub-graph (vertex set and
edge set) differ by a label-preserving automorphism of the pattern, so
every answer is found exactly |Aut(P)| times; and every embedding lies
under exactly one seed, its depth-0 image, so per-partition counts add
up to the serial count.  Pinned here against the reference matcher's
deduplicated answers, on patterns picked for their symmetry -- stars,
cycles, cliques and one label repeated -- over small random graphs and
placements.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DistributedGraphStore, DistributedQueryExecutor
from repro.cluster.executor import matches_from
from repro.graph.isomorphism import find_matches
from repro.graph.labelled import LabelledGraph
from repro.partitioning import PartitionAssignment
from repro.workload import PatternQuery


def clique(labels):
    return LabelledGraph.from_edges(
        dict(enumerate(labels)), list(combinations(range(len(labels)), 2))
    )


#: (pattern, |Aut|): the automorphism counts are the textbook ones.
SYMMETRIC = [
    ("vertex", LabelledGraph.from_edges({0: "a"}), 1),
    ("edge-aa", LabelledGraph.path("aa"), 2),
    ("path-aba", LabelledGraph.path("aba"), 2),
    ("path-aaa", LabelledGraph.path("aaa"), 2),
    ("star-a-bbb", LabelledGraph.star("a", "bbb"), 6),
    ("star-a-aab", LabelledGraph.star("a", "aab"), 2),
    ("triangle-aaa", LabelledGraph.cycle("aaa"), 6),
    ("triangle-aab", LabelledGraph.cycle("aab"), 2),
    ("square-aaaa", LabelledGraph.cycle("aaaa"), 8),
    ("square-abab", LabelledGraph.cycle("abab"), 4),
    ("k4-aaaa", clique("aaaa"), 24),
    ("k4-aabb", clique("aabb"), 4),
]

QUERIES = [PatternQuery(name, pattern) for name, pattern, _ in SYMMETRIC]


@pytest.mark.parametrize(
    "query, automorphisms",
    [(query, aut) for query, (_, _, aut) in zip(QUERIES, SYMMETRIC)],
    ids=[name for name, _, _ in SYMMETRIC],
)
def test_automorphism_counts(query, automorphisms):
    assert query.automorphisms == automorphisms


@st.composite
def stores(draw):
    """A small two-label graph (so symmetric patterns match often) under
    a random placement with a few replicas."""
    n = draw(st.integers(1, 9))
    labels = {v: draw(st.sampled_from("ab")) for v in range(n)}
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    k = draw(st.integers(1, 3))
    assignment = PartitionAssignment(k, n)
    for v in range(n):
        assignment.assign(v, draw(st.integers(0, k - 1)))
    store = DistributedGraphStore(
        LabelledGraph.from_edges(labels, edges), assignment
    )
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        store.add_replica(v, draw(st.integers(0, k - 1)))
    return store


@settings(max_examples=200, deadline=None)
@given(stores(), st.sampled_from(QUERIES))
def test_embeddings_are_aut_times_answers(store, query):
    executor = DistributedQueryExecutor(store)
    execution = executor.execute(query)
    assert execution.matches == len(find_matches(query.graph, store.graph))

    serial, ledger = executor.execute_partial(query, None)
    assert serial == query.automorphisms * execution.matches
    seeds = executor.seed_candidates(query)
    partials = [
        executor.execute_partial(
            query, [s for s in seeds if store.partition_of(s) == partition]
        )
        for partition in range(store.k)
    ]
    assert sum(count for count, _ in partials) == serial
    assert sum(partial.local for _, partial in partials) == ledger.local
    assert sum(partial.remote for _, partial in partials) == ledger.remote


def test_a_count_short_of_the_seeds_raises():
    """Half of an a-a edge's two embeddings is not a whole answer."""
    assignment = PartitionAssignment(2, 2)
    assignment.assign(0, 0)
    assignment.assign(1, 1)
    store = DistributedGraphStore(LabelledGraph.path("aa"), assignment)
    query = PatternQuery("edge", LabelledGraph.path("aa"))
    executor = DistributedQueryExecutor(store)
    assert matches_from(query, executor.execute_partial(query, None)[0]) == 1
    embeddings, _ = executor.execute_partial(query, [0])
    assert embeddings == 1
    with pytest.raises(ValueError, match="did not cover every seed"):
        matches_from(query, embeddings)
