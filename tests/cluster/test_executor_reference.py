"""Equivalence: the expansion kernel == the per-neighbour walk, exactly.

Charging an expansion from the store's cached per-anchor split, instead
of recording one traversal per neighbour, is a pure representation
change.  On every query the shipped executor must count the walk's
answers (each once per automorphism of the pattern), return the
identical local/remote ledger and the identical per-edge
counts *in the same insertion order* (the offline workload-aware
partitioner reads that order) as the walk preserved in
:mod:`reference_executor`.  Pinned on every shipped dataset's workload
under LOOM and hash placements, with replicas, across churn that
recycles vertex slots, and on generated graphs and patterns.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_executor import (
    reference_execute_partial,
    reference_seed_candidates,
)

from repro.api import Cluster, ClusterConfig
from repro.cluster import DistributedGraphStore, DistributedQueryExecutor
from repro.datasets import DATASETS
from repro.graph.labelled import LabelledGraph
from repro.partitioning import PartitionAssignment
from repro.stream.events import EdgeArrival, VertexArrival
from repro.workload import PatternQuery


def assert_same(store, query, seeds=None, *, track_edges=True):
    embeddings, ledger = DistributedQueryExecutor(
        store, track_edges=track_edges
    ).execute_partial(query, seeds)
    expected, reference = reference_execute_partial(
        store, query, seeds, track_edges=track_edges
    )
    # The walk collects answer keys, the kernel counts embeddings: every
    # answer is found once per automorphism of the pattern, so all seeds
    # give exactly |Aut| per answer and a subset between 1 and |Aut|.
    if seeds is None:
        assert embeddings == query.automorphisms * len(expected)
    else:
        assert len(expected) <= embeddings <= query.automorphisms * len(expected)
    assert (ledger.local, ledger.remote) == (reference.local, reference.remote)
    assert list(ledger.edge_counts.items()) == list(
        reference.edge_counts.items()
    )


def assert_same_everywhere(store, queries):
    """Serial executions, and the per-partition partial executions the
    sharded runtime fans out."""
    executor = DistributedQueryExecutor(store)
    for query in queries:
        seeds = executor.seed_candidates(query)
        assert list(seeds) == reference_seed_candidates(store, query.graph)
        assert_same(store, query)
        assert_same(store, query, track_edges=False)
        for partition in range(store.k):
            owned = [s for s in seeds if store.partition_of(s) == partition]
            assert_same(store, query, owned)


@pytest.mark.parametrize("method", ["loom", "hash"])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_every_dataset_workload(dataset, method):
    session = Cluster.open(ClusterConfig(partitions=3, method=method, seed=1))
    session.ingest(dataset)
    queries = list(session.workload)
    assert_same_everywhere(session.store, queries)
    # Replicas make some hops local: the warm caches must follow.
    store = session.store
    for vertex in sorted(store.graph.vertices(), key=repr)[::5]:
        assert store.add_replica(vertex, (store.partition_of(vertex) + 1) % 3)
    assert_same_everywhere(store, queries)
    session.close()


def test_churn_that_recycles_slots():
    session = Cluster.open(ClusterConfig(partitions=3, method="loom", seed=2))
    session.ingest("churn")
    queries = list(session.workload)
    assert_same_everywhere(session.store, queries)
    store = session.store
    doomed = sorted(store.graph.vertices(), key=repr)[:6]
    session.retract(vertices=doomed)
    assert_same_everywhere(store, queries)
    # Re-add the deleted ids under other labels: they take recycled slots.
    labels = sorted(store.graph.labels())
    survivors = sorted(store.graph.vertices(), key=repr)
    events = []
    for offset, vertex in enumerate(doomed):
        events.append(VertexArrival(vertex, labels[offset % len(labels)], 0))
        for other in survivors[offset::7][:3]:
            events.append(EdgeArrival(vertex, other, 0))
    session.ingest(events)
    assert session.store is store
    assert_same_everywhere(store, queries)
    session.close()


@st.composite
def cases(draw):
    """A small labelled graph on shuffled ids (so repr order is not
    numeric order), a placement with replicas, and a connected pattern
    grown as a random tree plus extra edges: one vertex, paths, stars,
    triangles and denser shapes with several anchors per depth.  Up to
    six vertices, so the search recurses above its three-level loop nest
    as well as entering the nest at depth 0 or 1."""
    n = draw(st.integers(1, 9))
    ids = draw(st.permutations(range(12)))[:n]
    labels = {v: draw(st.sampled_from("abc")) for v in ids}
    pairs = list(combinations(ids, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=18)) if pairs else []
    graph = LabelledGraph.from_edges(labels, edges)
    k = draw(st.integers(1, 3))
    assignment = PartitionAssignment(k, n)
    for v in ids:
        assignment.assign(v, draw(st.integers(0, k - 1)))
    store = DistributedGraphStore(graph, assignment)
    for v in draw(st.lists(st.sampled_from(ids), max_size=3)):
        store.add_replica(v, draw(st.integers(0, k - 1)))

    m = draw(st.integers(1, 6))
    pattern = LabelledGraph.from_edges(
        {p: draw(st.sampled_from("abc")) for p in range(m)},
        [(p, draw(st.integers(0, p - 1))) for p in range(1, m)],
    )
    extra = list(combinations(range(m), 2))
    for u, v in draw(st.lists(st.sampled_from(extra), max_size=3)) if extra else []:
        pattern.add_edge(u, v)
    return store, PatternQuery("q", pattern)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_generated_graphs_and_patterns(case):
    store, query = case
    assert_same_everywhere(store, [query])


#: Every mutator.  A vertex is placed as it arrives and re-placed as soon
#: as it is retracted, so the store is complete (queryable) after every
#: step; ``ghost`` is the churn mirror's order, in which the graph drops
#: a vertex before its placement is mirrored and retracted.
MUTATIONS = (
    "add_vertex", "add_edge", "retract_assignment", "remove_edge",
    "remove_vertex", "move_vertex", "add_replica", "clear_replicas", "ghost",
)

SHAPES = [
    PatternQuery(name, pattern)
    for name, pattern in (
        ("path", LabelledGraph.path("bac")),
        ("triangle", LabelledGraph.cycle("abc")),
        ("star", LabelledGraph.star("a", "bc")),
        ("one", LabelledGraph.from_edges({0: "c"})),
        ("edge", LabelledGraph.path("ab")),
    )
]


def mutate(store, kind, i, j, partition, label):
    """Apply one mutation.  ``i`` and ``j`` pick resident vertices or
    edges (modulo their count), so removals always hit something; a new
    id is ``i`` itself, skipped while it is resident."""
    graph = store.graph
    vertices = sorted(graph.vertices(), key=repr)
    edges = sorted(graph.edges(), key=repr)
    if kind in ("add_vertex", "ghost"):
        if i in graph:
            return
        store.add_vertex(i, label)
        if kind == "ghost":
            store.remove_vertex(i)
        store.assign_vertex(i, partition)
        if kind == "ghost":
            store.retract_assignment(i)
    elif kind == "remove_edge" and edges:
        store.remove_edge(*edges[i % len(edges)])
    elif kind == "clear_replicas":
        store.clear_replicas()
    elif vertices:
        u, v = vertices[i % len(vertices)], vertices[j % len(vertices)]
        if kind == "add_edge" and u != v:
            store.add_edge(u, v)
        elif kind == "retract_assignment":
            store.retract_assignment(u)
            store.assign_vertex(u, partition)
        elif kind == "remove_vertex":
            store.remove_vertex(u)
        elif kind == "move_vertex":
            store.move_vertex(u, partition)
        elif kind == "add_replica":
            store.add_replica(u, partition)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS), st.integers(0, 7),
            st.integers(0, 7), st.integers(0, 2), st.sampled_from("abc"),
        ),
        min_size=1, max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_warm_caches_follow_any_mutation_history(history, rng):
    """The caches outlive mutations, each mutator forgetting only what
    it changes: after every step of a random history over a random start
    -- slot-recycling re-adds under new labels included -- the warm
    kernel still equals the walk."""
    store = DistributedGraphStore.incremental(3, 64)
    for vertex in range(6):
        store.add_vertex(vertex, rng.choice("abc"))
        store.assign_vertex(vertex, rng.randrange(3))
    for u, v in combinations(range(6), 2):
        if rng.random() < 0.5:
            store.add_edge(u, v)
    assert_same_everywhere(store, SHAPES)
    for step in history:
        mutate(store, *step)
        assert_same_everywhere(store, SHAPES)


def test_fixed_shapes_on_a_dense_graph():
    """Triangles, stars, squares and a one-vertex pattern where every
    shape has many embeddings."""
    rng = random.Random(0)
    triangle = LabelledGraph.cycle("abc")
    graph = LabelledGraph.from_edges(
        {v: rng.choice("abc") for v in range(30)},
        [(u, v) for u, v in combinations(range(30), 2) if rng.random() < 0.3],
    )
    assignment = PartitionAssignment(2, 30)
    for v in range(30):
        assignment.assign(v, v % 2)
    store = DistributedGraphStore(graph, assignment)
    star = LabelledGraph.star("a", "bbc")
    one = LabelledGraph.from_edges({0: "b"})
    for pattern in (triangle, star, one, LabelledGraph.cycle("abab")):
        assert_same_everywhere(store, [PatternQuery("q", pattern)])
