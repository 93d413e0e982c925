"""Cross-module integration and property tests.

These exercise the full pipeline -- generator -> stream -> partitioner ->
store -> executor -- under randomised inputs, asserting the invariants
that must hold whatever the configuration:

* every streamed vertex ends up assigned exactly once;
* no partition ever exceeds its capacity;
* motif matches tracked by LOOM's matcher are genuine sub-graphs of the
  buffered window;
* the traversal ledger's totals are consistent;
* identical seeds give identical outputs end to end.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DistributedGraphStore,
    LoomConfig,
    LoomPartitioner,
    PatternQuery,
    Workload,
    run_workload,
)
from repro.graph import LabelledGraph
from repro.graph.generators import erdos_renyi, plant_motifs
from repro.graph.isomorphism import is_isomorphic
from repro.graph.views import edge_subgraph
from repro.partitioning.base import default_capacity
from repro.stream.sources import replay, stream_from_graph


def small_workload():
    return Workload(
        [
            PatternQuery("abc", LabelledGraph.path("abc"), 2.0),
            PatternQuery("ab", LabelledGraph.path("ab"), 1.0),
        ]
    )


@st.composite
def loom_scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=10, max_value=60))
    k = draw(st.sampled_from([2, 3, 4]))
    window = draw(st.sampled_from([1, 4, 16, 64]))
    ordering = draw(st.sampled_from(["natural", "random", "bfs", "adversarial"]))
    return seed, n, k, window, ordering


class TestLoomPipelineProperties:
    @settings(max_examples=30, deadline=None)
    @given(loom_scenarios())
    def test_every_vertex_assigned_within_capacity(self, scenario):
        seed, n, k, window, ordering = scenario
        graph = erdos_renyi(n, 0.1, rng=random.Random(seed))
        events = stream_from_graph(
            graph, ordering=ordering, rng=random.Random(seed + 1)
        )
        capacity = default_capacity(n, k, 1.2)
        loom = LoomPartitioner(
            small_workload(),
            LoomConfig(k=k, capacity=capacity, window_size=window,
                       motif_threshold=0.3),
        )
        assignment = loom.partition_stream(events)
        assert assignment.num_assigned == graph.num_vertices
        assert max(assignment.sizes()) <= capacity
        # The stream replays to the same graph we partitioned.
        assert replay(events) == graph

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matcher_matches_are_genuine_window_subgraphs(self, seed):
        motif = LabelledGraph.path("abc")
        graph = plant_motifs([(motif, 6)], noise_vertices=8,
                             noise_edge_probability=0.05,
                             rng=random.Random(seed))
        workload = Workload([PatternQuery("abc", motif)])
        capacity = default_capacity(graph.num_vertices, 2, 1.5)
        loom = LoomPartitioner(
            workload,
            LoomConfig(k=2, capacity=capacity,
                       window_size=graph.num_vertices, motif_threshold=0.5),
        )
        for event in stream_from_graph(
            graph, ordering="random", rng=random.Random(seed + 1)
        ):
            loom.process_batch((event,))
            for match in loom.matcher.matches():
                candidate = edge_subgraph(loom.window.graph, match.edges)
                node = loom.trie.node_by_signature(match.node_signature)
                assert node is not None
                assert is_isomorphic(candidate, node.graph)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_end_to_end_determinism(self, seed):
        graph = erdos_renyi(30, 0.12, rng=random.Random(seed))

        def pipeline():
            events = stream_from_graph(
                graph, ordering="random", rng=random.Random(seed + 1)
            )
            loom = LoomPartitioner(
                small_workload(),
                LoomConfig(k=3, capacity=default_capacity(30, 3, 1.3),
                           window_size=8, motif_threshold=0.3),
            )
            assignment = loom.partition_stream(events)
            stats = run_workload(
                DistributedGraphStore(graph, assignment),
                small_workload(),
                executions=20,
                rng=random.Random(seed + 2),
            )
            return assignment.assigned(), stats.ledger.local, stats.ledger.remote

        assert pipeline() == pipeline()


class TestLedgerConsistency:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([1, 2, 4]))
    def test_remote_zero_iff_k1(self, seed, k):
        graph = erdos_renyi(25, 0.15, rng=random.Random(seed))
        events = stream_from_graph(
            graph, ordering="random", rng=random.Random(seed + 1)
        )
        loom = LoomPartitioner(
            small_workload(),
            LoomConfig(k=k, capacity=default_capacity(25, k, 1.3),
                       window_size=8, motif_threshold=0.3),
        )
        assignment = loom.partition_stream(events)
        stats = run_workload(
            DistributedGraphStore(graph, assignment),
            small_workload(),
            executions=15,
            rng=random.Random(seed + 2),
        )
        assert stats.ledger.total == stats.ledger.local + stats.ledger.remote
        if k == 1:
            assert stats.ledger.remote == 0
            assert stats.fully_local_rate == 1.0


class TestFailureInjection:
    def test_window_capacity_one_with_dense_graph(self):
        # Degenerate window + dense graph: everything must still assign.
        graph = erdos_renyi(20, 0.5, rng=random.Random(9))
        events = stream_from_graph(graph, ordering="random", rng=random.Random(10))
        loom = LoomPartitioner(
            small_workload(),
            LoomConfig(k=2, capacity=default_capacity(20, 2, 1.1),
                       window_size=1, motif_threshold=0.3),
        )
        assignment = loom.partition_stream(events)
        assert assignment.num_assigned == 20

    def test_tight_capacity_exact_fit(self):
        # slack 1.0: capacity exactly n/k; grouping must never overflow.
        graph = plant_motifs(
            [(LabelledGraph.path("abc"), 8)], rng=random.Random(11)
        )
        n = graph.num_vertices
        events = stream_from_graph(graph, ordering="random", rng=random.Random(12))
        loom = LoomPartitioner(
            Workload([PatternQuery("abc", LabelledGraph.path("abc"))]),
            LoomConfig(k=4, capacity=n // 4, window_size=16,
                       motif_threshold=0.5),
        )
        assignment = loom.partition_stream(events)
        assert assignment.num_assigned == n
        assert max(assignment.sizes()) <= n // 4

    def test_workload_disjoint_from_graph_labels(self):
        # Workload speaks labels the graph never uses: LOOM must behave
        # exactly like windowed LDG (no matches, no groups) and still work.
        graph = erdos_renyi(30, 0.1, alphabet="xyz", rng=random.Random(13))
        events = stream_from_graph(graph, ordering="random", rng=random.Random(14))
        loom = LoomPartitioner(
            small_workload(),  # labels a, b, c
            LoomConfig(k=2, capacity=default_capacity(30, 2, 1.2),
                       window_size=16, motif_threshold=0.1),
        )
        assignment = loom.partition_stream(events)
        assert assignment.num_assigned == 30
        assert loom.stats["groups"] == 0

    def test_empty_stream(self):
        loom = LoomPartitioner(
            small_workload(),
            LoomConfig(k=2, capacity=4, window_size=4),
        )
        assignment = loom.partition_stream([])
        assert assignment.num_assigned == 0
