"""Property test: the distributed executor agrees with the reference matcher.

Whatever the partitioning, distribution must never change query *answers*
-- only their communication cost.  This is the correctness contract of
the whole cluster simulation, so it gets its own property test across
random graphs, workloads and partitionings.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from stream_driver import partition_graph

from repro.cluster import DistributedGraphStore, DistributedQueryExecutor
from repro.graph.generators import erdos_renyi
from repro.graph.isomorphism import find_matches
from repro.partitioning import HashPartitioner
from repro.workload.workloads import workload_from_graph


class TestExecutorEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1, 2, 4]),
    )
    def test_match_counts_equal_reference(self, seed, k):
        rng = random.Random(seed)
        graph = erdos_renyi(25, 0.15, rng=rng)
        if graph.num_edges == 0:
            return
        workload = workload_from_graph(
            graph, count=3, min_size=2, max_size=3, rng=random.Random(seed + 1)
        )
        assignment = partition_graph(
            HashPartitioner(), graph, k=k, rng=random.Random(seed + 2)
        )
        executor = DistributedQueryExecutor(
            DistributedGraphStore(graph, assignment)
        )
        for query in workload:
            distributed = executor.execute(query).matches
            reference = len(find_matches(query.graph, graph))
            assert distributed == reference

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_partitioning_never_changes_answers(self, seed):
        """Same graph, two different partitionings: identical answers."""
        rng = random.Random(seed)
        graph = erdos_renyi(20, 0.2, rng=rng)
        if graph.num_edges == 0:
            return
        workload = workload_from_graph(
            graph, count=2, min_size=2, max_size=3, rng=random.Random(seed + 1)
        )
        counts = []
        for k in (1, 3):
            assignment = partition_graph(
                HashPartitioner(), graph, k=k, rng=random.Random(seed + 2)
            )
            executor = DistributedQueryExecutor(
                DistributedGraphStore(graph, assignment)
            )
            counts.append(
                tuple(executor.execute(q).matches for q in workload)
            )
        assert counts[0] == counts[1]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_replicas_never_change_answers(self, seed):
        """Replication affects locality, never correctness."""
        rng = random.Random(seed)
        graph = erdos_renyi(20, 0.2, rng=rng)
        if graph.num_edges == 0:
            return
        workload = workload_from_graph(
            graph, count=2, min_size=2, max_size=3, rng=random.Random(seed + 1)
        )
        assignment = partition_graph(
            HashPartitioner(), graph, k=3, rng=random.Random(seed + 2)
        )
        store = DistributedGraphStore(graph, assignment)
        executor = DistributedQueryExecutor(store)
        before = [executor.execute(q).matches for q in workload]
        # Replicate a few arbitrary vertices everywhere.
        for vertex in list(graph.vertices())[:5]:
            for partition in range(3):
                store.add_replica(vertex, partition)
        after = [executor.execute(q).matches for q in workload]
        assert before == after
