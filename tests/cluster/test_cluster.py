"""Tests for the distributed store, instrumented executor and latency model."""

import gc
import random
import sys

import pytest

from repro.cluster import (
    DistributedGraphStore,
    DistributedQueryExecutor,
    LatencyModel,
    TraversalLedger,
    run_workload,
)
from repro.exceptions import ConfigurationError, PartitioningError
from repro.graph import LabelledGraph
from repro.partitioning import PartitionAssignment
from repro.workload import PatternQuery, figure1_graph, figure1_workload


def store_with(assignments: dict, k=2, capacity=8) -> DistributedGraphStore:
    g = figure1_graph()
    a = PartitionAssignment(k, capacity)
    for vertex, partition in assignments.items():
        a.assign(vertex, partition)
    return DistributedGraphStore(g, a)


def all_local_store() -> DistributedGraphStore:
    return store_with({v: 0 for v in range(1, 9)})


def split_store() -> DistributedGraphStore:
    # The q1 square {1,2,5,6} is split down the middle.
    return store_with({1: 0, 5: 0, 3: 0, 4: 0, 2: 1, 6: 1, 7: 1, 8: 1})


class TestStore:
    def test_requires_complete_assignment(self):
        g = figure1_graph()
        a = PartitionAssignment(2, 8)
        a.assign(1, 0)
        with pytest.raises(PartitioningError):
            DistributedGraphStore(g, a)

    def test_label_index(self):
        store = all_local_store()
        assert sorted(store.graph.vertices_with_label("a")) == [1, 6]

    def test_is_remote(self):
        store = split_store()
        assert store.is_remote(1, 2)
        assert not store.is_remote(1, 5)

    def test_shard_sizes(self):
        assert split_store().assignment.sizes() == [4, 4]


class TestLedger:
    def test_counts_and_probability(self):
        ledger = TraversalLedger(local=1, remote=2)
        assert ledger.total == 3
        assert ledger.remote_probability == pytest.approx(2 / 3)

    def test_empty_probability_zero(self):
        assert TraversalLedger().remote_probability == 0.0

    def test_merge(self):
        a = TraversalLedger(local=1, remote=2)
        b = TraversalLedger(local=3, remote=4)
        a.merge(b)
        assert (a.local, a.remote) == (4, 6)

    def test_cost(self):
        ledger = TraversalLedger(local=10, remote=2)
        assert ledger.cost(LatencyModel(1.0, 100.0)) == 210.0


class TestLatencyModel:
    def test_defaults_valid(self):
        model = LatencyModel()
        assert model.cost(1, 1) == 101.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(local_cost=-1.0)

    def test_inverted_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(local_cost=10.0, remote_cost=1.0)


class TestExecutor:
    def test_finds_paper_q1_answer(self):
        executor = DistributedQueryExecutor(all_local_store())
        q1 = figure1_workload().queries[0]
        result = executor.execute(q1)
        assert result.matches == 1

    def test_single_partition_fully_local(self):
        executor = DistributedQueryExecutor(all_local_store())
        for query in figure1_workload():
            result = executor.execute(query)
            assert result.fully_local
            assert result.ledger.remote == 0
            assert result.ledger.local > 0

    def test_split_square_causes_remote_traversals(self):
        executor = DistributedQueryExecutor(split_store())
        q1 = figure1_workload().queries[0]
        result = executor.execute(q1)
        assert result.matches == 1          # correctness unaffected by split
        assert result.ledger.remote > 0     # but communication appears

    def test_single_vertex_query_uses_index_only(self):
        executor = DistributedQueryExecutor(all_local_store())
        q = PatternQuery("just_a", LabelledGraph.from_edges({0: "a"}))
        result = executor.execute(q)
        assert result.matches == 2          # vertices 1 and 6
        assert result.ledger.total == 0     # label index, no traversals

    def test_execution_leaves_no_cyclic_garbage(self):
        # The answer set must die with its last reference: garbage kept
        # for the cycle collector holds whole answer sets past their
        # query, which is what a worker's peak RSS is made of.
        executor = DistributedQueryExecutor(split_store(), track_edges=True)
        gc.collect()
        gc.disable()
        try:
            for query in figure1_workload():
                executor.execute(query)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_three_vertex_path_costs_calls_independent_of_its_seeds(self):
        # The last three plan levels run as one loop nest with the leaf
        # counted: a b-a-b wedge is matched in a fixed number of Python
        # calls, not one call per seed or per candidate.
        def python_calls(seeds):
            labels = {v: "a" for v in range(seeds)}
            labels.update({seeds + b: "b" for b in range(10)})
            edges = [(v, seeds + (v + i) % 10) for v in range(seeds) for i in (0, 1)]
            assignment = PartitionAssignment(2, seeds + 10)
            for v in labels:
                assignment.assign(v, v % 2)
            store = DistributedGraphStore(LabelledGraph.from_edges(labels, edges), assignment)
            executor = DistributedQueryExecutor(store)
            wedge = PatternQuery("wedge", LabelledGraph.path("bab"))
            embeddings, _ = executor.execute_partial(wedge, None)  # warm caches
            assert embeddings == 2 * seeds
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            sys.setprofile(count)
            try:
                executor.execute_partial(wedge, None)
            finally:
                sys.setprofile(None)
            return calls

        assert python_calls(100) == python_calls(1000)

    def test_match_counts_agree_with_reference_matcher(self):
        store = split_store()
        executor = DistributedQueryExecutor(store)
        for query in figure1_workload():
            distributed = executor.execute(query).matches
            reference = len(query.answer(store.graph))
            assert distributed == reference

    def test_traversal_counts_on_tiny_example(self):
        # Path a-b split across partitions: matching a-b explores each
        # neighbour of the anchor once.
        g = LabelledGraph.from_edges({0: "a", 1: "b"}, [(0, 1)])
        a = PartitionAssignment(2, 2)
        a.assign(0, 0)
        a.assign(1, 1)
        store = DistributedGraphStore(g, a)
        result = DistributedQueryExecutor(store).execute(
            PatternQuery("ab", LabelledGraph.path("ab"))
        )
        assert result.matches == 1
        assert result.ledger.remote == 1
        assert result.ledger.local == 0


class TestRunWorkload:
    def test_aggregates_over_samples(self):
        stats = run_workload(
            split_store(), figure1_workload(), executions=30,
            rng=random.Random(1),
        )
        assert stats.executions == 30
        assert stats.matches > 0
        assert 0.0 <= stats.remote_probability <= 1.0

    def test_all_local_store_is_fully_local(self):
        stats = run_workload(
            all_local_store(), figure1_workload(), executions=20,
            rng=random.Random(2),
        )
        assert stats.fully_local_rate == 1.0
        assert stats.remote_probability == 0.0

    def test_split_store_is_worse(self):
        local = run_workload(
            all_local_store(), figure1_workload(), executions=30,
            rng=random.Random(3),
        )
        split = run_workload(
            split_store(), figure1_workload(), executions=30,
            rng=random.Random(3),
        )
        assert split.remote_probability > local.remote_probability
        model = LatencyModel()
        assert split.mean_cost(model) > local.mean_cost(model)
