"""Tests for the experiment harness (method registry + evaluation)."""

import random

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.harness import (
    STREAMING_METHODS,
    evaluate_assignment,
    partition_with,
)
from repro.graph import LabelledGraph
from repro.graph.generators import plant_motifs
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload


@pytest.fixture(scope="module")
def testbed():
    motif = LabelledGraph.path("abc")
    graph = plant_motifs([(motif, 15)], noise_vertices=20,
                         noise_edge_probability=0.01, rng=random.Random(1))
    workload = Workload([PatternQuery("abc", motif)])
    events = stream_from_graph(graph, ordering="random", rng=random.Random(2))
    return graph, workload, events


class TestPartitionWith:
    @pytest.mark.parametrize("method", sorted(STREAMING_METHODS))
    def test_streaming_methods(self, testbed, method):
        graph, workload, events = testbed
        result = partition_with(method, graph, events, k=4)
        assert result.assignment.num_assigned == graph.num_vertices
        assert result.seconds >= 0.0

    def test_offline(self, testbed):
        graph, workload, events = testbed
        result = partition_with("offline", graph, events, k=4)
        assert result.assignment.num_assigned == graph.num_vertices

    @pytest.mark.parametrize("method", ["loom", "loom_ta"])
    def test_loom_variants(self, testbed, method):
        graph, workload, events = testbed
        result = partition_with(
            method, graph, events, k=4, workload=workload, window_size=32
        )
        assert result.assignment.num_assigned == graph.num_vertices

    def test_loom_without_workload_rejected(self, testbed):
        graph, _, events = testbed
        with pytest.raises(ValueError):
            partition_with("loom", graph, events, k=4)

    def test_unknown_method_rejected(self, testbed):
        graph, _, events = testbed
        with pytest.raises(ValueError):
            partition_with("metis", graph, events, k=4)

    def test_capacity_override(self, testbed):
        graph, _, events = testbed
        result = partition_with("hash", graph, events, k=2, capacity=40)
        assert result.assignment.capacity == 40

    def test_cut_and_load_helpers(self, testbed):
        graph, _, events = testbed
        result = partition_with("hash", graph, events, k=4)
        assert 0.0 <= result.cut_fraction(graph) <= 1.0
        assert result.max_load() >= 1.0


class TestEvaluateAssignment:
    def test_metrics_in_range(self, testbed):
        graph, workload, events = testbed
        result = partition_with("ldg", graph, events, k=4)
        ev = evaluate_assignment(graph, result, workload, executions=20)
        assert 0.0 <= ev.remote_probability <= 1.0
        assert 0.0 <= ev.fully_local_rate <= 1.0
        assert ev.mean_cost >= 0.0

    def test_single_partition_no_remote(self, testbed):
        graph, workload, events = testbed
        result = partition_with("hash", graph, events, k=1)
        ev = evaluate_assignment(graph, result, workload, executions=10)
        assert ev.remote_probability == 0.0
        assert ev.fully_local_rate == 1.0


class TestRegistry:
    def test_all_ids_registered(self):
        expected = {f"E{i}" for i in range(1, 14)} | {"A1", "A2", "A3", "A4"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive_lookup(self):
        tables = run_experiment("e7", fast=True)
        assert tables

    def test_experiments_return_tables(self):
        for eid in ("E7", "A3"):
            tables = run_experiment(eid, fast=True)
            assert tables
            for table in tables:
                assert len(table) > 0
