"""What every grid cell relies on -- a one-shot session per registered
method, evaluated in place -- and the experiment registry."""

import random

import pytest

from repro.api import Cluster, ClusterConfig
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.engine.registry import default_registry
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


def ingested(testbed, method, *, k=4, workload=None, **config):
    graph, _, events = testbed
    config = ClusterConfig(partitions=k, method=method, **config)
    session = Cluster.open(config, workload=workload)
    session.ingest(events, graph=graph)
    return session


class TestPartitionWith:
    @pytest.mark.parametrize("method", sorted(
        s.name for s in default_registry.specs()
        if s.is_streaming and not s.needs_workload
    ))
    def test_streaming_methods(self, testbed, method):
        session = ingested(testbed, method)
        assert session.assignment.num_assigned == testbed[0].num_vertices

    def test_offline(self, testbed):
        session = ingested(testbed, "offline")
        assert session.assignment.num_assigned == testbed[0].num_vertices

    @pytest.mark.parametrize("method", ["loom", "loom_ta"])
    def test_loom_variants(self, testbed, method):
        session = ingested(testbed, method, workload=testbed[1], window_size=32)
        assert session.assignment.num_assigned == testbed[0].num_vertices

    def test_loom_without_workload_rejected(self, testbed):
        with pytest.raises(ValueError):
            ingested(testbed, "loom")

    def test_unknown_method_rejected(self, testbed):
        with pytest.raises(ValueError):
            ingested(testbed, "metis")

    def test_capacity_override(self, testbed):
        session = ingested(testbed, "hash", k=2, capacity=40)
        assert session.assignment.capacity == 40

    def test_cut_and_load_helpers(self, testbed):
        stats = ingested(testbed, "hash").stats()
        assert 0.0 <= stats.cut_fraction <= 1.0
        assert stats.max_load >= 1.0


class TestEvaluateAssignment:
    def test_metrics_in_range(self, testbed):
        report = ingested(testbed, "ldg").run_workload(testbed[1], executions=20)
        assert 0.0 <= report.remote_probability <= 1.0
        assert 0.0 <= report.fully_local_rate <= 1.0
        assert report.mean_cost >= 0.0

    def test_single_partition_no_remote(self, testbed):
        report = ingested(testbed, "hash", k=1).run_workload(
            testbed[1], executions=10
        )
        assert report.remote_probability == 0.0
        assert report.fully_local_rate == 1.0


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
