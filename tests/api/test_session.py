"""Session lifecycle: ingest → query → re-place, pinned against the
pre-redesign hand-wired glue (byte-identical assignments, identical match
sets and traversal ledgers)."""

import random

import pytest

from repro.api import Cluster, ClusterConfig, DurabilityConfig
from repro.cluster import DistributedGraphStore, run_workload
from repro.cluster.executor import DistributedQueryExecutor
from repro.engine.pipeline import StreamingEngine, as_stream_partitioner
from repro.engine.registry import PartitionRequest, default_registry
from repro.exceptions import CapacityExceededError, SessionError
from repro.graph import LabelledGraph
from repro.graph.generators import erdos_renyi, plant_motifs
from repro.stream.events import VertexArrival
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload


def motif_testbed(seed=0):
    rng = random.Random(seed)
    abc = LabelledGraph.path("abc")
    square = LabelledGraph.cycle("abab")
    graph = plant_motifs(
        [(abc, 20), (square, 12)],
        noise_vertices=50,
        noise_edge_probability=0.005,
        rng=rng,
    )
    workload = Workload(
        [PatternQuery("abc", abc, 3.0), PatternQuery("square", square, 1.0)]
    )
    return graph, workload


def legacy_glue(method, graph, events, *, k, workload, window_size,
                motif_threshold, seed):
    """The pre-redesign lifecycle, hand-wired exactly as callers used to."""
    spec = default_registry.resolve(method)
    request = PartitionRequest(
        graph=graph,
        events=events,
        k=k,
        workload=workload,
        window_size=window_size,
        motif_threshold=motif_threshold,
        seed=seed,
    )
    spec.check_request(request)
    partitioner = as_stream_partitioner(
        spec.build(request), k=k, capacity=request.resolved_capacity()
    )
    assignment = StreamingEngine(partitioner).run(events)
    return DistributedGraphStore(graph, assignment)


@pytest.fixture(scope="module")
def testbed():
    graph, workload = motif_testbed(3)
    events = stream_from_graph(graph, ordering="random", rng=random.Random(4))
    return graph, workload, events


class TestIngestEquivalence:
    @pytest.mark.parametrize("method", ["hash", "ldg", "fennel", "loom"])
    def test_assignments_byte_identical_to_legacy_glue(self, testbed, method):
        graph, workload, events = testbed
        legacy = legacy_glue(
            method, graph, events, k=8, workload=workload,
            window_size=64, motif_threshold=0.2, seed=5,
        )
        session = Cluster.open(
            ClusterConfig(partitions=8, method=method, window_size=64,
                          motif_threshold=0.2, seed=5),
            workload=workload,
        )
        session.ingest(events, graph=graph)
        assert session.assignment.assigned() == legacy.assignment.assigned()

    def test_match_sets_and_ledgers_identical_to_legacy_glue(self, testbed):
        graph, workload, events = testbed
        legacy = legacy_glue(
            "loom", graph, events, k=8, workload=workload,
            window_size=64, motif_threshold=0.2, seed=5,
        )
        session = Cluster.open(
            ClusterConfig(partitions=8, method="loom", window_size=64,
                          motif_threshold=0.2, seed=5),
            workload=workload,
        )
        session.ingest(events, graph=graph)
        executor = DistributedQueryExecutor(legacy)
        for query in workload:
            expected = executor.execute(query)
            result = session.query(query)
            assert result.matches == expected.matches
            assert result.local_traversals == expected.ledger.local
            assert result.remote_traversals == expected.ledger.remote
        expected_stats = run_workload(
            legacy, workload, executions=60, rng=random.Random(9)
        )
        report = session.run_workload(executions=60, rng=random.Random(9))
        assert report.matches == expected_stats.matches
        assert report.remote_probability == expected_stats.remote_probability
        assert report.fully_local_rate == expected_stats.fully_local_rate

    def test_ingest_report_counts_the_stream(self, testbed):
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=4, method="ldg", seed=1)
        )
        report = session.ingest(events, graph=graph)
        assert report.events == len(events)
        assert report.vertices == graph.num_vertices
        assert report.edges == len(events) - graph.num_vertices
        assert report.assigned_total == graph.num_vertices
        assert session.is_complete

    def test_raw_arrival_ingest_feeds_the_store_per_batch(self, testbed):
        """No ``graph=``: the store still grows batch by batch (it used
        to be loaded whole before the first placement)."""
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=4, method="ldg", seed=1, batch_size=64)
        )
        resident = []
        session.ingest(
            events,
            stats_hooks=[
                lambda stats: resident.append(session.store.graph.num_vertices)
            ],
        )
        assert len(resident) > 2
        assert resident == sorted(resident) and resident[0] < resident[-1]
        assert resident[-1] == graph.num_vertices

    def test_offline_method_through_the_facade(self, testbed):
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=4, method="offline", seed=2)
        )
        session.ingest(events, graph=graph)
        assert session.is_complete
        assert session.stats().cut_fraction is not None

    def test_derived_capacity_grows_across_ingests(self, tmp_path):
        first = erdos_renyi(20, 0.2, rng=random.Random(1))
        second = LabelledGraph()
        for v in range(100, 125):
            second.add_vertex(v, "a")
            if v > 100:
                second.add_edge(v - 1, v)
        session = Cluster.open(
            ClusterConfig(
                partitions=4,
                method="ldg",
                durability=DurabilityConfig(mode="wal", wal_dir=str(tmp_path)),
            )
        )
        session.ingest(first)
        small = session.assignment.capacity
        session.ingest(second)
        assert session.is_complete
        assert session.assignment.capacity > small
        assert session.graph.num_vertices == 45
        # The recovered session keeps growing the same way.
        session.close()
        third = LabelledGraph()
        for v in range(200, 230):
            third.add_vertex(v, "b")
            if v > 200:
                third.add_edge(v - 1, v)
        with Cluster.recover(tmp_path) as recovered:
            recovered.ingest(third)
            assert recovered.is_complete
            assert recovered.graph.num_vertices == 75

    def test_explicit_capacity_stays_hard(self):
        graph = erdos_renyi(20, 0.2, rng=random.Random(1))
        session = Cluster.open(
            ClusterConfig(partitions=2, method="ldg", capacity=10)
        )
        session.ingest(graph)
        bigger = erdos_renyi(20, 0.2, rng=random.Random(2))
        relabelled = LabelledGraph()
        for v in bigger.vertices():
            relabelled.add_vertex(v + 100, bigger.label(v))
        for u, v in bigger.edges():
            relabelled.add_edge(u + 100, v + 100)
        with pytest.raises(CapacityExceededError):
            session.ingest(relabelled)

    def test_offline_reingest_drops_stale_replicas(self, testbed):
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=4, method="offline", seed=2),
            workload=workload,
        )
        session.ingest(events, graph=graph)
        session.replicate(budget=6, executions=20)
        assert session.store.total_replicas() > 0
        extra = LabelledGraph()
        for v in range(900, 910):
            extra.add_vertex(v, "a")
            if v > 900:
                extra.add_edge(v - 1, v)
        session.ingest(extra)
        assert session.is_complete
        # Replicas were provisioned under the discarded placement.
        assert session.store.total_replicas() == 0
        assert session.stats().replication_factor == 1.0


class TestSessionState:
    def test_query_before_ingest_raises(self):
        session = Cluster.open(ClusterConfig(method="ldg"))
        with pytest.raises(SessionError, match="nothing ingested"):
            session.query(LabelledGraph.path("ab"))

    def test_run_workload_without_workload_raises(self, testbed):
        graph, _, events = testbed
        session = Cluster.open(ClusterConfig(method="ldg"))
        session.ingest(events, graph=graph)
        with pytest.raises(SessionError, match="no workload"):
            session.run_workload()

    def test_workload_needing_method_requires_workload(self, testbed):
        graph, _, events = testbed
        session = Cluster.open(ClusterConfig(method="loom"))
        with pytest.raises(ValueError, match="needs a workload"):
            session.ingest(events, graph=graph)

    def test_stats_snapshot(self, testbed):
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=8, method="loom", window_size=64,
                          motif_threshold=0.2, seed=5),
            workload=workload,
        )
        session.ingest(events, graph=graph)
        stats = session.stats()
        assert stats.vertices == graph.num_vertices
        assert stats.edges == graph.num_edges
        assert stats.assigned == graph.num_vertices
        assert sum(stats.sizes) == graph.num_vertices
        assert 0.0 <= stats.cut_fraction <= 1.0
        assert stats.engine_events == len(events)
        assert stats.partitioner_counters is not None
        assert "groups" in stats.partitioner_counters
        assert stats.matcher_counters is not None
        payload = stats.as_dict()
        assert payload["method"] == "loom"

    def test_dataset_ingest_adopts_bundled_workload(self):
        session = Cluster.open(
            ClusterConfig(partitions=4, method="loom", window_size=32,
                          motif_threshold=0.4, seed=6)
        )
        report = session.ingest("fraud", size=40)
        assert session.workload is not None
        assert report.vertices == session.graph.num_vertices
        assert session.run_workload(executions=20).executions == 20

    def test_unknown_dataset_raises(self):
        session = Cluster.open(ClusterConfig(method="ldg"))
        with pytest.raises(SessionError, match="unknown dataset"):
            session.ingest("imaginary")


class TestIngestWorkload:
    """``ingest(..., workload=w)`` hands a workload-less session its
    workload once; the same object is welcome again, another is not."""

    def open_and_ingest(self, testbed):
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=8, method="loom", window_size=64,
                          motif_threshold=0.2, seed=5)
        )
        session.ingest(events, graph=graph, workload=workload)
        return session, workload

    def test_first_ingest_adopts_the_workload(self, testbed):
        session, workload = self.open_and_ingest(testbed)
        assert session.workload is workload
        assert session.run_workload(executions=20).executions == 20

    def test_the_same_workload_is_accepted_again(self, testbed):
        session, workload = self.open_and_ingest(testbed)
        session.ingest([VertexArrival("extra", "a", 0)], workload=workload)
        assert session.workload is workload
        assert session.is_complete

    def test_a_different_workload_is_rejected(self, testbed):
        session, workload = self.open_and_ingest(testbed)
        other = Workload([PatternQuery("ab", LabelledGraph.path("ab"))])
        with pytest.raises(SessionError, match="already carries a workload") as raised:
            session.ingest([VertexArrival("extra", "a", 0)], workload=other)
        assert "repartition" not in str(raised.value)
        assert session.workload is workload
        assert not session.graph.has_vertex("extra")


class TestReplaceUnderAnotherMethod:
    def test_reingesting_the_resident_graph_matches_legacy_glue(self, testbed):
        """The documented way to re-place a graph under another method:
        open a session with that method and ingest the resident graph."""
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=8, method="loom", window_size=64,
                          motif_threshold=0.2, seed=5, ordering="random"),
            workload=workload,
        )
        session.ingest(events, graph=graph)
        replaced = Cluster.open(session.config, method="ldg", workload=workload)
        replaced.ingest(session.graph, seed=77)
        expected_events = stream_from_graph(
            session.graph, ordering="random", rng=random.Random(77)
        )
        legacy = legacy_glue(
            "ldg", session.graph, expected_events, k=8, workload=workload,
            window_size=64, motif_threshold=0.2, seed=5,
        )
        assert replaced.assignment.assigned() == legacy.assignment.assigned()
        assert replaced.graph == session.graph
        assert replaced.run_workload(executions=40).executions == 40


class TestReplicate:
    def test_replication_lowers_or_holds_remote_probability(self, testbed):
        graph, workload, events = testbed
        session = Cluster.open(
            ClusterConfig(partitions=8, method="hash", seed=5),
            workload=workload,
        )
        session.ingest(events, graph=graph)
        report = session.replicate(budget=10, executions=30)
        assert report.replicas_added <= 10
        assert (
            report.remote_probability_after
            <= report.remote_probability_before
        )
        assert session.stats().replication_factor >= 1.0
