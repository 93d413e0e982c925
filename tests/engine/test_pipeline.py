"""Tests for the batched streaming engine.

The load-bearing property is *equivalence*: driving any partitioner
through :class:`StreamingEngine` in batches of any size must produce the
exact assignments of the pre-refactor event-at-a-time loops (reproduced
verbatim here as the reference), on the paper's figure-1 workload and on
larger streams.
"""

import random

import pytest

from repro.core import LoomConfig, LoomPartitioner
from repro.engine.pipeline import (
    BatchStats,
    StreamingEngine,
    VertexStreamAdapter,
    as_stream_partitioner,
)
from repro.graph.generators import plant_motifs
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import PartitionAssignment, default_capacity
from repro.partitioning.streaming import LinearDeterministicGreedy
from repro.stream.events import EdgeArrival, VertexArrival
from repro.stream.sources import stream_from_graph
from repro.workload import PatternQuery, Workload, figure1_graph, figure1_workload


def reference_partition_stream(partitioner, events, *, k, capacity):
    """The seed's event-at-a-time driver, kept verbatim as the oracle."""
    assignment = PartitionAssignment(k, capacity)
    pending_vertex = None
    pending_neighbours = []

    def flush():
        nonlocal pending_vertex
        if pending_vertex is None:
            return
        vertex, label = pending_vertex
        partition = partitioner.place(
            vertex, label, pending_neighbours, assignment
        )
        assignment.assign(vertex, partition)
        pending_vertex = None
        pending_neighbours.clear()

    for event in events:
        if isinstance(event, VertexArrival):
            flush()
            pending_vertex = (event.vertex, event.label)
        elif isinstance(event, EdgeArrival):
            if pending_vertex is not None and event.v == pending_vertex[0]:
                pending_neighbours.append(event.u)
            elif pending_vertex is not None and event.u == pending_vertex[0]:
                pending_neighbours.append(event.v)
    flush()
    return assignment


@pytest.fixture(scope="module")
def figure1():
    graph = figure1_graph()
    events = stream_from_graph(graph, ordering="random", rng=random.Random(0))
    return graph, figure1_workload(q1_frequency=4.0), events


@pytest.fixture(scope="module")
def motif_stream():
    motif = LabelledGraph.path("abc")
    graph = plant_motifs(
        [(motif, 20)], noise_vertices=40, noise_edge_probability=0.01,
        rng=random.Random(3),
    )
    workload = Workload([PatternQuery("abc", motif)])
    events = stream_from_graph(graph, ordering="random", rng=random.Random(4))
    return graph, workload, events


class TestVertexStreamEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 3, 7, 10_000])
    def test_ldg_matches_reference_on_figure1(self, figure1, batch_size):
        graph, _, events = figure1
        expected = reference_partition_stream(
            LinearDeterministicGreedy(), events, k=2, capacity=5
        )
        adapter = VertexStreamAdapter(
            LinearDeterministicGreedy(), k=2, capacity=5
        )
        got = StreamingEngine(adapter, batch_size=batch_size).run(events)
        assert got.assigned() == expected.assigned()

    @pytest.mark.parametrize("batch_size", [1, 17, 256])
    def test_ldg_matches_reference_on_motif_stream(self, motif_stream, batch_size):
        graph, _, events = motif_stream
        capacity = default_capacity(graph.num_vertices, 4, 1.2)
        expected = reference_partition_stream(
            LinearDeterministicGreedy(), events, k=4, capacity=capacity
        )
        adapter = VertexStreamAdapter(
            LinearDeterministicGreedy(), k=4, capacity=capacity
        )
        got = StreamingEngine(adapter, batch_size=batch_size).run(events)
        assert got.assigned() == expected.assigned()


class TestLoomEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 5, 10_000])
    def test_batched_loom_matches_event_at_a_time(self, figure1, batch_size):
        _, workload, events = figure1
        config = LoomConfig(
            k=2, capacity=5, window_size=8, motif_threshold=0.6
        )
        # Event-at-a-time oracle: the seed's partition_stream body.
        oracle = LoomPartitioner(workload, config)
        for event in events:
            oracle.process(event)
        oracle.flush()

        batched = LoomPartitioner(workload, config)
        got = StreamingEngine(batched, batch_size=batch_size).run(events)
        assert got.assigned() == oracle.assignment.assigned()
        assert batched.stats == oracle.stats


class TestEngineMechanics:
    def test_batch_stats_hooks_fire(self, figure1):
        _, _, events = figure1
        seen: list[BatchStats] = []
        adapter = VertexStreamAdapter(
            LinearDeterministicGreedy(), k=2, capacity=5
        )
        engine = StreamingEngine(adapter, batch_size=4, hooks=(seen.append,))
        engine.run(events)
        assert seen
        assert sum(batch.events for batch in seen) == len(events)
        assert [batch.index for batch in seen] == list(range(len(seen)))
        assert sum(batch.vertices for batch in seen) == 8
        assert engine.stats.events == len(events)
        assert engine.stats.batches == len(seen)

    def test_window_occupancy_tracked_for_loom(self, figure1):
        _, workload, events = figure1
        config = LoomConfig(k=2, capacity=5, window_size=4, motif_threshold=0.6)
        loom = LoomPartitioner(workload, config)
        engine = StreamingEngine(loom, batch_size=2)
        engine.run(events)
        assert 0 < engine.stats.peak_window_occupancy <= 4

    def test_invalid_batch_size_rejected(self):
        adapter = VertexStreamAdapter(
            LinearDeterministicGreedy(), k=2, capacity=5
        )
        with pytest.raises(ValueError):
            StreamingEngine(adapter, batch_size=0)

    def test_as_stream_partitioner_wraps_vertex_heuristics(self):
        lifted = as_stream_partitioner(
            LinearDeterministicGreedy(), k=2, capacity=5
        )
        assert isinstance(lifted, VertexStreamAdapter)

    def test_as_stream_partitioner_passes_protocol_through(self, figure1):
        _, workload, _ = figure1
        config = LoomConfig(k=2, capacity=5, window_size=8, motif_threshold=0.6)
        loom = LoomPartitioner(workload, config)
        assert as_stream_partitioner(loom, k=2, capacity=5) is loom

    def test_as_stream_partitioner_rejects_junk(self):
        with pytest.raises(TypeError):
            as_stream_partitioner(object(), k=2, capacity=5)

    def test_throughput_fields(self, figure1):
        _, _, events = figure1
        adapter = VertexStreamAdapter(
            LinearDeterministicGreedy(), k=2, capacity=5
        )
        engine = StreamingEngine(adapter)
        engine.run(events)
        assert engine.stats.events_per_second >= 0.0
        assert engine.stats.vertices_per_second >= 0.0

    def test_event_hook_sees_every_event_in_order(self, figure1):
        _, _, events = figure1
        seen = []
        adapter = VertexStreamAdapter(
            LinearDeterministicGreedy(), k=2, capacity=5
        )
        engine = StreamingEngine(
            adapter, batch_size=3, event_hook=seen.extend
        )
        engine.run(events)
        assert seen == list(events)
