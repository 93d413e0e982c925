"""Tests for traversal-aware LDG scoring (a section-5 extension) and for
LOOM's fallback when no partition can absorb a motif group."""

import random

import pytest
from stream_driver import partition_stream

from repro.api import Cluster
from repro.core import LoomConfig, LoomPartitioner, TraversalAwareLDG
from repro.engine import StreamingEngine
from repro.graph import LabelledGraph
from repro.graph.generators import plant_motifs
from repro.partitioning import PartitionAssignment
from repro.partitioning.base import default_capacity
from repro.stream.sources import stream_from_graph
from repro.tpstry import TPSTryPP
from repro.workload import PatternQuery, Workload, figure1_graph, figure1_workload


class TestTraversalAwareLDG:
    def make_trie(self):
        return TPSTryPP.from_workload(figure1_workload())

    def test_edge_probability_of_workload_edge(self):
        ta = TraversalAwareLDG(self.make_trie())
        # a-b occurs in every figure-1 query.
        assert ta.edge_probability("a", "b") == pytest.approx(1.0)

    def test_edge_probability_symmetric(self):
        ta = TraversalAwareLDG(self.make_trie())
        assert ta.edge_probability("a", "b") == ta.edge_probability("b", "a")

    def test_edge_probability_of_unknown_edge_zero(self):
        ta = TraversalAwareLDG(self.make_trie())
        assert ta.edge_probability("a", "z") == 0.0

    def test_negative_base_weight_rejected(self):
        with pytest.raises(ValueError):
            TraversalAwareLDG(self.make_trie(), base_weight=-0.1)

    def test_prefers_high_probability_neighbours(self):
        # Vertex 'b' arrives with one 'a' neighbour in partition 0 and one
        # 'd' neighbour in partition 1; a-b is a hot motif edge, b-d is
        # not.  Plain LDG would tie (1 edge each); traversal-aware LDG
        # must pick the a side.
        trie = self.make_trie()
        ta = TraversalAwareLDG(trie)
        assignment = PartitionAssignment(2, 10)
        assignment.assign("a1", 0)
        assignment.assign("d1", 1)
        ta.record_label("a1", "a")
        ta.record_label("d1", "d")
        chosen = ta.place("b1", "b", ["a1", "d1"], assignment)
        assert chosen == 0

    def test_unknown_neighbour_labels_fall_back_to_base(self):
        ta = TraversalAwareLDG(self.make_trie())
        assignment = PartitionAssignment(2, 10)
        assignment.assign("x", 0)
        # Label of 'x' never recorded: still places fine.
        chosen = ta.place("b1", "b", ["x"], assignment)
        assert chosen in (0, 1)

    def test_works_as_standalone_partitioner(self):
        graph = plant_motifs(
            [(LabelledGraph.path("abc"), 10)], rng=random.Random(1)
        )
        events = stream_from_graph(graph, ordering="random", rng=random.Random(2))
        trie = TPSTryPP.from_workload(
            Workload([PatternQuery("abc", LabelledGraph.path("abc"))])
        )
        assignment = partition_stream(
            TraversalAwareLDG(trie), events, k=3,
            capacity=default_capacity(graph.num_vertices, 3, 1.2),
        )
        assert assignment.num_assigned == graph.num_vertices


class TestOversizedGroup:
    @staticmethod
    def square_ladder(columns: int) -> LabelledGraph:
        """A 2 x columns grid whose every unit square matches the a-b-a-b
        cycle motif; adjacent squares share an edge, so the section-4.4
        group closure merges the whole ladder into one giant group."""
        graph = LabelledGraph()
        for i in range(columns):
            graph.add_vertex(("t", i), "a" if i % 2 == 0 else "b")
            graph.add_vertex(("b", i), "b" if i % 2 == 0 else "a")
        for i in range(columns):
            graph.add_edge(("t", i), ("b", i))
            if i + 1 < columns:
                graph.add_edge(("t", i), ("t", i + 1))
                graph.add_edge(("b", i), ("b", i + 1))
        return graph

    def test_oversized_group_counted_and_placed(self):
        graph = self.square_ladder(12)       # 24 vertices, 11 chained squares
        workload = Workload([PatternQuery("square", LabelledGraph.cycle("abab"))])
        config = LoomConfig(
            k=4, capacity=7, window_size=24, motif_threshold=0.5,
            max_group_size=24,
        )
        loom = LoomPartitioner(workload, config)
        events = stream_from_graph(graph, ordering="random", rng=random.Random(4))
        assignment = StreamingEngine(loom).run(events)
        assert loom.stats["split_groups"] > 0
        assert assignment.num_assigned == graph.num_vertices
        assert max(assignment.sizes()) <= 7


def test_retraction_drops_the_label_record():
    """LOOM's traversal-aware single placer learns every arrival's label;
    a retracted vertex takes its record along, so churn cannot grow the
    table past the resident graph."""
    session = Cluster.open(
        method="loom_ta", partitions=2, window_size=4, motif_threshold=0.5,
        workload=figure1_workload(),
    )
    session.ingest(figure1_graph())
    labels = session._pipeline.partitioner._single_placer._labels
    assert set(labels) == set(session.graph.vertices())
    session.retract(vertices=[1, 2])
    assert set(labels) == set(session.graph.vertices())
