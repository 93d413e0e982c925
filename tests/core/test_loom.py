"""End-to-end tests for the LOOM partitioner."""

import random

from stream_driver import partition_stream

from repro.core import LoomConfig, LoomPartitioner
from repro.engine import StreamingEngine
from repro.graph import LabelledGraph
from repro.graph.generators import plant_motifs
from repro.partitioning import LinearDeterministicGreedy
from repro.stream.sources import stream_from_graph, stream_vertices
from repro.workload import PatternQuery, Workload, figure1_graph, figure1_workload


def square_only_workload():
    return Workload([PatternQuery("q1", LabelledGraph.cycle("abab"))])


class TestBasicContract:
    def test_all_vertices_assigned(self):
        g = figure1_graph()
        loom = LoomPartitioner(
            figure1_workload(), LoomConfig(k=2, capacity=5, window_size=8)
        )
        assignment = StreamingEngine(loom).run(
            stream_from_graph(g, ordering="random", rng=random.Random(1))
        )
        assert assignment.num_assigned == g.num_vertices

    def test_capacity_respected(self):
        g = figure1_graph()
        loom = LoomPartitioner(
            figure1_workload(), LoomConfig(k=2, capacity=4, window_size=8)
        )
        assignment = StreamingEngine(loom).run(
            stream_from_graph(g, ordering="random", rng=random.Random(2))
        )
        assert max(assignment.sizes()) <= 4

    def test_deterministic_given_seed(self):
        g = figure1_graph()

        def run():
            loom = LoomPartitioner(
                figure1_workload(), LoomConfig(k=2, capacity=5, window_size=4)
            )
            return StreamingEngine(loom).run(
                stream_from_graph(g, ordering="random", rng=random.Random(3))
            ).assigned()

        assert run() == run()

    def test_window_one_equals_plain_ldg(self):
        # With a single-slot window no motif can ever assemble, so LOOM's
        # decisions collapse to vertex LDG over the same stream.
        g = figure1_graph()
        events = stream_from_graph(g, ordering="random", rng=random.Random(4))
        loom = LoomPartitioner(
            figure1_workload(), LoomConfig(k=2, capacity=5, window_size=1)
        )
        loom_assigned = StreamingEngine(loom).run(events).assigned()
        ldg_assigned = partition_stream(
            LinearDeterministicGreedy(), events, k=2, capacity=5
        ).assigned()
        assert loom_assigned == ldg_assigned


class TestMotifColocation:
    def test_square_colocated_on_natural_stream(self):
        g = figure1_graph()
        events = stream_vertices(g, [1, 2, 3, 4, 5, 6, 7, 8])
        loom = LoomPartitioner(
            square_only_workload(),
            LoomConfig(k=2, capacity=5, window_size=8, motif_threshold=0.5),
        )
        assignment = StreamingEngine(loom).run(events)
        square_partitions = {assignment.partition_of(v) for v in (1, 2, 5, 6)}
        assert len(square_partitions) == 1
        assert loom.stats["groups"] >= 1

    def test_square_colocated_on_adversarial_interleaving(self):
        # Square vertices arrive interleaved with the rest; the window
        # still assembles the motif before anything is placed.
        g = figure1_graph()
        events = stream_vertices(g, [1, 3, 2, 7, 5, 4, 6, 8])
        loom = LoomPartitioner(
            square_only_workload(),
            LoomConfig(k=2, capacity=5, window_size=8, motif_threshold=0.5),
        )
        assignment = StreamingEngine(loom).run(events)
        square_partitions = {assignment.partition_of(v) for v in (1, 2, 5, 6)}
        assert len(square_partitions) == 1

    def test_grouping_disabled_places_individually(self):
        g = figure1_graph()
        events = stream_vertices(g, [1, 2, 3, 4, 5, 6, 7, 8])
        loom = LoomPartitioner(
            square_only_workload(),
            LoomConfig(
                k=2, capacity=5, window_size=8, motif_threshold=0.5,
                group_matches=False,
            ),
        )
        StreamingEngine(loom).run(events)
        assert loom.stats["groups"] == 0
        assert loom.stats["singles"] == 8

    def test_oversized_group_splits_gracefully(self):
        # Chain of abc motifs sharing substructure grows past the cap; LOOM
        # must fall back to individual assignment without violating capacity.
        motif = LabelledGraph.path("abc")
        g = plant_motifs([(motif, 6)], bridge_probability=1.0, rng=random.Random(5))
        workload = Workload([PatternQuery("abc", motif)])
        loom = LoomPartitioner(
            workload,
            LoomConfig(
                k=3, capacity=8, window_size=18, motif_threshold=0.5,
                max_group_size=4,
            ),
        )
        assignment = StreamingEngine(loom).run(
            stream_from_graph(g, ordering="random", rng=random.Random(6))
        )
        assert assignment.num_assigned == g.num_vertices
        assert max(assignment.sizes()) <= 8


class TestWorkloadAwareness:
    def test_loom_cuts_fewer_motif_edges_than_ldg_on_scattered_stream(self):
        """The headline behaviour at the structural level: edges inside
        planted motif instances survive partitioning under LOOM."""
        motif = LabelledGraph.path("abc")
        g = plant_motifs(
            [(motif, 24)], noise_vertices=24, noise_edge_probability=0.02,
            rng=random.Random(7),
        )
        workload = Workload([PatternQuery("abc", motif)])
        events = stream_from_graph(g, ordering="random", rng=random.Random(8))

        loom = LoomPartitioner(
            workload,
            LoomConfig(k=4, capacity=30, window_size=48, motif_threshold=0.5),
        )
        loom_assignment = StreamingEngine(loom).run(events)
        ldg_assignment = partition_stream(
            LinearDeterministicGreedy(), events, k=4, capacity=30
        )

        def motif_edge_cut(assignment):
            # Only edges between motif-instance vertices (ids below the
            # noise offset, laid out consecutively in triples).
            cut = 0
            total = 0
            for base in range(0, 24 * 3, 3):
                for u, v in ((base, base + 1), (base + 1, base + 2)):
                    total += 1
                    if assignment.partition_of(u) != assignment.partition_of(v):
                        cut += 1
            return cut / total

        assert motif_edge_cut(loom_assignment) < motif_edge_cut(ldg_assignment)

    def test_stats_expose_group_activity(self):
        motif = LabelledGraph.path("ab")
        g = plant_motifs([(motif, 10)], rng=random.Random(9))
        workload = Workload([PatternQuery("ab", motif)])
        loom = LoomPartitioner(
            workload,
            LoomConfig(k=2, capacity=12, window_size=8, motif_threshold=0.5),
        )
        StreamingEngine(loom).run(
            stream_from_graph(g, ordering="random", rng=random.Random(10))
        )
        assert loom.stats["groups"] > 0
        assert loom.stats["group_vertices"] >= 2 * loom.stats["groups"]


class TestTraversalAwareSingles:
    def test_traversal_aware_mode_runs(self):
        g = figure1_graph()
        loom = LoomPartitioner(
            figure1_workload(),
            LoomConfig(
                k=2, capacity=5, window_size=4, traversal_aware_singles=True
            ),
        )
        assignment = StreamingEngine(loom).run(
            stream_from_graph(g, ordering="random", rng=random.Random(11))
        )
        assert assignment.num_assigned == g.num_vertices
